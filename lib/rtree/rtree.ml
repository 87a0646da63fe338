type 'a node =
  | Leaf of (Rect.t * 'a) array
  | Inner of (Rect.t * 'a node) array

type 'a t = { root : 'a node option; max_entries : int; size : int }

let default_max = 16

let mbr_of_entries rects =
  match Array.length rects with
  | 0 -> invalid_arg "Rtree: empty node"
  | 1 -> fst rects.(0)
  | n ->
      (* One pair of bound arrays for the whole fold, not a fresh
         rectangle per entry. *)
      let r0 = fst rects.(0) in
      let k = Rect.dims r0 in
      let lo = Array.copy r0.Rect.lo and hi = Array.copy r0.Rect.hi in
      for idx = 1 to n - 1 do
        let r = fst rects.(idx) in
        for i = 0 to k - 1 do
          if r.Rect.lo.(i) < lo.(i) then lo.(i) <- r.Rect.lo.(i);
          if r.Rect.hi.(i) > hi.(i) then hi.(i) <- r.Rect.hi.(i)
        done
      done;
      Rect.make ~lo ~hi

let node_mbr = function Leaf es -> mbr_of_entries es | Inner es -> mbr_of_entries es

(* ------------------------------------------------------------------ *)
(* Sort-Tile-Recursive packing                                         *)
(* ------------------------------------------------------------------ *)

let center rect i = rect.Rect.lo.(i) + rect.Rect.hi.(i)

(* Partition [entries] into groups of at most [max_entries], tiling
   dimension [dim] first and cycling through the remaining ones. *)
let rec tile : 'b. (Rect.t * 'b) array -> int -> int -> int -> (Rect.t * 'b) array list =
  fun entries dim k max_entries ->
   let n = Array.length entries in
   if n <= max_entries then [ entries ]
   else begin
     let sorted = Array.copy entries in
     Array.sort
       (fun (r1, _) (r2, _) -> Int.compare (center r1 dim) (center r2 dim))
       sorted;
     let leaves_needed = (n + max_entries - 1) / max_entries in
     let dims_left = max 1 (k - dim) in
     let slabs =
       if dims_left = 1 then leaves_needed
       else
         let s =
           int_of_float
             (Float.ceil
                (Float.pow (float_of_int leaves_needed) (1.0 /. float_of_int dims_left)))
         in
         max 1 (min s leaves_needed)
     in
     let per_slab = (n + slabs - 1) / slabs in
     let groups = ref [] in
     let pos = ref 0 in
     while !pos < n do
       let len = min per_slab (n - !pos) in
       let slab = Array.sub sorted !pos len in
       pos := !pos + len;
       let next_dim = if dim + 1 >= k then k - 1 else dim + 1 in
       groups := tile slab next_dim k max_entries @ !groups
     done;
     List.rev !groups
   end

let bulk_load ?(max_entries = default_max) entries =
  let max_entries = max max_entries 4 in
  match entries with
  | [] -> { root = None; max_entries; size = 0 }
  | (r0, _) :: _ ->
      let k = Rect.dims r0 in
      List.iter
        (fun (r, _) ->
          if Rect.dims r <> k then
            invalid_arg "Rtree.bulk_load: mixed dimensionalities")
        entries;
      let arr = Array.of_list entries in
      let leaf_groups = tile arr 0 k max_entries in
      let level =
        List.map (fun g -> (mbr_of_entries g, Leaf g)) leaf_groups
      in
      let rec build level =
        match level with
        | [ (_, node) ] -> node
        | _ ->
            let arr = Array.of_list level in
            let groups = tile arr 0 k max_entries in
            build (List.map (fun g -> (mbr_of_entries g, Inner g)) groups)
      in
      { root = Some (build level); max_entries; size = Array.length arr }

(* ------------------------------------------------------------------ *)
(* Searches                                                            *)
(* ------------------------------------------------------------------ *)

let size t = t.size

let fold_containing query f t init =
  let rec go node acc =
    match node with
    | Leaf entries ->
        Array.fold_left
          (fun acc (r, v) -> if Rect.contains r query then f v acc else acc)
          acc entries
    | Inner children ->
        Array.fold_left
          (fun acc (mbr, child) ->
            (* A child can contain [query] only if the subtree MBR does. *)
            if Rect.contains mbr query then go child acc else acc)
          acc children
  in
  match t.root with None -> init | Some n -> go n init

(* Snapshot codec. Only the packed structure and the leaf values go to
   the wire: a leaf entry's rectangle is a function of its value (for
   the synopsis index, the vertex's stored synopsis) and every inner
   MBR is the union of its children, so both are recomputed bottom-up
   on decode. This halves the section and stays canonical — the bytes
   are determined by the tree shape and values alone. Integers go
   through a caller-supplied codec, keeping this library
   dependency-free. *)
let encode buf ~write_int ~write_value t =
  write_int buf t.max_entries;
  write_int buf t.size;
  let rec write_node = function
    | Leaf entries ->
        write_int buf 0;
        write_int buf (Array.length entries);
        Array.iter (fun (_, v) -> write_value buf v) entries
    | Inner children ->
        write_int buf 1;
        write_int buf (Array.length children);
        Array.iter (fun (_, child) -> write_node child) children
  in
  match t.root with
  | None -> write_int buf 0
  | Some root ->
      write_int buf 1;
      write_node root

let decode src pos ~read_int ~read_value ~rect_of_value =
  let fail msg = failwith ("Rtree.decode: " ^ msg) in
  let max_entries = read_int src pos in
  let size = read_int src pos in
  if max_entries < 4 || size < 0 then fail "bad header";
  let read_count () =
    let n = read_int src pos in
    if n < 1 || n > max_entries then fail "bad node fan-out";
    n
  in
  (* Rebuild geometry as we go: [read_node] returns the node with its
     MBR so a parent can take unions without a second pass. *)
  let rec read_node () =
    match read_int src pos with
    | 0 ->
        let n = read_count () in
        let entries =
          Array.init n (fun _ ->
              let v = read_value src pos in
              (rect_of_value v, v))
        in
        (mbr_of_entries entries, Leaf entries)
    | 1 ->
        let n = read_count () in
        let children = Array.init n (fun _ -> read_node ()) in
        (mbr_of_entries children, Inner children)
    | _ -> fail "bad node tag"
  in
  match read_int src pos with
  | 0 -> if size = 0 then { root = None; max_entries; size } else fail "bad header"
  | 1 ->
      let _, root = read_node () in
      { root = Some root; max_entries; size }
  | _ -> fail "bad root tag"

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match t.root with
  | None -> if t.size = 0 then Ok () else fail "empty root but size %d" t.size
  | Some root ->
      let exception Bad of string in
      let rec check node depth =
        let entries_mbr, count, depths =
          match node with
          | Leaf entries ->
              if Array.length entries = 0 then raise (Bad "empty leaf");
              (mbr_of_entries entries, Array.length entries, [ depth ])
          | Inner children ->
              if Array.length children = 0 then raise (Bad "empty inner node");
              let depths = ref [] and count = ref 0 in
              Array.iter
                (fun (mbr, child) ->
                  let actual = node_mbr child in
                  if not (Rect.equal actual mbr) then
                    raise (Bad "stored MBR differs from children union");
                  let c, ds = check child (depth + 1) in
                  count := !count + c;
                  depths := ds @ !depths)
                children;
              (mbr_of_entries children, !count, !depths)
        in
        ignore entries_mbr;
        let fanout =
          match node with
          | Leaf e -> Array.length e
          | Inner c -> Array.length c
        in
        if fanout > t.max_entries then
          raise (Bad (Printf.sprintf "fan-out %d exceeds max %d" fanout t.max_entries));
        (count, depths)
      in
      (try
         let count, depths = check root 0 in
         if count <> t.size then fail "size %d but %d entries found" t.size count
         else
           match depths with
           | [] -> fail "no leaves"
           | d :: rest ->
               if List.for_all (Int.equal d) rest then Ok ()
               else fail "leaves at differing depths"
       with Bad msg -> Error msg)
