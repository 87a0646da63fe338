type vertex = int
type edge_type = int
type attribute = int
type direction = Out | In

(* One direction of the adjacency, packed. Neighbour lists are frozen
   {!Posting} lists (one per vertex, empty lists sharing [Posting.empty]);
   the multi-edge type sets live in flat pools instead of one heap block
   per edge. Edge [i] of vertex [v] (in neighbour order) has global index
   [voffs.(v) + i]; its cell in [ty_pool] is the edge type when the
   multi-edge is a singleton — the overwhelmingly common case in RDF —
   or [-(off + 1)] pointing at a length-prefixed type set in
   [over_pool]. *)
type half = {
  nbrs : Posting.t array;
  voffs : int array;  (* length n+1, cumulative degrees *)
  ty_pool : int array;  (* one cell per multi-edge *)
  over_pool : int array;  (* len-prefixed sets of the non-singleton edges *)
}

type packed = {
  vertex_count : int;
  edge_type_count : int;
  out_h : half;
  in_h : half;
  aoffs : int array;  (* length n+1: attribute range of vertex v *)
  apool : int array;  (* concatenated sorted attribute sets *)
  multi_edge_count : int;
  triple_edge_count : int;
}

(* A touched vertex's full merged adjacency in one direction: the tuple
   view plus the neighbour posting wrapped over it (Raw — overlay patches
   are small and short-lived; compaction re-freezes them under
   {!Posting.of_array}'s rule). *)
type patch = { padj : (int * int array) array; pnbrs : Posting.t }

(* Patch tables keyed by vertex id. Every read of an overlay probes
   them, so they hash an id to itself instead of through the generic
   polymorphic hash. *)
module Vtbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v land max_int
end)

(* A delta overlay over a frozen packed base: hashtables hold the fully
   merged state of every vertex the write store touched; untouched
   vertices fall through to the base. Neither the base nor a patch is
   ever mutated, so an overlay, the overlays derived from it and its
   base can serve readers concurrently. *)
type overlay = {
  base : packed;
  o_vertex_count : int;  (* >= base.vertex_count; tail ids are new *)
  o_edge_type_count : int;
  o_out : patch Vtbl.t;
  o_in : patch Vtbl.t;
  o_attrs : int array Vtbl.t;
  o_multi_edge_count : int;
  o_triple_edge_count : int;
}

type t = Packed of packed | Overlay of overlay

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

(* The packer's one input form: the out-adjacency and the attribute sets
   as flat CSR arrays. Vertex [v]'s multi-edges are the indices
   [c_offs.(v) .. c_offs.(v+1) - 1], sorted by neighbour [c_nbrs.(e)];
   multi-edge [e] carries the non-empty sorted types
   [c_tys.(c_toffs.(e)) .. c_tys.(c_toffs.(e+1) - 1)]; [v]'s sorted
   attributes are [c_apool.(c_aoffs.(v)) .. c_apool.(c_aoffs.(v+1) - 1)].
   {!Builder.build}, {!of_csr} (the snapshot decoder's arrays) and
   {!freeze} each produce one; the in-adjacency and every count are
   derived from it. *)
type csr = {
  c_offs : int array;  (* length n+1 *)
  c_nbrs : int array;  (* one cell per multi-edge *)
  c_toffs : int array;  (* length m+1 *)
  c_tys : int array;
  c_aoffs : int array;  (* length n+1 *)
  c_apool : int array;
}

(* One direction: [offs]/[nbrs] list the neighbours in CSR form, and
   neighbour slot [i] is the CSR multi-edge [edge_of i] (its types). *)
let pack_half c ~offs ~nbrs ~edge_of =
  let n = Array.length offs - 1 in
  let m = offs.(n) in
  let over_len = ref 0 in
  for i = 0 to m - 1 do
    let e = edge_of i in
    let k = c.c_toffs.(e + 1) - c.c_toffs.(e) in
    if k > 1 then over_len := !over_len + 1 + k
  done;
  let ty_pool = Array.make m 0 and over_pool = Array.make !over_len 0 in
  let pos = ref 0 in
  for i = 0 to m - 1 do
    let e = edge_of i in
    let lo = c.c_toffs.(e) in
    let k = c.c_toffs.(e + 1) - lo in
    if k = 1 then ty_pool.(i) <- c.c_tys.(lo)
    else begin
      ty_pool.(i) <- -(!pos + 1);
      over_pool.(!pos) <- k;
      Array.blit c.c_tys lo over_pool (!pos + 1) k;
      pos := !pos + 1 + k
    end
  done;
  let postings =
    Array.init n (fun v ->
        let lo = offs.(v) and hi = offs.(v + 1) in
        if lo = hi then Posting.empty
        else Posting.of_array (Array.sub nbrs lo (hi - lo)))
  in
  { nbrs = postings; voffs = offs; ty_pool; over_pool }

let types_at h e =
  let c = h.ty_pool.(e) in
  if c >= 0 then [| c |]
  else
    let off = -c - 1 in
    Array.sub h.over_pool (off + 1) h.over_pool.(off)

(* Pack a valid CSR — the callers construct or validate it. The
   in-adjacency is a counting sort on the target: scanning sources in
   increasing order keeps every in-list sorted. *)
let pack c =
  let n = Array.length c.c_offs - 1 in
  let m = c.c_offs.(n) in
  let in_offs = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let w = c.c_nbrs.(e) + 1 in
    in_offs.(w) <- in_offs.(w) + 1
  done;
  for v = 0 to n - 1 do
    in_offs.(v + 1) <- in_offs.(v + 1) + in_offs.(v)
  done;
  let fill = Array.sub in_offs 0 n in
  let in_nbrs = Array.make m 0 and in_edge = Array.make m 0 in
  for v = 0 to n - 1 do
    for e = c.c_offs.(v) to c.c_offs.(v + 1) - 1 do
      let w = c.c_nbrs.(e) in
      let i = fill.(w) in
      in_nbrs.(i) <- v;
      in_edge.(i) <- e;
      fill.(w) <- i + 1
    done
  done;
  let triple_edge_count = c.c_toffs.(m) in
  (* Each type set is sorted: its last cell is its largest type. *)
  let edge_type_count = ref 0 in
  for e = 1 to m do
    let top = c.c_tys.(c.c_toffs.(e) - 1) in
    if top >= !edge_type_count then edge_type_count := top + 1
  done;
  {
    vertex_count = n;
    edge_type_count = !edge_type_count;
    out_h = pack_half c ~offs:c.c_offs ~nbrs:c.c_nbrs ~edge_of:Fun.id;
    in_h =
      pack_half c ~offs:in_offs ~nbrs:in_nbrs ~edge_of:(Array.get in_edge);
    aoffs = c.c_aoffs;
    apool = c.c_apool;
    multi_edge_count = m;
    triple_edge_count;
  }

(* Sort [a.(lo) .. a.(lo+len-1)] in place and squeeze out duplicates;
   returns the deduplicated length. Type and attribute runs are short,
   so insertion sort handles the common case without allocating. *)
let sort_dedup_run a lo len =
  if len > 16 then begin
    let s = Array.sub a lo len in
    Array.sort Int.compare s;
    Array.blit s 0 a lo len
  end
  else
    for i = lo + 1 to lo + len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
  if len = 0 then 0
  else begin
    let k = ref 1 in
    for i = lo + 1 to lo + len - 1 do
      if a.(i) <> a.(lo + !k - 1) then begin
        a.(lo + !k) <- a.(i);
        incr k
      end
    done;
    !k
  end

(* Stable counting sort of the permutation [perm] by [key.(perm.(i))],
   for keys in [0, range). *)
let counting_order ~range key perm =
  let count = Array.make (range + 1) 0 in
  Array.iter (fun i -> count.(key.(i) + 1) <- count.(key.(i) + 1) + 1) perm;
  for k = 0 to range - 1 do
    count.(k + 1) <- count.(k + 1) + count.(k)
  done;
  let out = Array.make (Array.length perm) 0 in
  Array.iter
    (fun i ->
      let k = key.(i) in
      out.(count.(k)) <- i;
      count.(k) <- count.(k) + 1)
    perm;
  out

module Builder = struct
  type t = {
    src : Int_vec.t;  (* atomic edge i is src.(i) -ty.(i)-> dst.(i) *)
    ty : Int_vec.t;
    dst : Int_vec.t;
    holder : Int_vec.t;  (* attribute pair j is holder.(j) carrying attr.(j) *)
    attr : Int_vec.t;
    mutable max_vertex : int;  (* -1 when no vertex yet *)
  }

  let create ?(vertex_hint = 256) () =
    {
      src = Int_vec.create (4 * vertex_hint);
      ty = Int_vec.create (4 * vertex_hint);
      dst = Int_vec.create (4 * vertex_hint);
      holder = Int_vec.create vertex_hint;
      attr = Int_vec.create vertex_hint;
      max_vertex = -1;
    }

  let add_vertex b v =
    if v < 0 then invalid_arg "Builder.add_vertex: negative vertex id";
    if v > b.max_vertex then b.max_vertex <- v

  let add_edge b v ty v' =
    if ty < 0 then invalid_arg "Builder.add_edge: negative edge type";
    add_vertex b v;
    add_vertex b v';
    Int_vec.push b.src v;
    Int_vec.push b.ty ty;
    Int_vec.push b.dst v'

  let add_attribute b v attr =
    if attr < 0 then invalid_arg "Builder.add_attribute: negative attribute";
    add_vertex b v;
    Int_vec.push b.holder v;
    Int_vec.push b.attr attr

  (* Counting sorts on the target, then (stably) on the source, group the
     atomic edges by (v, v') in neighbour order; each group's types are
     then sorted and deduplicated in place. Attributes likewise group by
     holder. *)
  let build b =
    let n = b.max_vertex + 1 in
    let ne = b.src.len in
    let src = b.src.a and ty = b.ty.a and dst = b.dst.a in
    let order =
      counting_order ~range:n src
        (counting_order ~range:n dst (Array.init ne Fun.id))
    in
    let offs = Array.make (n + 1) 0 in
    let nbrs = Array.make ne 0 and toffs = Array.make (ne + 1) 0 in
    let tys = Array.make ne 0 in
    let m = ref 0 and t = ref 0 and i = ref 0 in
    while !i < ne do
      let v = src.(order.(!i)) and w = dst.(order.(!i)) in
      let start = !t in
      while !i < ne && src.(order.(!i)) = v && dst.(order.(!i)) = w do
        tys.(!t) <- ty.(order.(!i));
        incr t;
        incr i
      done;
      t := start + sort_dedup_run tys start (!t - start);
      nbrs.(!m) <- w;
      incr m;
      toffs.(!m) <- !t;
      offs.(v + 1) <- offs.(v + 1) + 1
    done;
    for v = 0 to n - 1 do
      offs.(v + 1) <- offs.(v + 1) + offs.(v)
    done;
    let na = b.holder.len in
    let holder = b.holder.a and attr = b.attr.a in
    let aorder = counting_order ~range:n holder (Array.init na Fun.id) in
    let aoffs = Array.make (n + 1) 0 and apool = Array.make na 0 in
    let k = ref 0 and j = ref 0 in
    while !j < na do
      let v = holder.(aorder.(!j)) in
      let start = !k in
      while !j < na && holder.(aorder.(!j)) = v do
        apool.(!k) <- attr.(aorder.(!j));
        incr k;
        incr j
      done;
      k := start + sort_dedup_run apool start (!k - start);
      aoffs.(v + 1) <- !k - start
    done;
    for v = 0 to n - 1 do
      aoffs.(v + 1) <- aoffs.(v + 1) + aoffs.(v)
    done;
    Packed
      (pack
         {
           c_offs = offs;
           c_nbrs = Array.sub nbrs 0 !m;
           c_toffs = Array.sub toffs 0 (!m + 1);
           c_tys = Array.sub tys 0 !t;
           c_aoffs = aoffs;
           c_apool = Array.sub apool 0 !k;
         })
end

let vertex_count = function
  | Packed g -> g.vertex_count
  | Overlay o -> o.o_vertex_count

let edge_type_count = function
  | Packed g -> g.edge_type_count
  | Overlay o -> o.o_edge_type_count

let multi_edge_count = function
  | Packed g -> g.multi_edge_count
  | Overlay o -> o.o_multi_edge_count

let triple_edge_count = function
  | Packed g -> g.triple_edge_count
  | Overlay o -> o.o_triple_edge_count

let check_vertex g v =
  if v < 0 || v >= vertex_count g then
    invalid_arg (Printf.sprintf "Multigraph: vertex %d out of range" v)

let packed_attributes g v =
  Array.sub g.apool g.aoffs.(v) (g.aoffs.(v + 1) - g.aoffs.(v))

let attributes g v =
  check_vertex g v;
  match g with
  | Packed g -> packed_attributes g v
  | Overlay o -> (
      match Vtbl.find_opt o.o_attrs v with
      | Some a -> Array.copy a
      | None ->
          if v < o.base.vertex_count then packed_attributes o.base v else [||])

let half g = function Out -> g.out_h | In -> g.in_h
let side o = function Out -> o.o_out | In -> o.o_in

let neighbours g dir v =
  check_vertex g v;
  match g with
  | Packed g -> (half g dir).nbrs.(v)
  | Overlay o -> (
      match Vtbl.find_opt (side o dir) v with
      | Some p -> p.pnbrs
      | None ->
          if v < o.base.vertex_count then (half o.base dir).nbrs.(v)
          else Posting.empty)

let packed_adjacency g dir v =
  let h = half g dir in
  let base = h.voffs.(v) in
  let nb = Posting.to_array h.nbrs.(v) in
  Array.mapi (fun i v' -> (v', types_at h (base + i))) nb

let adjacency g dir v =
  check_vertex g v;
  match g with
  | Packed g -> packed_adjacency g dir v
  | Overlay o -> (
      match Vtbl.find_opt (side o dir) v with
      | Some p -> p.padj
      | None ->
          if v < o.base.vertex_count then packed_adjacency o.base dir v
          else [||])

(* Does the multi-edge at pool cell [e] carry every type of sorted
   [types]? Reads the type pool in place. *)
let carries_at h e types =
  let n = Array.length types in
  let c = h.ty_pool.(e) in
  if c >= 0 then n = 0 || (n = 1 && types.(0) = c)
  else
    let off = -c - 1 in
    let k = h.over_pool.(off) in
    (* A loop, not a local recursive function: it runs for every
       multi-edge a neighbourhood probe walks and must not allocate a
       closure. *)
    let i = ref 0 and j = ref 1 and ok = ref true in
    while !ok && !i < n do
      if !j > k then ok := false
      else begin
        let x = h.over_pool.(off + !j) in
        if x = types.(!i) then incr i else if x > types.(!i) then ok := false;
        incr j
      end
    done;
    !ok

let iter_neighbours_with g dir v types f =
  check_vertex g v;
  let packed g =
    let h = half g dir in
    let base = h.voffs.(v) and stop = h.voffs.(v + 1) in
    (* Type cells first: when no multi-edge qualifies, the neighbour
       list is never read, let alone decoded. *)
    let first = ref base in
    while !first < stop && not (carries_at h !first types) do
      incr first
    done;
    let first = !first in
    if first < stop then
      Posting.iteri
        (fun i u -> if base + i >= first && carries_at h (base + i) types then f u)
        h.nbrs.(v)
  in
  match g with
  | Packed g -> packed g
  | Overlay o -> (
      match Vtbl.find_opt (side o dir) v with
      | Some p ->
          Array.iter (fun (u, tys) -> if Sorted_ints.subset types tys then f u) p.padj
      | None -> if v < o.base.vertex_count then packed o.base)

let packed_edge_types g v v' =
  match Posting.index_of g.out_h.nbrs.(v) v' with
  | None -> [||]
  | Some i -> types_at g.out_h (g.out_h.voffs.(v) + i)

let edge_types_between g v v' =
  check_vertex g v;
  check_vertex g v';
  match g with
  | Packed g -> packed_edge_types g v v'
  | Overlay o -> (
      match Vtbl.find_opt o.o_out v with
      | Some p -> (
          match Posting.index_of p.pnbrs v' with
          | None -> [||]
          | Some i -> Array.copy (snd p.padj.(i)))
      | None ->
          if v < o.base.vertex_count && v' < o.base.vertex_count then
            packed_edge_types o.base v v'
          else [||])

let has_edge g v ty v' =
  check_vertex g v;
  check_vertex g v';
  match g with
  | Packed g -> (
      match Posting.index_of g.out_h.nbrs.(v) v' with
      | None -> false
      | Some i -> (
          let c = g.out_h.ty_pool.(g.out_h.voffs.(v) + i) in
          if c >= 0 then c = ty
          else
            let off = -c - 1 in
            let k = g.out_h.over_pool.(off) in
            let rec probe j =
              j <= k && (g.out_h.over_pool.(off + j) = ty || probe (j + 1))
            in
            probe 1))
  | Overlay o -> (
      match Vtbl.find_opt o.o_out v with
      | Some p -> (
          match Posting.index_of p.pnbrs v' with
          | None -> false
          | Some i -> Sorted_ints.mem (snd p.padj.(i)) ty)
      | None ->
          v < o.base.vertex_count
          && v' < o.base.vertex_count
          && Sorted_ints.mem (packed_edge_types o.base v v') ty)

let degree g v =
  check_vertex g v;
  (* Count distinct neighbours across both directions (each posting is
     sorted), merging to avoid double counting. *)
  let a = Posting.to_array (neighbours g Out v)
  and b = Posting.to_array (neighbours g In v) in
  let na = Array.length a and nb = Array.length b in
  let rec loop i j n =
    if i >= na && j >= nb then n
    else if j >= nb then n + (na - i)
    else if i >= na then n + (nb - j)
    else
      let x = a.(i) and y = b.(j) in
      if x = y then loop (i + 1) (j + 1) (n + 1)
      else if x < y then loop (i + 1) j (n + 1)
      else loop i (j + 1) (n + 1)
  in
  loop 0 0 0

(* [f w cells lo len] on every out multi-edge [v -> w], in
   neighbour order; its types are [cells.(lo) .. cells.(lo+len-1)] —
   read in place from the type pools or the patch. *)
let iter_out g v f =
  let packed b =
    if v < b.vertex_count then begin
      let h = b.out_h in
      let base = h.voffs.(v) in
      Posting.iteri
        (fun i w ->
          let e = base + i in
          let c = h.ty_pool.(e) in
          if c >= 0 then f w h.ty_pool e 1
          else
            let off = -c - 1 in
            f w h.over_pool (off + 1) h.over_pool.(off))
        h.nbrs.(v)
    end
  in
  match g with
  | Packed b -> packed b
  | Overlay o -> (
      match Vtbl.find_opt o.o_out v with
      | Some p -> Array.iter (fun (w, tys) -> f w tys 0 (Array.length tys)) p.padj
      | None -> packed o.base)

(* [f cells lo len] on every multi-edge of [v] in direction [dir], in
   neighbour order, with its types [cells.(lo) .. cells.(lo+len-1)] read
   in place. Neighbour lists are never read, let alone decoded. *)
let iter_type_sets g dir v f =
  check_vertex g v;
  let packed b =
    if v < b.vertex_count then begin
      let h = half b dir in
      for e = h.voffs.(v) to h.voffs.(v + 1) - 1 do
        let c = h.ty_pool.(e) in
        if c >= 0 then f h.ty_pool e 1
        else
          let off = -c - 1 in
          f h.over_pool (off + 1) h.over_pool.(off)
      done
    end
  in
  match g with
  | Packed b -> packed b
  | Overlay o -> (
      match Vtbl.find_opt (side o dir) v with
      | Some p ->
          for i = 0 to Array.length p.padj - 1 do
            let tys = snd p.padj.(i) in
            f tys 0 (Array.length tys)
          done
      | None -> packed o.base)

let with_attributes g v f =
  check_vertex g v;
  let packed b =
    if v < b.vertex_count then
      f b.apool b.aoffs.(v) (b.aoffs.(v + 1) - b.aoffs.(v))
    else f b.apool 0 0
  in
  match g with
  | Packed b -> packed b
  | Overlay o -> (
      match Vtbl.find_opt o.o_attrs v with
      | Some a -> f a 0 (Array.length a)
      | None -> packed o.base)

let fold_edges f g init =
  let acc = ref init in
  for v = 0 to vertex_count g - 1 do
    iter_out g v (fun w cells lo len -> acc := f v (Array.sub cells lo len) w !acc)
  done;
  !acc

(* Validate a CSR handed in from outside (the snapshot decoder) before
   packing it: the checks that make [pack]'s input well formed. *)
let of_csr ~offs ~nbrs ~toffs ~tys ~aoffs ~apool () =
  let fail msg = invalid_arg ("Multigraph.of_csr: " ^ msg) in
  let n = Array.length offs - 1 and m = Array.length nbrs in
  let check_offsets what offs len =
    let last = Array.length offs - 1 in
    if last < 0 || offs.(0) <> 0 then fail (what ^ " offsets do not start at 0");
    for i = 1 to last do
      if offs.(i) < offs.(i - 1) then fail (what ^ " offsets decrease")
    done;
    if offs.(last) <> len then fail (what ^ " offsets / pool length mismatch")
  in
  (* Each run strictly increasing, within [0, bound). *)
  let check_runs what offs pool ~bound =
    for r = 0 to Array.length offs - 2 do
      for k = offs.(r) to offs.(r + 1) - 1 do
        let x = pool.(k) in
        if x < 0 || x >= bound then
          fail (Printf.sprintf "%s %d out of range" what x);
        if k > offs.(r) && x <= pool.(k - 1) then fail (what ^ " set not sorted")
      done
    done
  in
  check_offsets "adjacency" offs m;
  if Array.length toffs <> m + 1 then
    fail "type offsets / multi-edge count mismatch";
  check_offsets "type" toffs (Array.length tys);
  for e = 0 to m - 1 do
    if toffs.(e + 1) = toffs.(e) then fail "empty multi-edge"
  done;
  if Array.length aoffs <> n + 1 then
    fail "attribute offsets / vertex count mismatch";
  check_offsets "attribute" aoffs (Array.length apool);
  check_runs "neighbour" offs nbrs ~bound:n;
  check_runs "edge type" toffs tys ~bound:max_int;
  check_runs "attribute" aoffs apool ~bound:max_int;
  Packed
    (pack
       {
         c_offs = offs;
         c_nbrs = nbrs;
         c_toffs = toffs;
         c_tys = tys;
         c_aoffs = aoffs;
         c_apool = apool;
       })

let posting_stats g s =
  match g with
  | Packed g ->
      Array.iter (Posting.count_into s) g.out_h.nbrs;
      Array.iter (Posting.count_into s) g.in_h.nbrs
  | Overlay _ ->
      (* Count every vertex's effective posting, patched or base. *)
      let n = vertex_count g in
      for v = 0 to n - 1 do
        Posting.count_into s (neighbours g Out v);
        Posting.count_into s (neighbours g In v)
      done

let out_of_heap_bytes g =
  let total = ref 0 in
  (match g with
  | Packed g ->
      Array.iter
        (fun p -> total := !total + Posting.out_of_heap_bytes p)
        g.out_h.nbrs;
      Array.iter
        (fun p -> total := !total + Posting.out_of_heap_bytes p)
        g.in_h.nbrs
  | Overlay _ ->
      let n = vertex_count g in
      for v = 0 to n - 1 do
        total :=
          !total
          + Posting.out_of_heap_bytes (neighbours g Out v)
          + Posting.out_of_heap_bytes (neighbours g In v)
      done);
  !total

let pp_stats ppf g =
  Format.fprintf ppf
    "@[<v>vertices: %d@,multi-edges: %d@,atomic edges: %d@,edge types: %d@]"
    (vertex_count g) (multi_edge_count g) (triple_edge_count g)
    (edge_type_count g)

(* ------------------------------------------------------------------ *)
(* Delta overlay                                                       *)
(* ------------------------------------------------------------------ *)

let is_overlay = function Packed _ -> false | Overlay _ -> true

let validate_patch_adj ~n adj =
  let last = ref (-1) in
  Array.iter
    (fun (v', types) ->
      if v' < 0 || v' >= n then
        invalid_arg
          (Printf.sprintf "Multigraph.overlay: neighbour %d out of range" v');
      if v' <= !last then
        invalid_arg "Multigraph.overlay: patch adjacency not sorted";
      last := v';
      if Array.length types = 0 then
        invalid_arg "Multigraph.overlay: empty multi-edge";
      if not (Sorted_ints.is_sorted types) || types.(0) < 0 then
        invalid_arg "Multigraph.overlay: multi-edge types not sorted")
    adj

(* Base contribution of vertex [v] to the pair / atomic edge counts. *)
let packed_out_counts b v =
  if v >= b.vertex_count then (0, 0)
  else begin
    let lo = b.out_h.voffs.(v) and hi = b.out_h.voffs.(v + 1) in
    let triples = ref 0 in
    for e = lo to hi - 1 do
      let c = b.out_h.ty_pool.(e) in
      triples := !triples + if c >= 0 then 1 else b.out_h.over_pool.(-c - 1)
    done;
    (hi - lo, !triples)
  end

let patch_counts adj =
  ( Array.length adj,
    Array.fold_left (fun acc (_, tys) -> acc + Array.length tys) 0 adj )

(* Out-side contribution of vertex [v] to the pair / atomic edge counts,
   in whichever form [g] holds it. *)
let out_counts g v =
  match g with
  | Packed b -> packed_out_counts b v
  | Overlay o -> (
      match Vtbl.find_opt o.o_out v with
      | Some p -> patch_counts p.padj
      | None -> packed_out_counts o.base v)

let overlay ~base ~vertex_count:n ~out ~in_ ~attrs () =
  (* A previous overlay contributes its patch tables: copied (O(patched
     entries), values shared), never mutated, so epochs pinned on it are
     unaffected. The packed base underneath is the same for every layer. *)
  let b, prev =
    match base with Packed b -> (b, None) | Overlay o -> (o.base, Some o)
  in
  if n < vertex_count base then
    invalid_arg "Multigraph.overlay: vertex_count below base";
  let ety = ref (edge_type_count base) in
  let multi = ref (multi_edge_count base) in
  let triples = ref (triple_edge_count base) in
  let start f entries =
    match prev with
    | None -> Vtbl.create (2 * List.length entries + 1)
    | Some o -> Vtbl.copy (f o)
  in
  (* Reject a vertex listed twice in one call; a vertex patched by an
     earlier layer is simply replaced. *)
  let once what =
    let seen = Hashtbl.create 16 in
    fun v ->
      if v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Multigraph.overlay: %s out of range" what);
      if Hashtbl.mem seen v then
        invalid_arg (Printf.sprintf "Multigraph.overlay: duplicate %s" what);
      Hashtbl.replace seen v ()
  in
  let mk_patch adj =
    validate_patch_adj ~n adj;
    Array.iter
      (fun (_, types) ->
        let top = types.(Array.length types - 1) in
        if top + 1 > !ety then ety := top + 1)
      adj;
    { padj = adj; pnbrs = Posting.raw (Array.map fst adj) }
  in
  let table f entries =
    let t = start f entries in
    let check = once "patched vertex" in
    List.iter
      (fun (v, adj) ->
        check v;
        Vtbl.replace t v (mk_patch adj))
      entries;
    t
  in
  let o_out = table (fun o -> o.o_out) out in
  let o_in = table (fun o -> o.o_in) in_ in
  (* Only the out side contributes to the counts (the in side mirrors
     it); replace each patched vertex's previous contribution with its
     new one. *)
  List.iter
    (fun (v, adj) ->
      let old_multi, old_triples = out_counts base v in
      let new_multi, new_triples = patch_counts adj in
      multi := !multi - old_multi + new_multi;
      triples := !triples - old_triples + new_triples)
    out;
  let o_attrs = start (fun o -> o.o_attrs) attrs in
  let check = once "attribute vertex" in
  List.iter
    (fun (v, a) ->
      check v;
      if not (Sorted_ints.is_sorted a) || (Array.length a > 0 && a.(0) < 0)
      then invalid_arg "Multigraph.overlay: attribute set not sorted";
      Vtbl.replace o_attrs v (Array.copy a))
    attrs;
  Overlay
    {
      base = b;
      o_vertex_count = n;
      o_edge_type_count = !ety;
      o_out;
      o_in;
      o_attrs;
      o_multi_edge_count = !multi;
      o_triple_edge_count = !triples;
    }

(* ------------------------------------------------------------------ *)
(* Freezing                                                            *)
(* ------------------------------------------------------------------ *)

type renumbering = {
  graph : t;
  vertices : int array;
  edge_types : int array;
  attributes : int array;
}

(* The kept old ids, indexed by new id, of a renumbering [map] (old ->
   new, -1 when dropped) onto [0, count). *)
let kept_of map count =
  let kept = Array.make count 0 in
  Array.iteri (fun old id -> if id >= 0 then kept.(id) <- old) map;
  kept

let freeze g =
  let n = vertex_count g in
  (* Number each kind in order of first appearance: the out-adjacency
     scanned in vertex order (source before target, types as met), then
     the attribute sets in vertex order, each from its largest id down. *)
  let numbering size =
    let map = Array.make size (-1) and count = ref 0 in
    let see x =
      if map.(x) < 0 then begin
        map.(x) <- !count;
        incr count
      end
    in
    (map, count, see)
  in
  let vmap, nv, see_vertex = numbering n in
  let emap, ne, see_type = numbering (edge_type_count g) in
  let top_attr = ref (-1) and m = ref 0 and t = ref 0 in
  (* Sorted: the last attribute is the largest. *)
  let note_top cells lo len =
    if len > 0 then top_attr := max !top_attr cells.(lo + len - 1)
  in
  for v = 0 to n - 1 do
    iter_out g v (fun w cells lo len ->
        see_vertex v;
        see_vertex w;
        incr m;
        t := !t + len;
        for k = lo to lo + len - 1 do
          see_type cells.(k)
        done);
    with_attributes g v note_top
  done;
  let amap, na, see_attr = numbering (!top_attr + 1) in
  let see_attrs cells lo len =
    for k = lo + len - 1 downto lo do
      see_attr cells.(k)
    done
  in
  for v = 0 to n - 1 do
    with_attributes g v (fun cells lo len ->
        if len > 0 then see_vertex v;
        see_attrs cells lo len)
  done;
  let nv = !nv in
  let vertices = kept_of vmap nv in
  (* The multi-edges under the new ids, in scan order, each type set
     mapped and re-sorted in place. The map is a bijection on what is
     kept, so a multi-edge stays one and its types stay distinct. *)
  let m = !m in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let toffs = Array.make (m + 1) 0 and tys = Array.make !t 0 in
  let e = ref 0 in
  for v = 0 to n - 1 do
    let v' = vmap.(v) in
    iter_out g v (fun w cells lo len ->
        let i = !e and start = toffs.(!e) in
        src.(i) <- v';
        dst.(i) <- vmap.(w);
        for k = 0 to len - 1 do
          tys.(start + k) <- emap.(cells.(lo + k))
        done;
        if len > 1 then ignore (sort_dedup_run tys start len);
        toffs.(i + 1) <- start + len;
        e := i + 1)
  done;
  (* Counting sorts on the target, then (stably) on the source, put the
     multi-edges in CSR order, as {!Builder.build} would. *)
  let order =
    counting_order ~range:nv src
      (counting_order ~range:nv dst (Array.init m Fun.id))
  in
  let c_offs = Array.make (nv + 1) 0 and c_nbrs = Array.make m 0 in
  let c_toffs = Array.make (m + 1) 0 and c_tys = Array.make !t 0 in
  for k = 0 to m - 1 do
    let e = order.(k) in
    let lo = toffs.(e) and at = c_toffs.(k) in
    let len = toffs.(e + 1) - lo in
    c_nbrs.(k) <- dst.(e);
    c_offs.(src.(e) + 1) <- c_offs.(src.(e) + 1) + 1;
    for j = 0 to len - 1 do
      c_tys.(at + j) <- tys.(lo + j)
    done;
    c_toffs.(k + 1) <- at + len
  done;
  for i = 0 to nv - 1 do
    c_offs.(i + 1) <- c_offs.(i + 1) + c_offs.(i)
  done;
  (* Attribute sets in new-vertex order, mapped and re-sorted. *)
  let c_aoffs = Array.make (nv + 1) 0 in
  for i = 0 to nv - 1 do
    c_aoffs.(i + 1) <-
      c_aoffs.(i) + with_attributes g vertices.(i) (fun _ _ len -> len)
  done;
  let c_apool = Array.make c_aoffs.(nv) 0 in
  for i = 0 to nv - 1 do
    with_attributes g vertices.(i) (fun cells lo len ->
        for k = 0 to len - 1 do
          c_apool.(c_aoffs.(i) + k) <- amap.(cells.(lo + k))
        done);
    ignore (sort_dedup_run c_apool c_aoffs.(i) (c_aoffs.(i + 1) - c_aoffs.(i)))
  done;
  {
    graph =
      Packed (pack { c_offs; c_nbrs; c_toffs; c_tys; c_aoffs; c_apool });
    vertices;
    edge_types = kept_of emap !ne;
    attributes = kept_of amap !na;
  }
