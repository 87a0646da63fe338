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
   are small and short-lived; compaction re-freezes under the layout
   policy). *)
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

module Int_pair = struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = Hashtbl.hash (a, b)
end

module Pair_tbl = Hashtbl.Make (Int_pair)

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

let pack_half ~policy adj =
  let n = Array.length adj in
  let voffs = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    voffs.(v + 1) <- voffs.(v) + Array.length adj.(v)
  done;
  let m = voffs.(n) in
  let ty_pool = Array.make m 0 in
  let over_len = ref 0 in
  let over_cells = ref [] in
  let nbrs =
    Array.mapi
      (fun v edges ->
        let base = voffs.(v) in
        Array.iteri
          (fun i (_, types) ->
            if Array.length types = 1 then ty_pool.(base + i) <- types.(0)
            else begin
              ty_pool.(base + i) <- -(!over_len + 1);
              over_cells := types :: !over_cells;
              over_len := !over_len + 1 + Array.length types
            end)
          edges;
        if Array.length edges = 0 then Posting.empty
        else Posting.of_array ~policy (Array.map fst edges))
      adj
  in
  let over_pool = Array.make !over_len 0 in
  let pos = ref !over_len in
  (* Cells were collected in reverse edge order; writing back-to-front
     restores pool offsets matching the [-(off+1)] cells. *)
  List.iter
    (fun types ->
      let k = Array.length types in
      pos := !pos - (1 + k);
      over_pool.(!pos) <- k;
      Array.blit types 0 over_pool (!pos + 1) k)
    !over_cells;
  { nbrs; voffs; ty_pool; over_pool }

let types_at h e =
  let c = h.ty_pool.(e) in
  if c >= 0 then [| c |]
  else
    let off = -c - 1 in
    Array.sub h.over_pool (off + 1) h.over_pool.(off)

(* Pack from the tuple form (out-adjacency + per-vertex attributes);
   the in-adjacency and counts are derived. Inputs are assumed valid —
   [Builder.build] constructs them, [import] validates first. *)
let pack ~policy ~edge_type_count ~multi_edge_count ~triple_edge_count out_adj
    attrs =
  let n = Array.length out_adj in
  let in_degree = Array.make n 0 in
  Array.iter
    (Array.iter (fun (v', _) -> in_degree.(v') <- in_degree.(v') + 1))
    out_adj;
  (* Scanning sources in increasing order keeps every per-target list
     sorted without re-sorting. *)
  let in_adj = Array.init n (fun v -> Array.make in_degree.(v) (0, [||])) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun v adj ->
      Array.iter
        (fun (v', types) ->
          in_adj.(v').(fill.(v')) <- (v, types);
          fill.(v') <- fill.(v') + 1)
        adj)
    out_adj;
  let aoffs = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    aoffs.(v + 1) <- aoffs.(v) + Array.length attrs.(v)
  done;
  let apool = Array.make aoffs.(n) 0 in
  Array.iteri (fun v a -> Array.blit a 0 apool aoffs.(v) (Array.length a)) attrs;
  {
    vertex_count = n;
    edge_type_count;
    out_h = pack_half ~policy out_adj;
    in_h = pack_half ~policy in_adj;
    aoffs;
    apool;
    multi_edge_count;
    triple_edge_count;
  }

module Builder = struct
  type t = {
    edges : int list Pair_tbl.t;  (* (v, v') -> reversed type list *)
    vertex_attrs : (int, int list) Hashtbl.t;
    mutable max_vertex : int;  (* -1 when no vertex yet *)
  }

  let create ?(vertex_hint = 256) () =
    {
      edges = Pair_tbl.create (4 * vertex_hint);
      vertex_attrs = Hashtbl.create vertex_hint;
      max_vertex = -1;
    }

  let add_vertex b v =
    if v < 0 then invalid_arg "Builder.add_vertex: negative vertex id";
    if v > b.max_vertex then b.max_vertex <- v

  let add_edge b v ty v' =
    if ty < 0 then invalid_arg "Builder.add_edge: negative edge type";
    add_vertex b v;
    add_vertex b v';
    let key = (v, v') in
    let existing = try Pair_tbl.find b.edges key with Not_found -> [] in
    if not (List.mem ty existing) then
      Pair_tbl.replace b.edges key (ty :: existing)

  let add_attribute b v attr =
    if attr < 0 then invalid_arg "Builder.add_attribute: negative attribute";
    add_vertex b v;
    let existing = try Hashtbl.find b.vertex_attrs v with Not_found -> [] in
    if not (List.mem attr existing) then
      Hashtbl.replace b.vertex_attrs v (attr :: existing)

  let build ?(layout = Posting.Auto) b =
    let n = b.max_vertex + 1 in
    let out_lists = Array.make n [] in
    let edge_type_count = ref 0 in
    let multi_edge_count = ref 0 in
    let triple_edge_count = ref 0 in
    Pair_tbl.iter
      (fun (v, v') tys ->
        let types = Sorted_ints.of_list tys in
        incr multi_edge_count;
        triple_edge_count := !triple_edge_count + Array.length types;
        Array.iter
          (fun ty -> if ty + 1 > !edge_type_count then edge_type_count := ty + 1)
          types;
        out_lists.(v) <- (v', types) :: out_lists.(v))
      b.edges;
    let sort_adj lst =
      let a = Array.of_list lst in
      Array.sort (fun (x, _) (y, _) -> Int.compare x y) a;
      a
    in
    let attrs =
      Array.init n (fun v ->
          match Hashtbl.find_opt b.vertex_attrs v with
          | None -> [||]
          | Some l -> Sorted_ints.of_list l)
    in
    Packed
      (pack ~policy:layout ~edge_type_count:!edge_type_count
         ~multi_edge_count:!multi_edge_count
         ~triple_edge_count:!triple_edge_count
         (Array.map sort_adj out_lists)
         attrs)
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

let fold_edges f g init =
  let acc = ref init in
  (match g with
  | Packed g ->
      let h = g.out_h in
      for v = 0 to g.vertex_count - 1 do
        let base = h.voffs.(v) in
        Posting.iteri
          (fun i v' -> acc := f v (types_at h (base + i)) v' !acc)
          h.nbrs.(v)
      done
  | Overlay o ->
      let h = o.base.out_h in
      for v = 0 to o.o_vertex_count - 1 do
        match Vtbl.find_opt o.o_out v with
        | Some p ->
            Array.iter (fun (v', tys) -> acc := f v tys v' !acc) p.padj
        | None ->
            if v < o.base.vertex_count then begin
              let base = h.voffs.(v) in
              Posting.iteri
                (fun i v' -> acc := f v (types_at h (base + i)) v' !acc)
                h.nbrs.(v)
            end
      done);
  !acc

(* The out-adjacency (plus per-vertex attributes) determines the whole
   structure: counts and the in-adjacency are derived. [import] rebuilds
   them exactly as [Builder.build] would, so a round-trip through
   [export]/[import] is structurally identical to the original. *)
let export g =
  let n = vertex_count g in
  ( Array.init n (fun v -> adjacency g Out v),
    Array.init n (fun v -> attributes g v) )

let import ?(layout = Posting.Auto) ~out_adj ~attrs () =
  let n = Array.length out_adj in
  if Array.length attrs <> n then
    invalid_arg "Multigraph.import: attrs/adjacency length mismatch";
  let edge_type_count = ref 0 in
  let multi_edge_count = ref 0 in
  let triple_edge_count = ref 0 in
  Array.iter
    (fun adj ->
      let last = ref (-1) in
      Array.iter
        (fun (v', types) ->
          if v' < 0 || v' >= n then
            invalid_arg
              (Printf.sprintf "Multigraph.import: neighbour %d out of range" v');
          if v' <= !last then
            invalid_arg "Multigraph.import: adjacency not sorted by neighbour";
          last := v';
          if Array.length types = 0 then
            invalid_arg "Multigraph.import: empty multi-edge";
          if not (Sorted_ints.is_sorted types) || types.(0) < 0 then
            invalid_arg "Multigraph.import: multi-edge types not sorted";
          incr multi_edge_count;
          triple_edge_count := !triple_edge_count + Array.length types;
          let top = types.(Array.length types - 1) in
          if top + 1 > !edge_type_count then edge_type_count := top + 1)
        adj)
    out_adj;
  Array.iter
    (fun a ->
      if not (Sorted_ints.is_sorted a) || (Array.length a > 0 && a.(0) < 0) then
        invalid_arg "Multigraph.import: attribute set not sorted")
    attrs;
  Packed
    (pack ~policy:layout ~edge_type_count:!edge_type_count
       ~multi_edge_count:!multi_edge_count
       ~triple_edge_count:!triple_edge_count out_adj attrs)

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
