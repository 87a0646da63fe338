(* Delta overlay: merged synopses of the vertices the write store
   touched; everything else answers from the frozen base. *)
type patch = {
  s_touched : (int, Mgraph.Synopsis.t) Hashtbl.t;
  s_graph : Mgraph.Multigraph.t;  (* overlay graph, for fallback lookups *)
  s_vertices : int;  (* overlay vertex count (>= base) *)
  s_upper : int array;  (* base upper ⊔ touched synopses *)
}

type t = {
  synopses : Mgraph.Synopsis.t array;  (* per data vertex *)
  lower : int array;  (* componentwise minimum over all synopses *)
  upper : int array;  (* componentwise maximum over all synopses *)
  tree : int Rtree.t;
  patch : patch option;
}

(* The R-tree encodes the dominance test [∀i. q_i ≤ d_i] as rectangle
   containment: every data synopsis [d] is stored as the box
   [lower .. d] where [lower] is the per-dimension minimum over the
   dataset, and a query synopsis [q] probes with the point box
   [q' .. q'] where [q'_i = max(q_i, lower_i)]. Clamping is sound: when
   [q_i < lower_i] every data vertex already satisfies the inequality on
   dimension [i]. *)

let synopses_range db ~lo ~hi =
  let g = Database.graph db in
  Array.init (hi - lo) (fun i -> Mgraph.Synopsis.of_vertex g (lo + i))

let lower_of synopses =
  let lower = Array.make Mgraph.Synopsis.dims 0 in
  Array.iter
    (fun syn ->
      for i = 0 to Mgraph.Synopsis.dims - 1 do
        if syn.(i) < lower.(i) then lower.(i) <- syn.(i)
      done)
    synopses;
  lower

(* Componentwise maximum, floored at the empty-side sentinel so an
   all-empty dataset still compares correctly against query synopses. *)
let upper_of synopses =
  let upper = Array.make Mgraph.Synopsis.dims Mgraph.Synopsis.f3_empty in
  Array.iter
    (fun syn ->
      for i = 0 to Mgraph.Synopsis.dims - 1 do
        if syn.(i) > upper.(i) then upper.(i) <- syn.(i)
      done)
    synopses;
  upper

let of_synopses ?(max_entries = 16) synopses =
  let n = Array.length synopses in
  let lower = lower_of synopses in
  let tree =
    Rtree.bulk_load ~max_entries
      (List.init n (fun v -> (Rect.make ~lo:lower ~hi:synopses.(v), v)))
  in
  { synopses; lower; upper = upper_of synopses; tree; patch = None }

let build ?max_entries db =
  let g = Database.graph db in
  let n = Mgraph.Multigraph.vertex_count g in
  of_synopses ?max_entries (synopses_range db ~lo:0 ~hi:n)

let export t =
  if t.patch <> None then invalid_arg "Synopsis_index.export: overlay index";
  (t.synopses, t.tree)

let import ~synopses ~tree =
  Array.iter
    (fun syn ->
      if Array.length syn <> Mgraph.Synopsis.dims then
        invalid_arg "Synopsis_index.import: bad synopsis dimensionality")
    synopses;
  if Rtree.size tree <> Array.length synopses then
    invalid_arg "Synopsis_index.import: tree size / synopsis count mismatch";
  {
    synopses;
    lower = lower_of synopses;
    upper = upper_of synopses;
    tree;
    patch = None;
  }

let overlay ~base ~graph ~touched () =
  let n = Mgraph.Multigraph.vertex_count graph in
  (* Over a previous overlay, start from its merged state: its table is
     copied (synopses shared) and its maxima carried forward. *)
  let tbl, upper, prev_n =
    match base.patch with
    | None ->
        ( Hashtbl.create (2 * List.length touched + 1),
          Array.copy base.upper,
          Array.length base.synopses )
    | Some p -> (Hashtbl.copy p.s_touched, Array.copy p.s_upper, p.s_vertices)
  in
  if n < prev_n then invalid_arg "Synopsis_index.overlay: graph smaller than base";
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg "Synopsis_index.overlay: vertex out of range";
      let syn = Mgraph.Synopsis.of_vertex graph v in
      for i = 0 to Mgraph.Synopsis.dims - 1 do
        if syn.(i) > upper.(i) then upper.(i) <- syn.(i)
      done;
      Hashtbl.replace tbl v syn)
    touched;
  {
    base with
    patch = Some { s_touched = tbl; s_graph = graph; s_vertices = n; s_upper = upper };
  }

let effective_synopsis t v =
  match t.patch with
  | None -> t.synopses.(v)
  | Some p -> (
      match Hashtbl.find_opt p.s_touched v with
      | Some syn -> syn
      | None ->
          if v < Array.length t.synopses then t.synopses.(v)
          else Mgraph.Synopsis.of_vertex p.s_graph v)

let candidates t query =
  let clamped =
    Array.init Mgraph.Synopsis.dims (fun i -> max query.(i) t.lower.(i))
  in
  let box = Rect.make ~lo:clamped ~hi:clamped in
  let vs = Rtree.fold_containing box (fun v acc -> v :: acc) t.tree [] in
  let base = Mgraph.Sorted_ints.of_list vs in
  match t.patch with
  | None -> base
  | Some p ->
      (* The tree only knows base synopses: drop every touched vertex
         from its answer, then re-admit the touched ones whose merged
         synopsis still dominates the query. *)
      let kept =
        Array.of_list
          (List.filter
             (fun v -> not (Hashtbl.mem p.s_touched v))
             (Array.to_list base))
      in
      let extra = ref [] in
      Hashtbl.iter
        (fun v syn ->
          if Mgraph.Synopsis.dominates ~data:syn ~query then
            extra := v :: !extra)
        p.s_touched;
      Mgraph.Sorted_ints.union kept (Mgraph.Sorted_ints.of_list !extra)

let candidates_of_signature t s = candidates t (Mgraph.Synopsis.of_signature s)

let vertex_synopsis t v = effective_synopsis t v

let maxima t =
  match t.patch with
  | None -> Array.copy t.upper
  | Some p -> Array.copy p.s_upper
