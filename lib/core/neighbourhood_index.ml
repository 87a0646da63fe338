(* Delta overlay: fully rebuilt prepared tries of every vertex the write
   store touched, keyed per direction; untouched vertices fall through
   to the frozen base arrays. *)
type patch = {
  p_in : (int, Otil.t) Hashtbl.t;
  p_out : (int, Otil.t) Hashtbl.t;
  p_empty : Otil.t;  (* shared trie for new vertices with no edges *)
  p_vertices : int;  (* overlay vertex count (>= base) *)
}

type t = {
  incoming : Otil.t array;  (* N+ : per vertex, multi-edges of in-neighbours *)
  outgoing : Otil.t array;  (* N− : per vertex, multi-edges of out-neighbours *)
  patch : patch option;
  mutable probes : int;  (* lifetime lookup count; racy under domains,
                            lost increments are acceptable *)
}

(* Build the tries of the vertex range [lo, hi) in one direction — the
   shardable unit of the parallel index construction. Each vertex's trie
   only reads that vertex's adjacency list, so disjoint ranges never
   share mutable state. Tries come back prepared (caches materialized)
   so queries are read-only and the index can serve several domains
   concurrently. *)
let vertex_trie ?(layout = Mgraph.Posting.Auto) g dir v =
  let trie = Otil.create () in
  Array.iter
    (fun (v', types) -> Otil.add trie types v')
    (Mgraph.Multigraph.adjacency g dir v);
  Otil.prepare ~policy:layout trie;
  trie

let build_range ?layout db dir ~lo ~hi =
  let g = Database.graph db in
  Array.init (hi - lo) (fun i -> vertex_trie ?layout g dir (lo + i))

let of_tries ~incoming ~outgoing =
  if Array.length incoming <> Array.length outgoing then
    invalid_arg "Neighbourhood_index.of_tries: direction length mismatch";
  { incoming; outgoing; patch = None; probes = 0 }

let build ?layout db =
  let n = Mgraph.Multigraph.vertex_count (Database.graph db) in
  of_tries
    ~incoming:(build_range ?layout db Mgraph.Multigraph.In ~lo:0 ~hi:n)
    ~outgoing:(build_range ?layout db Mgraph.Multigraph.Out ~lo:0 ~hi:n)

let export t =
  if t.patch <> None then invalid_arg "Neighbourhood_index.export: overlay index";
  (t.incoming, t.outgoing)

let vertex_count t =
  match t.patch with None -> Array.length t.incoming | Some p -> p.p_vertices

let overlay ~base ~graph ~touched_out ~touched_in () =
  let n = Mgraph.Multigraph.vertex_count graph in
  if n < vertex_count base then
    invalid_arg "Neighbourhood_index.overlay: graph smaller than base";
  (* Over a previous overlay, copy its tables (tries shared) and replace
     the touched entries; neither table is mutated. *)
  let table prev dir vs =
    let tbl =
      match base.patch with
      | None -> Hashtbl.create (2 * List.length vs + 1)
      | Some p -> Hashtbl.copy (prev p)
    in
    List.iter
      (fun v ->
        if v < 0 || v >= n then
          invalid_arg "Neighbourhood_index.overlay: vertex out of range";
        (* Overlay tries wrap small short-lived patches: Raw postings. *)
        Hashtbl.replace tbl v (vertex_trie ~layout:Mgraph.Posting.(Force Raw) graph dir v))
      vs;
    tbl
  in
  let p_empty =
    match base.patch with
    | Some p -> p.p_empty
    | None ->
        let e = Otil.create () in
        Otil.prepare e;
        e
  in
  {
    incoming = base.incoming;
    outgoing = base.outgoing;
    patch =
      Some
        {
          p_in = table (fun p -> p.p_in) Mgraph.Multigraph.In touched_in;
          p_out = table (fun p -> p.p_out) Mgraph.Multigraph.Out touched_out;
          p_empty;
          p_vertices = n;
        };
    probes = 0;
  }

let trie_of t v dir =
  match t.patch with
  | None -> (
      match dir with
      | Mgraph.Multigraph.Out -> t.outgoing.(v)
      | Mgraph.Multigraph.In -> t.incoming.(v))
  | Some p -> (
      let tbl =
        match dir with
        | Mgraph.Multigraph.Out -> p.p_out
        | Mgraph.Multigraph.In -> p.p_in
      in
      match Hashtbl.find_opt tbl v with
      | Some trie -> trie
      | None ->
          if v < Array.length t.incoming then
            match dir with
            | Mgraph.Multigraph.Out -> t.outgoing.(v)
            | Mgraph.Multigraph.In -> t.incoming.(v)
          else p.p_empty)

let neighbours t v dir types =
  if Array.length types = 0 then
    invalid_arg "Neighbourhood_index.neighbours: empty edge type set";
  t.probes <- t.probes + 1;
  let trie = trie_of t v dir in
  if Array.length types = 1 then Otil.with_symbol trie types.(0)
  else Otil.supersets trie types

let probes t = t.probes

let posting_stats t =
  let s = Mgraph.Posting.fresh_stats () in
  (match t.patch with
  | None ->
      Array.iter (fun trie -> Otil.posting_stats trie s) t.incoming;
      Array.iter (fun trie -> Otil.posting_stats trie s) t.outgoing
  | Some p ->
      for v = 0 to p.p_vertices - 1 do
        Otil.posting_stats (trie_of t v Mgraph.Multigraph.In) s;
        Otil.posting_stats (trie_of t v Mgraph.Multigraph.Out) s
      done);
  s
