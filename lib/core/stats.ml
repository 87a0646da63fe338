(* Index statistics and the cost model of the adaptive planner.

   Everything here is a pure, deterministic function of the frozen
   indexes: the same database always yields byte-identical statistics,
   which the snapshot codec relies on (parallel and sequential builds
   must serialize identically). *)

type t = {
  vertices : int;
  triples : int;
  attr_lengths : int array;
  type_out_vertices : int array;
  type_in_vertices : int array;
  type_out_edges : int array;
  type_in_edges : int array;
  deg_hist_out : int array array;
  deg_hist_in : int array array;
  distinct_signatures : int;
  maxima : int array;
}

let hist_buckets = 16

let bucket_of_degree d =
  (* log2 buckets: 0 -> [1], 1 -> [2,3], 2 -> [4,7], ... capped. *)
  let rec go b v = if v <= 1 || b = hist_buckets - 1 then b else go (b + 1) (v / 2) in
  go 0 d

let compute db attribute synopsis =
  let g = Database.graph db in
  let n = Mgraph.Multigraph.vertex_count g in
  let nt = Mgraph.Multigraph.edge_type_count g in
  let attr_lengths =
    Array.init (Database.attribute_count db) (fun a ->
        Mgraph.Posting.length (Attribute_index.vertices_with attribute a))
  in
  let type_out_vertices = Array.make nt 0 in
  let type_in_vertices = Array.make nt 0 in
  let type_out_edges = Array.make nt 0 in
  let type_in_edges = Array.make nt 0 in
  let deg_hist_out = Array.init nt (fun _ -> Array.make hist_buckets 0) in
  let deg_hist_in = Array.init nt (fun _ -> Array.make hist_buckets 0) in
  (* Per-vertex per-type degree counts via a generation-marked scratch
     array: O(E) overall, reading the type sets in place, with nothing
     allocated per vertex or edge. [seen] lists the types the current
     vertex has, to bucket their counts once it is done. *)
  let mark = Array.make nt (-1) in
  let cnt = Array.make nt 0 in
  let seen = Array.make nt 0 and nseen = ref 0 and current = ref (-1) in
  let scan dir vertices_with_type edge_totals hist =
    let count cells lo len =
      for k = lo to lo + len - 1 do
        let ty = cells.(k) in
        edge_totals.(ty) <- edge_totals.(ty) + 1;
        if mark.(ty) <> !current then begin
          mark.(ty) <- !current;
          cnt.(ty) <- 1;
          vertices_with_type.(ty) <- vertices_with_type.(ty) + 1;
          seen.(!nseen) <- ty;
          incr nseen
        end
        else cnt.(ty) <- cnt.(ty) + 1
      done
    in
    for v = 0 to n - 1 do
      current := v;
      nseen := 0;
      Mgraph.Multigraph.iter_type_sets g dir v count;
      for i = 0 to !nseen - 1 do
        let ty = seen.(i) in
        let b = bucket_of_degree cnt.(ty) in
        hist.(ty).(b) <- hist.(ty).(b) + 1
      done
    done;
    Array.fill mark 0 nt (-1)
  in
  scan Mgraph.Multigraph.Out type_out_vertices type_out_edges deg_hist_out;
  scan Mgraph.Multigraph.In type_in_vertices type_in_edges deg_hist_in;
  {
    vertices = n;
    triples = Database.triple_count db;
    attr_lengths;
    type_out_vertices;
    type_in_vertices;
    type_out_edges;
    type_in_edges;
    deg_hist_out;
    deg_hist_in;
    distinct_signatures = Synopsis_index.distinct_count synopsis;
    maxima = Synopsis_index.maxima synopsis;
  }

(* --- cardinality estimation ----------------------------------------- *)

let vertices_with_type st dir ty =
  if ty < 0 then st.vertices
  else
    match dir with
    | Mgraph.Multigraph.Out ->
        if ty < Array.length st.type_out_vertices then st.type_out_vertices.(ty)
        else 0
    | Mgraph.Multigraph.In ->
        if ty < Array.length st.type_in_vertices then st.type_in_vertices.(ty)
        else 0

(* Average number of neighbours reached over one edge type in one
   direction — the per-edge-type degree statistic used to estimate how
   many candidates an IRI constraint's neighbourhood probe yields. *)
let avg_degree st dir ty =
  let totals, verts =
    match dir with
    | Mgraph.Multigraph.Out -> (st.type_out_edges, st.type_out_vertices)
    | Mgraph.Multigraph.In -> (st.type_in_edges, st.type_in_vertices)
  in
  if ty < 0 || ty >= Array.length totals || verts.(ty) = 0 then 1
  else (totals.(ty) + verts.(ty) - 1) / verts.(ty)

let attr_estimate st (q : Query_graph.t) u =
  let attrs = q.attrs.(u) in
  if Array.length attrs = 0 then None
  else
    Some
      (Array.fold_left
         (fun acc a ->
           let len =
             if a >= 0 && a < Array.length st.attr_lengths then
               st.attr_lengths.(a)
             else 0
           in
           min acc len)
         max_int attrs)

let structural_estimate st (q : Query_graph.t) u =
  let best = ref st.vertices in
  let consider dir types =
    Array.iter (fun ty -> best := min !best (vertices_with_type st dir ty)) types
  in
  if u < Mgraph.Multigraph.vertex_count q.graph then begin
    (* A query edge u -> x constrains candidates to data vertices with
       an out-edge of that type; u <- x to an in-edge. *)
    Array.iter
      (fun (_, types) -> consider Mgraph.Multigraph.Out types)
      (Mgraph.Multigraph.adjacency q.graph Mgraph.Multigraph.Out u);
    Array.iter
      (fun (_, types) -> consider Mgraph.Multigraph.In types)
      (Mgraph.Multigraph.adjacency q.graph Mgraph.Multigraph.In u)
  end;
  List.iter
    (fun (c : Query_graph.iri_constraint) -> consider c.dir c.types)
    q.iris.(u);
  Array.iter
    (fun ty ->
      consider Mgraph.Multigraph.Out [| ty |];
      consider Mgraph.Multigraph.In [| ty |])
    q.self_loops.(u);
  !best

(* Estimated candidates an IRI constraint contributes: the average
   fan-out of its edge type seen from the fixed data vertex. *)
let iri_estimate st (q : Query_graph.t) u =
  List.fold_left
    (fun acc (c : Query_graph.iri_constraint) ->
      let probe_dir =
        (* the probe runs from the data vertex towards the candidates,
           i.e. in the opposite orientation of the query edge *)
        match c.dir with
        | Mgraph.Multigraph.Out -> Mgraph.Multigraph.In
        | Mgraph.Multigraph.In -> Mgraph.Multigraph.Out
      in
      let e =
        Array.fold_left
          (fun acc ty -> min acc (avg_degree st probe_dir ty))
          max_int c.types
      in
      min acc e)
    max_int q.iris.(u)

let estimate_vertex st (q : Query_graph.t) u =
  let est = structural_estimate st q u in
  let est = match attr_estimate st q u with Some a -> min est a | None -> est in
  let est = min est (iri_estimate st q u) in
  max 0 (min est st.vertices)

(* --- plan modes and per-vertex strategy selection ------------------- *)

type strategy = Attrs | Scan

type mode = Paper | Adaptive | Forced of strategy

let strategy_slug = function Attrs -> "attrs" | Scan -> "scan"

let strategy_of_slug = function
  | "attrs" -> Some Attrs
  | "scan" -> Some Scan
  | _ -> None

let mode_to_string = function
  | Paper -> "paper"
  | Adaptive -> "adaptive"
  | Forced s -> "forced:" ^ strategy_slug s

let mode_of_string s =
  match s with
  | "paper" -> Some Paper
  | "adaptive" -> Some Adaptive
  | _ ->
      if String.length s > 7 && String.sub s 0 7 = "forced:" then
        Option.map
          (fun st -> Forced st)
          (strategy_of_slug (String.sub s 7 (String.length s - 7)))
      else None

type choice = {
  strategy : strategy;
  fallback : bool;
  cost_attrs : int option;
  cost_scan : int;
  est_candidates : int;
}

(* The constants encode relative probe overheads, not absolute times: a
   scan is one dominance test per data vertex, and the attribute path
   pays the inverted-list intersection plus a dominance test per
   survivor. *)
let attr_probe_base = 16

let has_vertex_info (q : Query_graph.t) u =
  Array.length q.attrs.(u) > 0 || q.iris.(u) <> []

let choose st (q : Query_graph.t) u =
  let est = estimate_vertex st q u in
  let cost_scan = st.vertices in
  let cost_attrs =
    if has_vertex_info q u then begin
      let est_info =
        let a = match attr_estimate st q u with Some a -> a | None -> max_int in
        min a (iri_estimate st q u)
      in
      let est_info = min est_info st.vertices in
      Some (attr_probe_base + (2 * est_info))
    end
    else None
  in
  let strategy =
    match cost_attrs with Some ca when ca <= cost_scan -> Attrs | _ -> Scan
  in
  { strategy; fallback = false; cost_attrs; cost_scan; est_candidates = est }

let choice_for st (q : Query_graph.t) u = function
  | Paper -> { (choose st q u) with strategy = Scan }
  | Adaptive -> choose st q u
  | Forced s ->
      let c = choose st q u in
      if s = Attrs && not (has_vertex_info q u) then
        (* nothing to intersect: honour the spirit, fall back to the
           synopsis scan and say so *)
        { c with strategy = Scan; fallback = true }
      else { c with strategy = s }

(* --- report threading (profile, flight recorder) -------------------- *)

type seed_report = {
  variable : string;
  vertex : int;
  choice : choice;
  actual : int;
}

(* --- snapshot codec -------------------------------------------------- *)

(* Varint-encoded ({!Rdf.Binary.Varint}: LEB128, zigzag for the
   signed maxima) int streams; every field in order. Deterministic by
   construction. *)

module V = Rdf.Binary.Varint

let put_array buf a =
  V.write buf (Array.length a);
  Array.iter (fun v -> V.write buf v) a

let encode st =
  let buf = Buffer.create 4096 in
  V.write buf st.vertices;
  V.write buf st.triples;
  put_array buf st.attr_lengths;
  put_array buf st.type_out_vertices;
  put_array buf st.type_in_vertices;
  put_array buf st.type_out_edges;
  put_array buf st.type_in_edges;
  V.write buf (Array.length st.deg_hist_out);
  Array.iter (fun h -> put_array buf h) st.deg_hist_out;
  V.write buf (Array.length st.deg_hist_in);
  Array.iter (fun h -> put_array buf h) st.deg_hist_in;
  V.write buf st.distinct_signatures;
  V.write buf (Array.length st.maxima);
  Array.iter (fun v -> V.write_signed buf v) st.maxima;
  Buffer.contents buf

let decode s =
  let pos = ref 0 in
  let len = String.length s in
  let corrupt msg = raise (Rdf.Binary.Corrupt ("stats: " ^ msg)) in
  let get_int () = V.read s pos in
  (* Every count is checked against the input length before it sizes
     an allocation. *)
  let get_count what =
    let n = get_int () in
    if n > len then corrupt ("bad " ^ what);
    n
  in
  let get_array () = Array.init (get_count "array length") (fun _ -> get_int ()) in
  let vertices = get_int () in
  let triples = get_int () in
  let attr_lengths = get_array () in
  let type_out_vertices = get_array () in
  let type_in_vertices = get_array () in
  let type_out_edges = get_array () in
  let type_in_edges = get_array () in
  let deg_hist_out =
    Array.init (get_count "histogram count") (fun _ -> get_array ())
  in
  let deg_hist_in =
    Array.init (get_count "histogram count") (fun _ -> get_array ())
  in
  let distinct_signatures = get_int () in
  let maxima =
    Array.init (get_count "maxima length") (fun _ -> V.read_signed s pos)
  in
  if !pos <> len then corrupt "trailing bytes";
  {
    vertices;
    triples;
    attr_lengths;
    type_out_vertices;
    type_in_vertices;
    type_out_edges;
    type_in_edges;
    deg_hist_out;
    deg_hist_in;
    distinct_signatures;
    maxima;
  }
