type stats = {
  mutable index_probes : int;
  mutable synopsis_probes : int;
  mutable attribute_probes : int;
  mutable attribute_cache_hits : int;
  mutable attribute_cache_misses : int;
  mutable synopsis_cache_hits : int;
  mutable synopsis_cache_misses : int;
  mutable probe_cache_hits : int;
  mutable probe_cache_misses : int;
  mutable candidates_scanned : int;
  mutable satellite_rejections : int;
  mutable solutions : int;
}

let fresh_stats () =
  {
    index_probes = 0;
    synopsis_probes = 0;
    attribute_probes = 0;
    attribute_cache_hits = 0;
    attribute_cache_misses = 0;
    synopsis_cache_hits = 0;
    synopsis_cache_misses = 0;
    probe_cache_hits = 0;
    probe_cache_misses = 0;
    candidates_scanned = 0;
    satellite_rejections = 0;
    solutions = 0;
  }

(* Field-wise sum — commutative, so merging per-domain stats in any
   order yields the same aggregate. *)
let merge_into ~into s =
  into.index_probes <- into.index_probes + s.index_probes;
  into.synopsis_probes <- into.synopsis_probes + s.synopsis_probes;
  into.attribute_probes <- into.attribute_probes + s.attribute_probes;
  into.attribute_cache_hits <- into.attribute_cache_hits + s.attribute_cache_hits;
  into.attribute_cache_misses <- into.attribute_cache_misses + s.attribute_cache_misses;
  into.synopsis_cache_hits <- into.synopsis_cache_hits + s.synopsis_cache_hits;
  into.synopsis_cache_misses <- into.synopsis_cache_misses + s.synopsis_cache_misses;
  into.probe_cache_hits <- into.probe_cache_hits + s.probe_cache_hits;
  into.probe_cache_misses <- into.probe_cache_misses + s.probe_cache_misses;
  into.candidates_scanned <- into.candidates_scanned + s.candidates_scanned;
  into.satellite_rejections <- into.satellite_rejections + s.satellite_rejections;
  into.solutions <- into.solutions + s.solutions

(* Cross-query caches owned by the engine: candidate sets from the
   attribute index (keyed by the query vertex's attribute set) and from
   the synopsis index (keyed by the query synopsis vector). Shared by
   every context built from one engine — including parallel domains —
   so access is serialized by [lock]. *)
type shared = {
  attr_cache : Mgraph.Posting.t Lru.t;
  syn_cache : int array Lru.t;
  lock : Mutex.t;
}

let make_shared ?(cap = 256) () =
  {
    attr_cache = Lru.create ~cap;
    syn_cache = Lru.create ~cap;
    lock = Mutex.create ();
  }

let shared_counters s =
  Mutex.lock s.lock;
  let r =
    ( (Lru.hits s.attr_cache, Lru.misses s.attr_cache),
      (Lru.hits s.syn_cache, Lru.misses s.syn_cache) )
  in
  Mutex.unlock s.lock;
  r

type ctx = {
  db : Database.t;
  attribute : Attribute_index.t;
  synopsis : Synopsis_index.t;
  neighbourhood : Neighbourhood_index.t;
  deadline : Deadline.t;
  stats : stats;
  probe_cache : Probe_cache.t option;  (* query-scoped; [None] disables *)
  shared : shared option;  (* engine-scoped; [None] disables *)
  plan : Stats.mode;  (* seed-strategy selection policy *)
  model : Stats.t option;  (* cost model; [None] = paper behaviour *)
}

let make_ctx ?probe_cache ?shared ?(plan = Stats.Paper) ?model ~db ~attribute
    ~synopsis ~neighbourhood ~deadline ~stats () =
  { db; attribute; synopsis; neighbourhood; deadline; stats; probe_cache;
    shared; plan; model }

type solution = {
  core : (int * int) list;
  sats : (int * int array) list;
}

exception Stop

(* Candidates adjacent to the already-matched data vertex [v], seen from
   query vertex [u]'s perspective: [dir = Out] means the query edge
   leaves [u], so candidates must have an edge towards [v]. Memoized per
   query: hub vertices re-issue the same probe for every enumerated
   candidate. *)
let adjacent_candidates ctx v (dir, types) =
  let probe =
    match dir with
    | Mgraph.Multigraph.Out -> Mgraph.Multigraph.In
    | Mgraph.Multigraph.In -> Mgraph.Multigraph.Out
  in
  match ctx.probe_cache with
  | None ->
      ctx.stats.index_probes <- ctx.stats.index_probes + 1;
      Neighbourhood_index.neighbours ctx.neighbourhood v probe types
  | Some cache -> (
      match Probe_cache.find_probe cache v probe types with
      | Some r ->
          ctx.stats.probe_cache_hits <- ctx.stats.probe_cache_hits + 1;
          r
      | None ->
          ctx.stats.probe_cache_misses <- ctx.stats.probe_cache_misses + 1;
          ctx.stats.index_probes <- ctx.stats.index_probes + 1;
          let r = Neighbourhood_index.neighbours ctx.neighbourhood v probe types in
          Probe_cache.add_probe cache v probe types r;
          r)

let inter_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Mgraph.Posting.inter a b)

(* [probe ()] through one of the engine's cross-query LRUs ([cache]
   picks it), keyed by [key]. [hit] / [miss] count the outcome in the
   query's stats, from which the engine's cache metrics are summed. *)
let through_lru ctx cache key ~hit ~miss probe =
  match ctx.shared with
  | None -> probe ()
  | Some s -> (
      let lru = cache s in
      Mutex.lock s.lock;
      let found = Lru.find lru key in
      Mutex.unlock s.lock;
      match found with
      | Some r ->
          hit ctx.stats;
          r
      | None ->
          miss ctx.stats;
          let r = probe () in
          Mutex.lock s.lock;
          Lru.add lru key r;
          Mutex.unlock s.lock;
          r)

let attribute_candidates ctx attrs =
  through_lru ctx (fun s -> s.attr_cache) attrs
    ~hit:(fun st -> st.attribute_cache_hits <- st.attribute_cache_hits + 1)
    ~miss:(fun st -> st.attribute_cache_misses <- st.attribute_cache_misses + 1)
    (fun () ->
      ctx.stats.attribute_probes <- ctx.stats.attribute_probes + 1;
      Attribute_index.candidates ctx.attribute attrs)

(* Synopsis candidates — the dominance scan over index [S] — through
   the cross-query LRU, keyed by the query synopsis vector. *)
let synopsis_candidates ctx q u =
  let syn = Mgraph.Synopsis.of_signature (Query_graph.signature q u) in
  through_lru ctx (fun s -> s.syn_cache) syn
    ~hit:(fun st -> st.synopsis_cache_hits <- st.synopsis_cache_hits + 1)
    ~miss:(fun st -> st.synopsis_cache_misses <- st.synopsis_cache_misses + 1)
    (fun () ->
      ctx.stats.synopsis_probes <- ctx.stats.synopsis_probes + 1;
      Synopsis_index.candidates ctx.synopsis syn)

(* Algorithm 1, uncached: candidates implied by the vertex's attributes
   and IRI constraints. *)
let process_vertex_raw ctx (q : Query_graph.t) u =
  let from_attrs =
    if Array.length q.attrs.(u) > 0 then
      Some (attribute_candidates ctx q.attrs.(u))
    else None
  in
  let from_iris =
    List.fold_left
      (fun acc (c : Query_graph.iri_constraint) ->
        inter_opt acc
          (Some (adjacent_candidates ctx c.data_vertex (c.dir, c.types))))
      None q.iris.(u)
  in
  inter_opt from_attrs from_iris

(* The result depends only on the query vertex, yet the satellite loop
   recomputes it for every enumerated candidate of the anchor — memoize
   per query. *)
let process_vertex ctx (q : Query_graph.t) u =
  match ctx.probe_cache with
  | None -> process_vertex_raw ctx q u
  | Some cache -> (
      match Probe_cache.find_vertex cache u with
      | Some r ->
          ctx.stats.probe_cache_hits <- ctx.stats.probe_cache_hits + 1;
          r
      | None ->
          ctx.stats.probe_cache_misses <- ctx.stats.probe_cache_misses + 1;
          let r = process_vertex_raw ctx q u in
          Probe_cache.add_vertex cache u r;
          r)

(* Self-loop filter: the candidate must carry a data loop with all the
   query loop's types. *)
let satisfies_self_loop ctx (q : Query_graph.t) u v =
  let loop = q.self_loops.(u) in
  Array.length loop = 0
  || Mgraph.Sorted_ints.subset loop
       (Mgraph.Multigraph.edge_types_between (Database.graph ctx.db) v v)

(* Candidates for a query vertex adjacent to already-matched ones.
   [matched_pairs] = (data vertex, multi-edges) for every matched core
   vertex adjacent to it; the result intersects one neighbourhood probe
   per directed multi-edge. The deadline is polled by the per-candidate
   loop around this function, not per probe. *)
let constrained_candidates ctx matched_pairs =
  List.fold_left
    (fun acc (vn, edges) ->
      List.fold_left
        (fun acc (dir, types) ->
          inter_opt acc (Some (adjacent_candidates ctx vn (dir, types))))
        acc edges)
    None matched_pairs

(* Algorithm 2: match every satellite anchored to core vertex [uc],
   whose candidate data vertex is [vc]. [None] = no solution. *)
let match_satellites ctx q (plan : Decompose.plan) uc vc =
  let rec loop acc = function
    | [] -> Some acc
    | us :: rest -> (
        let structural =
          List.fold_left
            (fun acc (dir, types) ->
              inter_opt acc (Some (adjacent_candidates ctx vc (dir, types))))
            None
            (Query_graph.multi_edges_between q us uc)
        in
        let refined = inter_opt structural (process_vertex ctx q us) in
        match refined with
        | None -> None (* a satellite always has structure; defensive *)
        | Some cands when Mgraph.Posting.is_empty cands -> None
        | Some cands -> loop ((us, Mgraph.Posting.to_array cands) :: acc) rest)
  in
  loop [] plan.satellites_of.(uc)

(* Saturating product: satellite sets multiply fast enough to overflow a
   63-bit int on star queries over hubs. *)
let count_embeddings sol =
  List.fold_left
    (fun n (_, set) ->
      let k = Array.length set in
      if n = 0 || k = 0 then 0
      else if n > max_int / k then max_int
      else n * k)
    1 sol.sats

(* Synopsis-first seeding (the paper's order): the Lemma-1 scan, then
   the attribute/IRI refinement. *)
let synopsis_seeds ctx q u =
  let structural = Mgraph.Posting.raw (synopsis_candidates ctx q u) in
  match inter_opt (Some structural) (process_vertex ctx q u) with
  | Some c -> Mgraph.Posting.to_array c
  | None -> [||]

(* Attribute-first seeding: intersect the attribute/IRI candidate lists,
   then apply the Lemma-1 dominance test per survivor — the synopsis
   set is never materialized. [None] when the vertex carries neither
   attributes nor IRI constraints (nothing to intersect). *)
let attrs_candidates ctx (q : Query_graph.t) u =
  match process_vertex ctx q u with
  | None -> None
  | Some pv ->
      ctx.stats.synopsis_probes <- ctx.stats.synopsis_probes + 1;
      let syn = Mgraph.Synopsis.of_signature (Query_graph.signature q u) in
      let acc = ref [] in
      Mgraph.Posting.iter
        (fun v ->
          if Synopsis_index.dominates ctx.synopsis v syn then acc := v :: !acc)
        pv;
      Some (Array.of_list (List.rev !acc))

let initial_candidates_choice ctx (q : Query_graph.t)
    (comp : Decompose.component) =
  match Array.length comp.core_order with
  | 0 -> ([||], None)
  | _ -> (
      let u = comp.core_order.(0) in
      match ctx.model with
      | None -> (synopsis_seeds ctx q u, None)
      | Some st ->
          let choice = Stats.choice_for st q u ctx.plan in
          let seeds, choice =
            match choice.Stats.strategy with
            | Stats.Scan -> (synopsis_seeds ctx q u, choice)
            | Stats.Attrs -> (
                match attrs_candidates ctx q u with
                | Some seeds -> (seeds, choice)
                | None ->
                    ( synopsis_seeds ctx q u,
                      { choice with Stats.strategy = Stats.Scan; fallback = true }
                    ))
          in
          let report =
            {
              Stats.variable = q.var_names.(u);
              vertex = u;
              choice;
              actual = Array.length seeds;
            }
          in
          (seeds, Some report))

let initial_candidates ctx q comp = fst (initial_candidates_choice ctx q comp)

let solve_component_seeded ctx (q : Query_graph.t) (plan : Decompose.plan)
    (comp : Decompose.component) ~seeds ~emit =
  let order = comp.core_order in
  let k = Array.length order in
  if k = 0 then ()
  else begin
    let assigned = Array.make k (-1) in
    (* Matched (data vertex, multi-edges) pairs among the first [depth]
       core vertices adjacent to position [depth] — adjacency and edges
       were precomputed by [Decompose.plan]. *)
    let matched_neighbours depth =
      Array.fold_left
        (fun acc (j, edges) -> (assigned.(j), edges) :: acc)
        []
        comp.prior_edges.(depth)
    in
    let rec extend depth sats_acc =
      Deadline.check ctx.deadline;
      if depth = k then begin
        ctx.stats.solutions <- ctx.stats.solutions + 1;
        let core =
          List.init k (fun i -> (order.(i), assigned.(i)))
        in
        match emit { core; sats = List.rev sats_acc } with
        | `Continue -> ()
        | `Stop -> raise Stop
      end
      else begin
        let u = order.(depth) in
        let candidates =
          if depth = 0 then Mgraph.Posting.raw seeds
          else begin
            let structural =
              match constrained_candidates ctx (matched_neighbours depth) with
              | Some _ as c -> c
              | None ->
                  (* Core subgraphs are connected, so this only happens
                     for promoted singletons or defensive fallback: use S. *)
                  Some (Mgraph.Posting.raw (synopsis_candidates ctx q u))
            in
            match inter_opt structural (process_vertex ctx q u) with
            | Some c -> c
            | None -> Mgraph.Posting.empty
          end
        in
        Mgraph.Posting.iter
          (fun v ->
            Deadline.check ctx.deadline;
            ctx.stats.candidates_scanned <- ctx.stats.candidates_scanned + 1;
            if satisfies_self_loop ctx q u v then begin
              match match_satellites ctx q plan u v with
              | None ->
                  ctx.stats.satellite_rejections <- ctx.stats.satellite_rejections + 1
              | Some sats ->
                  assigned.(depth) <- v;
                  extend (depth + 1) (List.rev_append sats sats_acc);
                  assigned.(depth) <- -1
            end)
          candidates
      end
    in
    try extend 0 [] with Stop -> ()
  end
