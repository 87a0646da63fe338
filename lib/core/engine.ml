type t = {
  db : Database.t;
  attribute : Attribute_index.t;
  synopsis : Synopsis_index.t;
  neighbourhood : Neighbourhood_index.t;
  literal_bindings : Literal_bindings.t;
  shared : Matcher.shared;  (* cross-query A/S candidate LRUs *)
  statistics : Stats.t Once.t;
      (* planner statistics: computed at build time, loaded from the
         snapshot's stats section, or inherited (stale but
         sound — estimates never change answers) by live overlays.
         Reader domains may force them at once: a once-cell, not a
         lazy. *)
}

exception Unsupported = Query_graph.Unsupported

(* One matcher context per query (or per domain): [caches:false] is
   [probe_ctx]'s cache-free context for introspection. *)
let make_ctx ?(caches = true) ?plan ?model t ~deadline ~stats =
  Matcher.make_ctx
    ?probe_cache:(if caches then Some (Probe_cache.create ()) else None)
    ?shared:(if caches then Some t.shared else None)
    ?plan ?model
    ~db:t.db ~attribute:t.attribute ~synopsis:t.synopsis
    ~neighbourhood:t.neighbourhood ~deadline ~stats ()

let statistics t = Once.force t.statistics

let db t = t.db
let attribute_index t = t.attribute
let synopsis_index t = t.synopsis
let neighbourhood_index t = t.neighbourhood

type answer = {
  variables : string list;
  rows : Rdf.Term.t option list list;
  truncated : bool;
}

(* Gather the matcher's solutions. With a row limit, stop a component
   once its solutions already denote [limit] embeddings (each solution
   is a Cartesian product of satellite sets, so one solution may cover
   the limit on its own); capping factors of a cross-component product
   at L preserves the first L products. *)
let collect_solutions ?(seed_reports = ref []) ctx q plan limit =
  let components = plan.Decompose.components in
  let out = Array.make (Array.length components) [] in
  (try
     Array.iteri
       (fun i comp ->
         let embeddings = ref 0 in
         let sols = ref [] in
         let seeds, report = Matcher.initial_candidates_choice ctx q comp in
         Option.iter (fun r -> seed_reports := r :: !seed_reports) report;
         Matcher.solve_component_seeded ctx q plan comp ~seeds ~emit:(fun sol ->
             sols := sol :: !sols;
             embeddings := !embeddings + Matcher.count_embeddings sol;
             match limit with
             | Some l when !embeddings >= l -> `Stop
             | _ -> `Continue);
         out.(i) <- List.rev !sols;
         if out.(i) = [] then raise Exit)
       components
   with Exit -> ());
  (* A component with no solution empties the whole answer. *)
  if Array.exists (fun sols -> sols = []) out && Array.length components > 0
  then None
  else Some out

let empty_answer variables = { variables; rows = []; truncated = false }

(* DISTINCT keys: projected cells before decoding (see
   [Embedding.key]), hashed over every cell. *)
module Key_table = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  (* A polynomial over all cells with a large odd multiplier, then one
     avalanche so that the table's low bits see every cell. *)
  let hash (a : t) =
    Hashtbl.hash
      (Array.fold_left (fun h cell -> (h * 0x2545F4914F6CDD1D) + cell) 0 a)
end)

(* Enumerate embeddings, project, deduplicate under DISTINCT, apply the
   solution modifiers. The projection reads the cursor's id array and
   decodes only the selected slots, and only for rows that are kept. A
   selected variable the rewriter's constant propagation substituted
   away has no slot: its column is the forced term from [bindings].
   Every row gets the same constant there, so DISTINCT keys (slots
   only) and ORDER BY comparisons are unaffected. *)
let project_answer t ~q ~(ast : Sparql.Ast.t) ~deadline ~selected ~bindings
    ~effective_limit ~solutions =
  let slots = Embedding.slots q in
  let cursor = Embedding.cursor ~q ~lits:t.literal_bindings ~solutions in
  (* Resolve the projection once, not per row. *)
  let columns = Array.of_list (List.map slots.Embedding.of_var selected) in
  let forced = Array.of_list (List.map (fun v -> List.assoc_opt v bindings) selected) in
  let key_slots = Array.of_list (List.filter_map Fun.id (Array.to_list columns)) in
  let rec decode i row =
    if i < 0 then row
    else
      let cell =
        match columns.(i) with
        | None -> forced.(i)
        | Some slot -> Some (Embedding.term t.db cursor slot)
      in
      decode (i - 1) (cell :: row)
  in
  let cap =
    Sparql.Ast.gather_cap ~order_by:ast.order_by ~offset:ast.offset effective_limit
  in
  let seen = Key_table.create 64 in
  let stopped_early = ref false in
  let rows = ref [] in
  let emitted = ref 0 in
  (try
     while Embedding.next cursor do
       Deadline.check deadline;
       let fresh =
         (not ast.distinct)
         ||
         let key = Embedding.key cursor key_slots in
         (not (Key_table.mem seen key))
         && begin
              Key_table.add seen key ();
              true
            end
       in
       if fresh then begin
         rows := decode (Array.length columns - 1) [] :: !rows;
         incr emitted;
         match cap with
         | Some l when !emitted >= l ->
             stopped_early := true;
             raise Exit
         | _ -> ()
       end
     done
   with Exit -> ());
  let rows, truncated =
    Sparql.Ast.apply_modifiers ~order_by:ast.order_by ~offset:ast.offset
      ~limit:effective_limit ~stopped_early:!stopped_early selected (List.rev !rows)
  in
  { variables = selected; rows; truncated }

(* ------------------------------------------------------------------ *)
(* Default-registry metrics                                            *)
(* ------------------------------------------------------------------ *)

(* Always-on instrumentation: a handful of integer bumps and one
   histogram observation per query. The registry is the process-wide
   one; the endpoint exposes it at GET /metrics. *)
let m = Obs.Metrics.default

let m_queries =
  Obs.Metrics.counter m "amber_queries_total" ~help:"Queries answered"

let m_seconds =
  Obs.Metrics.histogram m "amber_query_seconds"
    ~help:"Per-query wall-clock latency in seconds"

let m_index_probes =
  Obs.Metrics.counter m "amber_matcher_index_probes_total"
    ~help:"Neighbourhood-index lookups during matching (index N)"

let m_scanned =
  Obs.Metrics.counter m "amber_matcher_candidates_scanned_total"
    ~help:"Data vertices tried as core-vertex candidates"

let m_sat_rejections =
  Obs.Metrics.counter m "amber_matcher_satellite_rejections_total"
    ~help:"Candidates discarded because a satellite had no match"

let m_solutions =
  Obs.Metrics.counter m "amber_matcher_solutions_total"
    ~help:"Solutions emitted by the matcher"

let m_attribute_probes =
  Obs.Metrics.counter m "amber_attribute_index_probes_total"
    ~help:"Attribute inverted-list lookups during matching (index A)"

let m_synopsis_probes =
  Obs.Metrics.counter m "amber_synopsis_index_probes_total"
    ~help:"Synopsis dominance scans during matching (index S)"

let m_lru name outcome =
  Obs.Metrics.counter m
    (Printf.sprintf "amber_engine_%s_cache_%s_total" name outcome)
    ~help:(Printf.sprintf "Cross-query %s-candidate LRU %s" name outcome)

let m_attribute_cache_hits = m_lru "attribute" "hits"
let m_attribute_cache_misses = m_lru "attribute" "misses"
let m_synopsis_cache_hits = m_lru "synopsis" "hits"
let m_synopsis_cache_misses = m_lru "synopsis" "misses"

let m_probe_cache_hits =
  Obs.Metrics.counter m "amber_matcher_probe_cache_hits_total"
    ~help:"Query-scoped probe-cache hits (N probes + ProcessVertex memo)"

let m_probe_cache_misses =
  Obs.Metrics.counter m "amber_matcher_probe_cache_misses_total"
    ~help:"Query-scoped probe-cache misses"

let m_parallel_queries =
  Obs.Metrics.counter m "amber_parallel_queries_total"
    ~help:"Queries whose matching ran on more than one domain"

let m_parallel_chunks =
  Obs.Metrics.counter m "amber_parallel_chunks_total"
    ~help:"Candidate chunks dispatched to the domain pool"

let m_analysis_unsat =
  Obs.Metrics.counter m "amber_analysis_unsat_total"
    ~help:
      "Queries proven unsatisfiable by static analysis (build-time \
       dictionary misses plus index screening) and short-circuited to the \
       empty answer"

let m_analysis_warnings =
  Obs.Metrics.counter m "amber_analysis_warning_total"
    ~help:"Warnings raised by static query analysis"

let m_plan_strategy strategy =
  Obs.Metrics.counter m "amber_plan_strategy_total"
    ~labels:[ ("strategy", strategy) ]
    ~help:
      "Seed-strategy selections made when materializing a component's \
       initial candidates (attrs = attribute/IRI intersection, scan = \
       synopsis dominance scan)"

let record_seed_metrics reports =
  List.iter
    (fun (r : Stats.seed_report) ->
      Obs.Metrics.incr
        (m_plan_strategy (Stats.strategy_slug r.Stats.choice.Stats.strategy)))
    reports

(* The work counters: every run adds what it did, answered or not — a
   query that times out after heavy matching did that matching. *)
let record_work_metrics (stats : Matcher.stats) =
  Obs.Metrics.add m_index_probes stats.Matcher.index_probes;
  Obs.Metrics.add m_attribute_probes stats.Matcher.attribute_probes;
  Obs.Metrics.add m_synopsis_probes stats.Matcher.synopsis_probes;
  Obs.Metrics.add m_attribute_cache_hits stats.Matcher.attribute_cache_hits;
  Obs.Metrics.add m_attribute_cache_misses stats.Matcher.attribute_cache_misses;
  Obs.Metrics.add m_synopsis_cache_hits stats.Matcher.synopsis_cache_hits;
  Obs.Metrics.add m_synopsis_cache_misses stats.Matcher.synopsis_cache_misses;
  Obs.Metrics.add m_scanned stats.Matcher.candidates_scanned;
  Obs.Metrics.add m_sat_rejections stats.Matcher.satellite_rejections;
  Obs.Metrics.add m_solutions stats.Matcher.solutions;
  Obs.Metrics.add m_probe_cache_hits stats.Matcher.probe_cache_hits;
  Obs.Metrics.add m_probe_cache_misses stats.Matcher.probe_cache_misses

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

(* Every query entry point offers a structured record to the default
   flight recorder ([Obs.Query_log.default]) — including unsat
   short-circuits, timeouts and errors, which are the records an
   operator goes looking for. Capture policy (sampling, slow threshold,
   ring size, JSONL sink) lives in the recorder; the engine only
   describes what happened. *)

let core_order_names q (plan : Decompose.plan) =
  Array.to_list
    (Array.map
       (fun (comp : Decompose.component) ->
         Array.to_list
           (Array.map
              (fun u -> q.Query_graph.var_names.(u))
              comp.Decompose.core_order))
       plan.Decompose.components)

let analysis_slug report =
  match Analysis.unsat_proof report with
  | Some _ -> "unsat"
  | None -> (
      match List.length (Analysis.warnings report) with
      | 0 -> "ok"
      | n -> Printf.sprintf "warnings=%d" n)

(* Flight-recorder view of the seed reports: one (variable, strategy,
   estimate, actual) row per component, in component order. *)
let plan_seed_rows reports =
  List.rev_map
    (fun (r : Stats.seed_report) ->
      ( r.Stats.variable,
        Stats.strategy_slug r.Stats.choice.Stats.strategy,
        r.Stats.choice.Stats.est_candidates,
        r.Stats.actual ))
    reports

let record_flight ~seconds ~text ~domains ~status ~core_order ~phases ~analysis
    ~gc ~plan_mode ~plan_seeds ~rewrites ~(stats : Matcher.stats) ~rows
    ~truncated =
  Obs.Query_log.record Obs.Query_log.default
    {
      Obs.Query_log.id = 0;
      at = Unix.gettimeofday ();
      query = text;
      hash = Obs.Query_log.hash_query text;
      status;
      seconds;
      rows;
      truncated;
      domains;
      core_order;
      plan_mode;
      plan_seeds;
      rewrites;
      phases;
      candidates_scanned = stats.Matcher.candidates_scanned;
      solutions = stats.Matcher.solutions;
      index_probes = stats.Matcher.index_probes;
      cache_hits = stats.Matcher.probe_cache_hits;
      cache_misses = stats.Matcher.probe_cache_misses;
      analysis;
      gc;
      slow = false;
    }

let status_of_exn = function
  | Deadline.Expired -> Obs.Query_log.Timeout
  | e -> Obs.Query_log.Error (Printexc.to_string e)

(* Resident cost per index structure, by reachable-heap walk. Linear in
   index size — probe per scrape or per report, never per query. Blocks
   shared between structures (e.g. interned dictionary strings) are
   counted from each structure that reaches them. *)
let resident_bytes t =
  let g = Database.graph t.db in
  [
    ( "adjacency",
      Obs.Resource.reachable_bytes g + Mgraph.Multigraph.out_of_heap_bytes g );
    ( "attribute",
      Obs.Resource.reachable_bytes t.attribute
      + (Attribute_index.posting_stats t.attribute).Mgraph.Posting.payload_bytes
    );
    ("synopsis", Obs.Resource.reachable_bytes t.synopsis);
  ]

(* Aggregate posting-list census over every index that holds frozen
   posting lists (adjacency neighbour lists, attribute inverted lists). *)
let posting_stats t =
  let s = Mgraph.Posting.fresh_stats () in
  Mgraph.Multigraph.posting_stats (Database.graph t.db) s;
  Mgraph.Posting.merge_stats ~into:s (Attribute_index.posting_stats t.attribute);
  s

let sync_resource_metrics t =
  List.iter
    (fun (index, bytes) ->
      Obs.Metrics.set
        (Obs.Metrics.counter m "amber_index_resident_bytes"
           ~labels:[ ("index", index) ]
           ~help:
             "Bytes resident in one index structure (adjacency multigraph, \
              attribute inverted lists, packed synopses): reachable heap \
              plus out-of-heap posting payloads")
        bytes)
    (resident_bytes t);
  let s = posting_stats t in
  List.iter
    (fun (layout, count) ->
      Obs.Metrics.set
        (Obs.Metrics.counter m "amber_posting_lists"
           ~labels:[ ("layout", layout) ]
           ~help:"Frozen posting lists resident across all indexes, by layout")
        count)
    [
      ("raw", s.Mgraph.Posting.raw_lists);
      ("ef", s.Mgraph.Posting.ef_lists);
      ("blocked", s.Mgraph.Posting.blocked_lists);
    ];
  Obs.Metrics.set
    (Obs.Metrics.counter m "amber_posting_payload_bytes"
       ~help:
         "Out-of-heap (Bigarray) payload bytes of compressed posting lists \
          across all indexes")
    s.Mgraph.Posting.payload_bytes

(* ------------------------------------------------------------------ *)
(* Offline build (optionally parallel index construction)              *)
(* ------------------------------------------------------------------ *)

let m_index_build index =
  Obs.Metrics.histogram m "amber_index_build_seconds"
    ~labels:[ ("index", index) ]
    ~help:
      "Seconds spent building one index family (summed across domains \
       when the build is sharded)"
    ~buckets:(Obs.Metrics.log_buckets ~lo:1e-4 ~ratio:2.0 ~count:20)

let m_snapshot_save =
  Obs.Metrics.histogram m "amber_snapshot_save_seconds"
    ~help:"Wall-clock seconds writing an index snapshot"
    ~buckets:(Obs.Metrics.log_buckets ~lo:1e-4 ~ratio:2.0 ~count:20)

let m_snapshot_load =
  Obs.Metrics.histogram m "amber_snapshot_load_seconds"
    ~help:"Wall-clock seconds loading an index snapshot"
    ~buckets:(Obs.Metrics.log_buckets ~lo:1e-4 ~ratio:2.0 ~count:20)

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Parallel index construction: one flat task list on the domain pool —
   the whole [A] build as a single task, plus the per-vertex loop of [S]
   (synopsis computation) sharded into deterministic vertex ranges.
   Tasks write into disjoint slots of preallocated arrays; the final
   assembly (the [S] maxima) is sequential, so the built indexes are
   identical — byte-for-byte under the canonical snapshot encoding — to
   the [domains = 1] build. [N] is not built: it reads the multigraph's
   adjacency. *)
let shards_per_domain = 4

let build_indexes ~domains db =
  let n = Mgraph.Multigraph.vertex_count (Database.graph db) in
  if domains <= 1 || n = 0 then begin
    let attribute, dt_a = timed (fun () -> Attribute_index.build db) in
    Obs.Metrics.observe (m_index_build "attribute") dt_a;
    let synopsis, dt_s = timed (fun () -> Synopsis_index.build db) in
    Obs.Metrics.observe (m_index_build "synopsis") dt_s;
    (attribute, synopsis)
  end
  else begin
    let k = max 1 (min n (shards_per_domain * domains)) in
    let attribute_slot = ref None in
    let packed = Array.make (n * Mgraph.Synopsis.dims) 0 in
    let tasks =
      Array.of_list
        ((fun () ->
           attribute_slot := Some (Attribute_index.build db);
           "attribute")
        :: List.init k (fun i () ->
               let lo = i * n / k and hi = (i + 1) * n / k in
               Synopsis_index.fill_range db packed ~lo ~hi;
               "synopsis"))
    in
    let pool = Domain_pool.global () in
    let results =
      Fun.protect
        ~finally:(fun () ->
          (* Index construction is a one-shot burst: workers parked in
             the pool afterwards would slow every stop-the-world minor
             collection for the rest of the process (snapshot decoding
             measures ~1.7x slower with three parked domains). Steady
             parallel query traffic respawns them once. *)
          Domain_pool.quiesce pool)
        (fun () ->
          Domain_pool.run_chunks pool ~participants:domains
            ~chunks:(Array.length tasks) (fun c -> timed tasks.(c)))
    in
    (* Per-family build time = sum of its tasks' durations (CPU seconds,
       not wall clock) plus the sequential assembly below. *)
    let family_seconds = Hashtbl.create 4 in
    let charge family dt =
      Hashtbl.replace family_seconds family
        (dt +. Option.value ~default:0. (Hashtbl.find_opt family_seconds family))
    in
    Array.iter (fun (family, dt) -> charge family dt) results;
    let synopsis, dt_s = timed (fun () -> Synopsis_index.of_packed packed) in
    charge "synopsis" dt_s;
    Hashtbl.iter
      (fun family dt -> Obs.Metrics.observe (m_index_build family) dt)
      family_seconds;
    let attribute =
      match !attribute_slot with Some a -> a | None -> assert false
    in
    (attribute, synopsis)
  end

let of_parts ?stats ~db ~attribute ~synopsis ~neighbourhood () =
  {
    db;
    attribute;
    synopsis;
    neighbourhood;
    literal_bindings = Literal_bindings.create db;
    shared = Matcher.make_shared ();
    statistics =
      Once.make
        (match stats with
        | Some s -> fun () -> Lazy.force s
        | None -> fun () -> Stats.compute db attribute synopsis);
  }

let with_parts t ~db ~attribute ~synopsis =
  {
    t with
    db;
    attribute;
    synopsis;
    neighbourhood = Neighbourhood_index.build db;
    literal_bindings = Literal_bindings.create db;
    shared = Matcher.make_shared ();
  }

let of_database ?(domains = 1) db =
  let attribute, synopsis = build_indexes ~domains db in
  let t =
    of_parts ~db ~attribute ~synopsis
      ~neighbourhood:(Neighbourhood_index.build db) ()
  in
  (* Planner statistics are part of the offline stage: pay the O(E)
     pass now, not on the first adaptive query. *)
  let (_ : Stats.t), dt = timed (fun () -> statistics t) in
  Obs.Metrics.observe (m_index_build "stats") dt;
  t

let build ?domains triples = of_database ?domains (Database.of_triples triples)

(* ------------------------------------------------------------------ *)
(* Parallel solution collection (the paper's §8 future work)           *)
(* ------------------------------------------------------------------ *)

(* Per component: split the initial candidate set into more chunks than
   domains and let the pool's domains steal the next unclaimed chunk, so
   a hub candidate hiding a huge subtree does not serialize the run. The
   per-chunk solution lists concatenate in chunk (= seed) order, and the
   per-chunk stats sum — both deterministic merges — so without a row
   limit the answer is byte-identical to the sequential path. Every
   index is read-only after [build]; each chunk gets its own matcher
   context (query-scoped probe cache, stats, deadline clone), and the
   cross-query LRUs are mutex-guarded, so domains share no unguarded
   mutable state. *)
let chunks_per_domain = 8

let collect_solutions_parallel ?plan:plan_mode ?model
    ?(seed_reports = ref []) t q plan ~domains ~deadline ~stats limit =
  let components = plan.Decompose.components in
  let out = Array.make (Array.length components) [] in
  let pool = Domain_pool.global () in
  (* Seed computation is sequential and cheap; charge it to the query's
     aggregate stats directly. The strategy choice happens here, once —
     the chunks inherit the materialized seed set, so the parallel run
     enumerates exactly the sequential candidates. *)
  let seed_ctx = make_ctx ?plan:plan_mode ?model t ~deadline ~stats in
  Obs.Metrics.incr m_parallel_queries;
  (* When the calling domain is being profiled, each chunk collects its
     own span subtree on the worker domain that runs it ([Span.collect]
     uses domain-local storage, so workers never touch the caller's open
     spans). The finished subtrees are grafted under the caller's open
     span in chunk order after the join — the same deterministic merge
     discipline as the solutions and stats. *)
  let traced = Obs.Span.active () in
  let exception Component_empty in
  (try
     Array.iteri
       (fun i comp ->
         let seeds, report = Matcher.initial_candidates_choice seed_ctx q comp in
         Option.iter (fun r -> seed_reports := r :: !seed_reports) report;
         let n = Array.length seeds in
         (* Below a couple of seeds per domain the chunking bookkeeping
            cannot pay for itself: keep the component sequential. *)
         let chunks =
           if n < 2 * domains then 1 else min n (chunks_per_domain * domains)
         in
         Obs.Metrics.add m_parallel_chunks chunks;
         (* Embeddings emitted so far across all chunks of this
            component — the row-limit race is settled here. *)
         let emitted = Atomic.make 0 in
         (* Per-chunk stats live outside the chunks, so the work of a run
            that times out or fails is still summed into [stats]. *)
         let chunk_stats = Array.init chunks (fun _ -> Matcher.fresh_stats ()) in
         let results =
           Fun.protect
             ~finally:(fun () ->
               Array.iter
                 (fun st -> Matcher.merge_into ~into:stats st)
                 chunk_stats)
           @@ fun () ->
           Domain_pool.run_chunks pool ~participants:domains ~chunks (fun c ->
               let lo = c * n / chunks and hi = (c + 1) * n / chunks in
               let run () =
                 let chunk_stats = chunk_stats.(c) in
                 let ctx =
                   make_ctx t ~deadline:(Deadline.clone deadline)
                     ~stats:chunk_stats
                 in
                 let sols = ref [] in
                 Matcher.solve_component_seeded ctx q plan comp
                   ~seeds:(Array.sub seeds lo (hi - lo))
                   ~emit:(fun sol ->
                     sols := sol :: !sols;
                     let k = Matcher.count_embeddings sol in
                     let before = Atomic.fetch_and_add emitted k in
                     match limit with
                     | Some l when before + k >= l -> `Stop
                     | _ -> `Continue);
                 (List.rev !sols, chunk_stats)
               in
               if not traced then (run (), None)
               else
                 let r, span =
                   Obs.Span.collect ~name:"chunk" (fun () ->
                       Obs.Span.annotate "component" (string_of_int i);
                       Obs.Span.annotate "chunk" (string_of_int c);
                       Obs.Span.annotate "seeds" (string_of_int (hi - lo));
                       let (_, st) as r = run () in
                       Obs.Span.annotate "solutions"
                         (string_of_int st.Matcher.solutions);
                       r)
                 in
                 (r, Some span))
         in
         Array.iter (fun (_, span) -> Option.iter Obs.Span.graft span) results;
         out.(i) <- List.concat_map (fun ((s, _), _) -> s) (Array.to_list results);
         if out.(i) = [] then raise Component_empty)
       components
   with Component_empty -> ());
  (* A component with no solution empties the whole answer. *)
  if Array.exists (fun sols -> sols = []) out && Array.length components > 0 then
    None
  else Some out

(* Sequential below [domains = 2]: the one-domain case must not pay for
   chunking, atomics or pool traffic. *)
let collect ?plan:plan_mode ?model ?seed_reports t q plan ~domains
    ~deadline ~stats limit =
  if domains <= 1 then
    collect_solutions ?seed_reports
      (make_ctx ?plan:plan_mode ?model t ~deadline ~stats)
      q plan limit
  else
    collect_solutions_parallel ?plan:plan_mode ?model ?seed_reports t q
      plan ~domains ~deadline ~stats limit

(* ------------------------------------------------------------------ *)
(* Query options                                                       *)
(* ------------------------------------------------------------------ *)

module Opts = struct
  type t = {
    plan : Stats.mode;
    order : Decompose.strategy option;
    satellites : bool;
    rewrite : bool;
    domains : int;
  }

  let default =
    { plan = Stats.Adaptive; order = None; satellites = true; rewrite = true;
      domains = 1 }

  (* The most domains a run can use: the calling one plus every worker
     of the shared pool. A request asking for more gets this many. *)
  let max_domains = Domain_pool.max_workers + 1

  let switch v =
    match String.lowercase_ascii v with
    | "on" | "true" | "1" | "yes" -> Some true
    | "off" | "false" | "0" | "no" -> Some false
    | _ -> None

  let setting name ~expected parse ~current = function
    | None -> Ok current
    | Some v -> (
        match parse v with
        | Some x -> Ok x
        | None ->
            Error (Printf.sprintf "unknown %s %S (expected %s)" name v expected))

  let flag name ~default v =
    setting name ~expected:"on or off" switch ~current:default v

  let parse ?plan ?rewrite ?domains base =
    let ( let* ) = Result.bind in
    let* plan =
      setting "plan" ~expected:"paper, adaptive or forced:<attrs|scan>"
        Stats.mode_of_string ~current:base.plan plan
    in
    let* rewrite = flag "rewrite" ~default:base.rewrite rewrite in
    let* domains =
      setting "domains"
        ~expected:(Printf.sprintf "an integer, clamped to 1..%d" max_domains)
        (fun v ->
          Option.map (fun d -> max 1 (min max_domains d)) (int_of_string_opt v))
        ~current:base.domains domains
    in
    Ok { base with plan; rewrite; domains }
end

(* Core ordering implied by the options: an explicit [order] (the
   ablation knob) wins under any plan; otherwise a plan with a cost
   model orders core vertices by estimated cardinality and the paper
   plan keeps the r1/r2 heuristic. Seeding follows the plan either
   way. *)
let order_strategy ~order ~model q =
  match (order, model) with
  | (Some _ as s), _ -> s
  | None, Some st ->
      Some (Decompose.Estimate (fun u -> Stats.estimate_vertex st q u))
  | None, None -> None

(* The paper plan never touches the cost model, so it also never forces
   a lazy statistics computation. *)
let model_of t = function Stats.Paper -> None | _ -> Some (statistics t)

(* The pipeline's front half, shared by [run] and [explain]: rewrite the
   WHERE clause, then build the query multigraph and plan it. *)
let rewrite_query ?open_objects ~rewrite t ast =
  if not rewrite then { Rewrite.ast; bindings = []; steps = [] }
  else
    Rewrite.apply ?open_objects ~db:t.db ~attribute:t.attribute
      ~stats:(lazy (statistics t)) ast

let plan_query ?open_objects ~(opts : Opts.t) ~model t ast =
  match Query_graph.build ?open_objects t.db ast with
  | Query_graph.Unsatisfiable { proof; pattern } -> Error (proof, pattern)
  | Query_graph.Query q ->
      let strategy = order_strategy ~order:opts.order ~model q in
      Ok (q, Decompose.plan ?strategy ~satellites:opts.satellites q)

(* Candidate-set size of query vertex [u] before and after pruning: the
   synopsis index alone, then intersected with ProcessVertex's attribute
   / IRI-constraint candidates. [ctx] should be a [probe_ctx]: no caches
   and a throwaway stats record, so introspection neither warms the
   engine caches nor counts toward a run's matcher counters. *)
let probe_ctx t =
  make_ctx ~caches:false t ~deadline:Deadline.never
    ~stats:(Matcher.fresh_stats ())

let candidate_sizes t ctx q u =
  let structural =
    Synopsis_index.candidates_of_signature t.synopsis (Query_graph.signature q u)
  in
  let refined =
    match Matcher.process_vertex ctx q u with
    | None -> Array.length structural
    | Some extra ->
        Mgraph.Posting.length
          (Mgraph.Posting.inter (Mgraph.Posting.raw structural) extra)
  in
  (Array.length structural, refined)

(* ------------------------------------------------------------------ *)
(* Query forms around the BGP pipeline                                 *)
(* ------------------------------------------------------------------ *)

(* CONSTRUCT: instantiate the template once per row. Instantiations
   with an unbound variable or violating the RDF triple invariants are
   skipped, as the spec requires, and duplicate triples are emitted
   once. *)
let instantiate template answer =
  let instantiate binding term =
    match term with
    | Sparql.Ast.Iri iri -> Some (Rdf.Term.iri iri)
    | Sparql.Ast.Lit lit -> Some (Rdf.Term.Literal lit)
    | Sparql.Ast.Var v -> (
        match List.assoc_opt v binding with
        | Some (Some term) -> Some term
        | Some None | None -> None)
  in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun row ->
      let binding = List.combine answer.variables row in
      List.filter_map
        (fun { Sparql.Ast.subject; predicate; obj } ->
          match
            ( instantiate binding subject,
              instantiate binding predicate,
              instantiate binding obj )
          with
          | Some s, Some p, Some o -> (
              match Rdf.Triple.make s p o with
              | triple ->
                  let key = Rdf.Triple.to_string triple in
                  if Hashtbl.mem seen key then None
                  else begin
                    Hashtbl.add seen key ();
                    Some triple
                  end
              | exception Rdf.Triple.Invalid _ -> None)
          | _ -> None)
        template)
    answer.rows

(* A BGP leaf's rows as the algebra's partial mappings. *)
let bindings_of_answer answer : Extended.binding list =
  List.map
    (fun row ->
      List.fold_left2
        (fun acc v cell -> match cell with Some t -> (v, t) :: acc | None -> acc)
        [] answer.variables row)
    answer.rows

(* Project the algebra's mappings, deduplicate under DISTINCT, then
   ORDER BY / OFFSET / LIMIT — once, over the whole result. *)
let algebra_answer ~limit (q : Sparql.Algebra.t) bindings =
  let selected = Sparql.Algebra.selected_variables q in
  let seen = Hashtbl.create 64 in
  let rows =
    List.filter_map
      (fun mu ->
        let row = List.map (fun v -> List.assoc_opt v mu) selected in
        if q.distinct && Hashtbl.mem seen row then None
        else begin
          if q.distinct then Hashtbl.add seen row ();
          Some row
        end)
      bindings
  in
  let rows, truncated =
    Sparql.Ast.apply_modifiers ~order_by:q.order_by ~offset:q.offset
      ~limit:(Sparql.Ast.effective_limit limit q.limit)
      ~stopped_early:false selected rows
  in
  { variables = selected; rows; truncated }

(* The flight record names the query in its own form. ASK and CONSTRUCT
   hold their WHERE clause as a [SELECT *]; [where_clause] prints it
   without that head. *)
let where_clause ast =
  let s =
    Sparql.Ast.to_string { ast with Sparql.Ast.select = Select_all; distinct = false }
  in
  let head = String.length "SELECT *" in
  String.sub s head (String.length s - head)

let query_text = function
  | Sparql.Parser.Q_select ast -> Sparql.Ast.to_string ast
  | Sparql.Parser.Q_algebra q -> Sparql.Algebra.to_string q
  | Sparql.Parser.Q_ask ast -> "ASK" ^ where_clause ast
  | Sparql.Parser.Q_construct (template, ast) ->
      "CONSTRUCT { "
      ^ String.concat " " (List.map Sparql.Ast.pattern_to_string template)
      ^ " }" ^ where_clause ast

type result = Rows of answer | Boolean of bool | Triples of Rdf.Triple.t list

(* Rows and truncation as the flight record and the profile count
   them. *)
let result_size = function
  | Rows a -> (List.length a.rows, a.truncated)
  | Boolean b -> (Bool.to_int b, false)
  | Triples triples -> (List.length triples, false)

type run_result = {
  result : result;
  stats : Matcher.stats;
  profile : Profile.t option;
}

let run ?(opts = Opts.default) ?open_objects ?timeout ?limit ?(profile = false)
    t input =
  let t0 = Unix.gettimeofday () in
  let gc0 = Obs.Resource.gc_mark () in
  let { Opts.plan = plan_mode; rewrite; domains; _ } = opts in
  let domains = max 1 domains in
  let deadline = Option.fold ~none:Deadline.never ~some:Deadline.after timeout in
  let stats = Matcher.fresh_stats () in
  let model = model_of t plan_mode in
  (* Per-run state, shared by every BGP leaf of the query. The flight
     record, the metrics and the profile are all read from it, so they
     cannot disagree. *)
  let parsed = ref None in
  let phases = ref [] in
  let shapes = ref [] in
  let reports = ref [] in
  let rewrite_steps = ref [] in
  let seed_reports = ref [] in
  let vertices = ref [] in
  (* Every phase: two clock reads into [phases], kept when the phase
     raises, and a span that only a profiled run collects. A phase that
     runs once per leaf sums into one entry. *)
  let phase name f =
    let p0 = Unix.gettimeofday () in
    let stop () =
      let dt = Unix.gettimeofday () -. p0 in
      phases :=
        if List.mem_assoc name !phases then
          List.map (fun (n, s) -> if n = name then (n, s +. dt) else (n, s)) !phases
        else (name, dt) :: !phases
    in
    match Obs.Span.with_ ~name f with
    | v ->
        stop ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        stop ();
        Printexc.raise_with_backtrace e bt
  in
  let note key value = if profile then Obs.Span.annotate key (value ()) in
  (* One basic graph pattern through the online stage: rewrite →
     decompose → analyze → candidates → match → enumerate. *)
  let bgp ~limit (ast : Sparql.Ast.t) =
    let selected = Sparql.Ast.selected_variables ast in
    let effective_limit = Sparql.Ast.effective_limit limit ast.Sparql.Ast.limit in
    (* The rewritten clause drives decomposition and matching; the
       original [ast] keeps naming the projection, so substituted
       projected variables come back in [project_answer]. *)
    let rewritten =
      if not rewrite then rewrite_query ~rewrite t ast
      else
        phase "rewrite" (fun () ->
            let r = rewrite_query ?open_objects ~rewrite t ast in
            rewrite_steps := !rewrite_steps @ r.Rewrite.steps;
            if r.Rewrite.steps <> [] then
              note "steps" (fun () ->
                  String.concat "," (Rewrite.slugs r.Rewrite.steps));
            r)
    in
    let rast = rewritten.Rewrite.ast in
    let planned =
      phase "decompose" (fun () ->
          let p = plan_query ?open_objects ~opts ~model t rast in
          (match p with
          | Error (proof, _) ->
              note "unsatisfiable" (fun () -> Analysis.proof_to_string proof)
          | Ok (q, dplan) ->
              shapes := (q, dplan) :: !shapes;
              note "components" (fun () ->
                  string_of_int (Array.length dplan.Decompose.components)));
          p)
    in
    (* One analysis whichever way the leaf goes: the AST lints plus
       either the build failure's proof or the index screening. *)
    let analysis, screened =
      match planned with
      | Error (proof, pattern) ->
          ( Analysis.report_of_items
              (Analysis.of_build_failure rast ~proof ~pattern
              :: Analysis.lint_ast rast),
            None )
      | Ok ((q, _) as shape) ->
          let r =
            phase "analyze" (fun () ->
                let r =
                  Analysis.report_of_items
                    (Analysis.lint_ast rast
                    @ Analysis.screen t.db ~attribute:t.attribute
                        ~synopsis:t.synopsis q rast)
                in
                Option.iter
                  (fun proof ->
                    note "analysis_unsat" (fun () ->
                        Analysis.proof_to_string proof))
                  (Analysis.unsat_proof r);
                r)
          in
          (r, if Analysis.unsat_proof r = None then Some shape else None)
    in
    reports := analysis :: !reports;
    let status, answer =
      match screened with
      | None -> (Obs.Query_log.Unsat, empty_answer selected)
      | Some (q, dplan) -> (
          if profile then
            vertices :=
              !vertices
              @ phase "candidates" (fun () ->
                    let ctx = probe_ctx t in
                    List.init (Query_graph.vertex_count q) (fun u ->
                        let structural, refined = candidate_sizes t ctx q u in
                        {
                          Profile.variable = q.Query_graph.var_names.(u);
                          core = dplan.Decompose.is_core.(u);
                          structural;
                          refined;
                        }));
          (* Under DISTINCT or ORDER BY a solution cap could starve the
             projection; with open objects a solution's embeddings can
             all be dropped at enumeration. Cap only the final row count
             then. *)
          let solution_cap =
            if rast.Sparql.Ast.distinct || q.Query_graph.opens <> [] then None
            else
              Sparql.Ast.gather_cap ~order_by:rast.order_by ~offset:rast.offset
                effective_limit
          in
          let solutions =
            phase "match" (fun () ->
                if domains > 1 then
                  note "domains" (fun () -> string_of_int domains);
                let solutions0 = stats.Matcher.solutions in
                let sols =
                  collect ~plan:plan_mode ?model ~seed_reports t q dplan
                    ~domains ~deadline ~stats solution_cap
                in
                note "solutions" (fun () ->
                    string_of_int (stats.Matcher.solutions - solutions0));
                sols)
          in
          match solutions with
          | None -> (Obs.Query_log.Ok, empty_answer selected)
          | Some solutions ->
              ( Obs.Query_log.Ok,
                phase "enumerate" (fun () ->
                    let a =
                      project_answer t ~q ~ast:rast ~deadline ~selected
                        ~bindings:rewritten.Rewrite.bindings ~effective_limit
                        ~solutions
                    in
                    note "rows" (fun () -> string_of_int (List.length a.rows));
                    a) ))
    in
    (status, answer)
  in
  let pipeline () =
    let query =
      match input with
      | `Parsed query -> query
      | `Text src -> phase "parse" (fun () -> Sparql.Parser.parse_any src)
    in
    parsed := Some query;
    match query with
    | Sparql.Parser.Q_select ast ->
        let status, answer = bgp ~limit ast in
        (status, Rows answer)
    | Sparql.Parser.Q_ask ast ->
        let status, answer = bgp ~limit:(Some 1) ast in
        (status, Boolean (answer.rows <> []))
    | Sparql.Parser.Q_construct (template, ast) ->
        let status, answer = bgp ~limit ast in
        (status, Triples (instantiate template answer))
    | Sparql.Parser.Q_algebra q ->
        (* Leaves run unlimited, and each may be proven empty without
           the query being so. *)
        let leaf patterns =
          bindings_of_answer
            (snd (bgp ~limit:None (Sparql.Ast.make Sparql.Ast.Select_all patterns)))
        in
        let bindings = Extended.eval ~deadline ~bgp:leaf q.Sparql.Algebra.pattern in
        (Obs.Query_log.Ok, Rows (algebra_answer ~limit q bindings))
  in
  (* The query's analysis: its one leaf's report; over an algebra, the
     leaves' warnings and hints — a leaf's unsat proof is not a proof
     about the query. [None] until a leaf has been analyzed. *)
  let analysis () =
    match (!parsed, !reports) with
    | _, [] -> None
    | Some (Sparql.Parser.Q_algebra _), reports ->
        Some
          (Analysis.report_of_items
             (List.concat_map
                (fun r ->
                  List.filter
                    (fun i ->
                      match i.Analysis.diag with
                      | Analysis.Unsat _ -> false
                      | Analysis.Warning _ | Analysis.Hint _ -> true)
                    r.Analysis.items)
                (List.rev reports)))
    | _, r :: _ -> Some r
  in
  let core_order () =
    List.concat_map (fun (q, dplan) -> core_order_names q dplan) (List.rev !shapes)
  in
  (* A parse failure carries no query to record. *)
  let flight ~seconds status ~rows ~truncated =
    Option.iter
      (fun query ->
        record_flight ~seconds ~text:(query_text query) ~domains ~status
          ~core_order:(core_order ()) ~phases:(List.rev !phases)
          ~analysis:(Option.map analysis_slug (analysis ()))
          ~plan_mode:(Stats.mode_to_string plan_mode)
          ~plan_seeds:(plan_seed_rows !seed_reports)
          ~rewrites:(Rewrite.slugs !rewrite_steps)
          ~gc:(Obs.Resource.gc_since gc0) ~stats ~rows ~truncated)
      !parsed
  in
  match
    if profile then
      let r, span = Obs.Span.root ~name:"query" pipeline in
      (r, Some span)
    else (pipeline (), None)
  with
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      record_work_metrics stats;
      record_seed_metrics !seed_reports;
      flight ~seconds:(Unix.gettimeofday () -. t0) (status_of_exn e) ~rows:0
        ~truncated:false;
      Printexc.raise_with_backtrace e bt
  | (status, result), span ->
      let seconds = Unix.gettimeofday () -. t0 in
      let rows, truncated = result_size result in
      let analysis = Option.value (analysis ()) ~default:Analysis.empty_report in
      Obs.Metrics.incr m_queries;
      Obs.Metrics.observe m_seconds seconds;
      record_work_metrics stats;
      record_seed_metrics !seed_reports;
      if status = Obs.Query_log.Unsat then Obs.Metrics.incr m_analysis_unsat;
      Obs.Metrics.add m_analysis_warnings (List.length (Analysis.warnings analysis));
      flight ~seconds status ~rows ~truncated;
      let profile =
        Option.map
          (fun span ->
            {
              Profile.core_order = core_order ();
              vertices = !vertices;
              stats;
              span;
              rows;
              truncated;
              analysis;
              plan_mode = Stats.mode_to_string plan_mode;
              plan_seeds = List.rev !seed_reports;
              rewrites = !rewrite_steps;
            })
          span
      in
      { result; stats; profile }

(* A SELECT over one BGP: its result is rows. *)
let query_with_stats ?opts ?open_objects ?timeout ?limit t ast =
  match
    run ?opts ?open_objects ?timeout ?limit t (`Parsed (Sparql.Parser.Q_select ast))
  with
  | { result = Rows answer; stats; _ } -> (answer, stats)
  | { result = Boolean _ | Triples _; _ } -> assert false

let query ?opts ?open_objects ?timeout ?limit t ast =
  fst (query_with_stats ?opts ?open_objects ?timeout ?limit t ast)

let count_embeddings t ast =
  match Query_graph.build t.db ast with
  | Query_graph.Unsatisfiable _ -> 0
  | Query_graph.Query q ->
      let plan = Decompose.plan q in
      let ctx = make_ctx t ~deadline:Deadline.never ~stats:(Matcher.fresh_stats ()) in
      (match collect_solutions ctx q plan None with
      | None -> 0
      | Some solutions ->
          Embedding.count ~q ~lits:t.literal_bindings ~solutions)

(* ------------------------------------------------------------------ *)
(* Static analysis                                                     *)
(* ------------------------------------------------------------------ *)

let analyze ?open_objects t ast =
  let report =
    Analysis.run ?open_objects t.db ~attribute:t.attribute
      ~synopsis:t.synopsis ast
  in
  if Analysis.unsat_proof report <> None then
    Obs.Metrics.incr m_analysis_unsat;
  Obs.Metrics.add m_analysis_warnings (List.length (Analysis.warnings report));
  report

(* ------------------------------------------------------------------ *)
(* Plan introspection                                                  *)
(* ------------------------------------------------------------------ *)

type core_step = {
  variable : string;
  r1 : int;
  r2 : int;
  estimate : int;  (* cost-model cardinality estimate for this vertex *)
  strategy : string option;  (* seed strategy, position 0 only *)
  satellite_vars : string list;
  initial_candidates : int option;
}

type explanation =
  | Unsat of string
  | Plan of {
      plan_mode : string;
      components : core_step list list;
      open_objects : (string * string) list;
      rewrites : Rewrite.step list;
    }

let explain ?(opts = Opts.default) ?open_objects t ast =
  let plan_mode = opts.Opts.plan in
  let r = rewrite_query ?open_objects ~rewrite:opts.rewrite t ast in
  (* Introspection always forces the statistics: estimates belong in the
     report even when the paper plan would not consult them. *)
  let st = statistics t in
  match
    plan_query ?open_objects ~opts ~model:(model_of t plan_mode) t r.Rewrite.ast
  with
  | Error (proof, _) -> Unsat (Analysis.proof_to_string proof)
  | Ok (q, plan) ->
      let ctx = probe_ctx t in
      let components =
        Array.to_list
          (Array.map
             (fun (comp : Decompose.component) ->
               Array.to_list
                 (Array.mapi
                    (fun i u ->
                      (* Seeding concerns the first core vertex only. *)
                      let first f = if i = 0 then Some (f ()) else None in
                      {
                        variable = q.Query_graph.var_names.(u);
                        r1 = Decompose.r1 q plan u;
                        r2 = Decompose.r2 q u;
                        estimate = Stats.estimate_vertex st q u;
                        strategy =
                          first (fun () ->
                              Stats.strategy_slug
                                (Stats.choice_for st q u plan_mode)
                                  .Stats.strategy);
                        satellite_vars =
                          List.map
                            (fun s -> q.Query_graph.var_names.(s))
                            plan.Decompose.satellites_of.(u);
                        initial_candidates =
                          first (fun () -> snd (candidate_sizes t ctx q u));
                      })
                    comp.Decompose.core_order))
             plan.Decompose.components)
      in
      Plan
        {
          plan_mode = Stats.mode_to_string plan_mode;
          components;
          open_objects =
            List.map
              (fun (o : Query_graph.open_object) ->
                (q.Query_graph.var_names.(o.subject), o.pred))
              q.Query_graph.opens;
          rewrites = r.Rewrite.steps;
        }

let pp_explanation ppf = function
  | Unsat reason -> Format.fprintf ppf "unsatisfiable: %s" reason
  | Plan { plan_mode; components; open_objects; rewrites } ->
      Format.fprintf ppf "@[<v>";
      Format.fprintf ppf "plan: %s@," plan_mode;
      (match rewrites with
      | [] -> ()
      | steps ->
          Format.fprintf ppf "rewrites:@,";
          List.iter
            (fun s -> Format.fprintf ppf "  @[<v>%a@]@," Rewrite.pp_step s)
            steps);
      List.iteri
        (fun i steps ->
          Format.fprintf ppf "component %d:@," i;
          List.iter
            (fun s ->
              Format.fprintf ppf "  ?%s (r1=%d, r2=%d, est=%d)%s%s%s@,"
                s.variable s.r1 s.r2 s.estimate
                (match s.strategy with
                | Some slug -> " seed=" ^ slug
                | None -> "")
                (match s.initial_candidates with
                | Some n -> Printf.sprintf " |C_init|=%d" n
                | None -> "")
                (match s.satellite_vars with
                | [] -> ""
                | sats ->
                    "  satellites: "
                    ^ String.concat ", " (List.map (fun v -> "?" ^ v) sats)))
            steps)
        components;
      (match open_objects with
      | [] -> ()
      | opens ->
          Format.fprintf ppf "open objects:@,";
          List.iter
            (fun (v, p) -> Format.fprintf ppf "  ?%s via <%s>@," v p)
            opens);
      Format.fprintf ppf "@]"

let explanation_to_json e =
  let buf = Buffer.create 512 in
  (match e with
  | Unsat reason ->
      Buffer.add_string buf
        (Printf.sprintf {|{"unsat":true,"reason":%s}|}
           (Profile.json_string reason))
  | Plan { plan_mode; components; open_objects; rewrites } ->
      Buffer.add_string buf
        (Printf.sprintf {|{"unsat":false,"plan":%s,"rewrites":%s,"components":[|}
           (Profile.json_string plan_mode)
           (Rewrite.steps_to_json rewrites));
      List.iteri
        (fun i steps ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '[';
          List.iteri
            (fun j s ->
              if j > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf
                (Printf.sprintf
                   {|{"variable":%s,"r1":%d,"r2":%d,"estimate":%d,"strategy":%s,"initial_candidates":%s,"satellites":[%s]}|}
                   (Profile.json_string s.variable)
                   s.r1 s.r2 s.estimate
                   (match s.strategy with
                   | Some slug -> Profile.json_string slug
                   | None -> "null")
                   (match s.initial_candidates with
                   | Some n -> string_of_int n
                   | None -> "null")
                   (String.concat ","
                      (List.map Profile.json_string s.satellite_vars))))
            steps;
          Buffer.add_char buf ']')
        components;
      Buffer.add_string buf {|],"open_objects":[|};
      List.iteri
        (fun i (v, p) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf {|{"variable":%s,"predicate":%s}|}
               (Profile.json_string v) (Profile.json_string p)))
        open_objects;
      Buffer.add_string buf "]}");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let snapshot_contents t =
  {
    Snapshot.db = t.db;
    attribute = t.attribute;
    synopsis = t.synopsis;
    stats = statistics t;
  }

let save_snapshot t path =
  let (), dt = timed (fun () -> Snapshot.write_file path (snapshot_contents t)) in
  Obs.Metrics.observe m_snapshot_save dt

let load_snapshot path =
  let c, dt = timed (fun () -> Snapshot.read_file path) in
  Obs.Metrics.observe m_snapshot_load dt;
  of_parts ~stats:(Lazy.from_val c.Snapshot.stats)
    ~db:c.Snapshot.db ~attribute:c.Snapshot.attribute
    ~synopsis:c.Snapshot.synopsis
    ~neighbourhood:(Neighbourhood_index.build c.Snapshot.db) ()
