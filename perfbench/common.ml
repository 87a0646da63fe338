(* What every workload shares: failure accounting, the query budget, and
   the per-layer metrics derived from the traced replay. *)

(* Seconds one query may take before it counts as failed, in process and
   on the server. Admitted queries finish in well under a tenth of it. *)
let budget = 5.0

(* A traced run spends this fraction of [--seconds] untraced, then replays
   the same operations traced (an http-star replay costs about three
   times the untraced requests). *)
let traced_fraction = 1. /. 3.

(* Row cap of every query. *)
let row_limit = 1000

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable messages : string list;  (* the first few failures *)
}

let outcome () = { attempted = 0; failed = 0; messages = [] }

let fail o msg =
  o.failed <- o.failed + 1;
  if List.length o.messages < 8 then o.messages <- msg :: o.messages

type result = {
  outcome : outcome;
  metrics : (string * float * string) list;  (* name, value, unit *)
  report : (string * Obs.Json.t) list;  (* host and workload facts *)
}

(* Every per-layer metric, in BENCHMARK.json order. A traced run prints
   all of them; a layer the workload does not exercise reads 0. *)
let pipeline_layers =
  [
    "parser.parse";
    "rewrite.apply";
    "query_graph.build";
    "analysis.screen";
    "decompose.plan";
    "matcher.seed";
    "matcher.search";
    "embedding.rows";
    "results.to_json";
    "endpoint.handle";
  ]

let per_layer_units =
  List.concat_map
    (fun l -> [ (l ^ "_ms", "ms"); (l ^ "_p95_ms", "ms"); (l ^ "_share", "%") ])
    pipeline_layers
  @ [
      ("rewrite.steps", "count");
      ("matcher.seed_candidates", "count");
      ("stats.qerror_p50", "ratio");
      ("stats.qerror_p95", "ratio");
      ("matcher.candidates_scanned", "count");
      ("matcher.index_probes", "count");
      ("matcher.solutions", "count");
      ("matcher.useful_ratio", "ratio");
      ("matcher.probe_cache_hit_ratio", "ratio");
      ("matcher.lru_hit_ratio", "ratio");
      ("embedding.rows", "count");
      ("results.response_bytes", "B");
      ("endpoint.http_tax_ms", "ms");
      ("synopsis_index.candidates_us", "us");
      ("attribute_index.candidates_us", "us");
      ("neighbourhood_index.neighbours_us", "us");
      ("posting.inter_us.raw", "us");
      ("posting.inter_us.ef", "us");
      ("posting.inter_us.blocked", "us");
      ("posting.next_geq_ns.raw", "ns");
      ("posting.next_geq_ns.ef", "ns");
      ("posting.next_geq_ns.blocked", "ns");
      ("posting.lists.raw", "count");
      ("posting.lists.ef", "count");
      ("posting.lists.blocked", "count");
      ("database.of_triples_s", "s");
      ("attribute_index.build_s", "s");
      ("synopsis_index.build_s", "s");
      ("neighbourhood_index.build_s", "s");
      ("stats.compute_s", "s");
      ("snapshot.load_s", "s");
      ("snapshot.write_s", "s");
      ("endpoint.boot_overhead_s", "s");
      ("resident.adjacency_bytes", "B");
      ("resident.attribute_bytes", "B");
      ("resident.synopsis_bytes", "B");
      ("resident.neighbourhood_bytes", "B");
      ("delta.apply_ms", "ms");
      ("delta.compile_ms", "ms");
      ("delta.size", "count");
      ("live_engine.pin_us", "us");
      ("live_engine.update_p50_ms", "ms");
      ("live_engine.update_p95_ms", "ms");
      ("live_engine.compact_ms", "ms");
      ("trace.overhead_ms", "ms");
    ]

(* Complete a traced run's metrics: every per-layer name once, in list
   order, unexercised layers at 0. *)
let complete measured =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) measured with
      | Some (_, v, _) -> (name, v, unit)
      | None -> (name, 0., unit))
    per_layer_units

let ms = 1000.

(* Self-time metrics of the pipeline layers, and the replay's counters.
   [e2e] is the end-to-end seconds of every traced operation: a layer's
   share is its mean self time per operation over their mean. *)
let pipeline_metrics ~e2e ~response_bytes =
  let total = Util.mean e2e in
  let layer name =
    let per_op = Array.of_list (List.map snd (Trace.per_op_self name)) in
    if per_op = [||] then []
    else
      [
        (name ^ "_ms", Util.median per_op *. ms, "ms");
        (name ^ "_p95_ms", Util.percentile 0.95 per_op *. ms, "ms");
        (name ^ "_share", 100. *. Util.mean per_op /. total, "%");
      ]
  in
  let t = Pipeline.totals in
  let per_query x = float_of_int x /. float_of_int (max 1 t.queries) in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let qerrors = Array.of_list t.qerrors in
  List.concat_map layer pipeline_layers
  @ [
      ("rewrite.steps", per_query t.rewrite_steps, "count");
      ("matcher.seed_candidates", per_query t.seed_candidates, "count");
      ("stats.qerror_p50", Util.median qerrors, "ratio");
      ("stats.qerror_p95", Util.percentile 0.95 qerrors, "ratio");
      ("matcher.candidates_scanned", per_query t.candidates_scanned, "count");
      ("matcher.index_probes", per_query t.index_probes, "count");
      ("matcher.solutions", per_query t.solutions, "count");
      ( "matcher.useful_ratio",
        float_of_int t.solutions /. float_of_int (max 1 t.candidates_scanned),
        "ratio" );
      ("matcher.probe_cache_hit_ratio", ratio t.probe_hits t.probe_misses, "ratio");
      ("matcher.lru_hit_ratio", ratio t.lru_hits t.lru_misses, "ratio");
      ("embedding.rows", per_query t.rows, "count");
      ("results.response_bytes", Util.mean response_bytes, "B");
    ]

(* The configuration [amber serve --timeout 5 --limit 1000] runs with
   (the library default enables open objects; the CLI does not). *)
let endpoint_config =
  {
    Endpoint.default_config with
    timeout = Some budget;
    limit = Some row_limit;
    open_objects = false;
  }

let serve_args = [ "--timeout"; string_of_float budget; "--limit"; string_of_int row_limit ]

(* In-process [Endpoint.handle_request] on the GET an HTTP client sends
   for this query. *)
let handle_in_process source query_text =
  Trace.span "endpoint.handle" (fun () ->
      Endpoint.handle_request endpoint_config source ~meth:"GET"
        ~target:(Http.sparql_target query_text)
        ~headers:[ ("accept", "application/sparql-results+json") ]
        ~body:"")

(* Parse, serialize and handle in process the first [side_queries]
   distinct queries, each under its own operation id from [first_op] on;
   checks that the endpoint's body (from [source]) equals the serialized
   [Engine.query] answer (from [engine], the same data). Returns the
   response sizes. *)
let side_queries = 64

let side_pass o ~first_op ~engine source queries =
  Array.init
    (min side_queries (Array.length queries))
    (fun k ->
      Trace.set_op (first_op + k);
      o.attempted <- o.attempted + 1;
      let answer = Amber.Engine.query ~timeout:budget ~limit:row_limit engine queries.(k) in
      let text = Sparql.Ast.to_string queries.(k) in
      ignore (Trace.span "parser.parse" (fun () -> Sparql.Parser.parse text));
      let json = Trace.span "results.to_json" (fun () -> Amber.Results.to_json answer) in
      let status, _, body = handle_in_process source text in
      if status <> 200 || body <> json then
        fail o (Printf.sprintf "in-process endpoint answer for query %d differs" k);
      float_of_int (String.length json))

(* Each workload's data and query pool are fixed, generated from this
   seed like the paper's fixed datasets and query sets: with a few dozen
   to a few hundred distinct queries, a pool drawn anew per run would
   move p50 and p95 by more than the host's own noise. The run's
   [--seed] orders the operations (and picks live-rw's write batches). *)
let pool_seed = 1

(* Seeded Fisher–Yates permutation: the operation order is a pure
   function of the seed. *)
let shuffled ~seed items =
  let a = Array.of_list items in
  Datagen.Prng.shuffle (Datagen.Prng.create seed) a;
  a

(* Generate [count] queries of each size, then admit those whose search
   stays bounded: at most [max_scanned] candidates scanned on this
   engine (a deterministic counter, so admission is a pure function of
   the program). The complex-shaped family has a rare tail whose
   search runs for minutes (the paper reports such queries as
   unanswered); a fixed-length benchmark cannot hold that steady, so it
   is left out and counted. Returns (admitted, rejected). *)
let max_scanned = 200_000

let admit engine triples ~shape ~sizes ~count =
  let corpus = Datagen.Workload.corpus triples in
  let candidates =
    List.concat_map
      (fun size ->
        Datagen.Workload.generate ~seed:((pool_seed * 1000) + size) corpus ~shape ~size ~count)
      sizes
  in
  let admitted =
    List.filter_map
      (fun q ->
        match Amber.Engine.query_with_stats ~timeout:1.0 ~limit:row_limit engine q with
        | answer, st when st.Amber.Matcher.candidates_scanned <= max_scanned ->
            Some (q, answer)
        | _ -> None
        | exception Amber.Deadline.Expired -> None)
      candidates
  in
  (admitted, List.length candidates - List.length admitted)

(* Answer-size classes. The cost of a query follows the size of its
   answer (rows times variables, the cells enumerated and serialized),
   so a query set drawn at random puts its median and its p95 in a
   different place for every draw. [stratify] keeps the first
   [per_class] admitted queries of each of eight log-spaced size classes
   instead, so the pool has a deliberate mix. Returns the chosen queries
   and the count per class. *)
let class_bounds = [| 10; 32; 100; 316; 1000; 3162; 10_000 |]

let size_class (answer : Amber.Engine.answer) =
  let cells = List.length answer.rows * List.length answer.variables in
  Array.fold_left (fun c b -> if cells >= b then c + 1 else c) 0 class_bounds

let stratify ~per_class admitted =
  let classes = Array.make (Array.length class_bounds + 1) [] in
  List.iter
    (fun ((_, answer) as qa) ->
      let c = size_class answer in
      classes.(c) <- qa :: classes.(c))
    admitted;
  let chosen =
    Array.map (fun l -> List.filteri (fun i _ -> i < per_class) (List.rev l)) classes
  in
  (List.concat (Array.to_list chosen), Array.map List.length chosen)

(* Closed loop, one client: run operation [k mod n] for k = 0, 1, ...
   until [seconds] elapse. [op] returns the seconds it measured. Returns
   the latencies and the operation counts at the end of each pass. *)
let timed_loop ~seconds ~n op =
  let lat = Util.Buf.create () in
  let cuts = ref [] in
  let t_end = Util.now () +. seconds in
  let i = ref 0 in
  while Util.now () < t_end do
    Util.Buf.add lat (op (!i mod n));
    incr i;
    if !i mod n = 0 then cuts := !i :: !cuts
  done;
  (Util.Buf.to_array lat, List.rev !cuts)

(* The end-to-end latency metrics of one operation type, windowed. *)
let latency_metrics ~cuts lat =
  let p50, windows = Util.windowed ~cuts Util.median lat in
  let p95, _ = Util.windowed ~cuts (Util.percentile 0.95) lat in
  ( [ ("latency_p50_ms", p50 *. ms, "ms"); ("latency_p95_ms", p95 *. ms, "ms") ],
    windows )

(* Operations per busy second, windowed like the latencies. *)
let throughput ~cuts lat =
  fst (Util.windowed ~cuts (fun w -> float_of_int (Array.length w) /. Util.sum w) lat)

let host_facts () =
  [
    ("nproc", Util.num (Domain.recommended_domain_count ()));
    ("ocaml", Obs.Json.Str Sys.ocaml_version);
    ("budget_s", Obs.Json.Num budget);
    ("row_limit", Util.num row_limit);
  ]
