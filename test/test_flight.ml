(* Query flight recorder: ring semantics, deterministic sampling, the
   slow/non-Ok capture guarantees, the JSONL sink, what the engine entry
   points record, domain-safe tracing of the parallel matcher, the
   resident-memory accounting behind amber_index_resident_bytes, and a
   memory-regression gate on index bytes and per-query allocation. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

(* A record to offer; the recorder overwrites [id] and [slow] itself. *)
let mk ?(status = Obs.Query_log.Ok) ?(seconds = 0.01) ?(rows = 1) query =
  {
    Obs.Query_log.id = 0;
    at = Unix.gettimeofday ();
    query;
    hash = Obs.Query_log.hash_query query;
    status;
    seconds;
    rows;
    truncated = false;
    domains = 1;
    core_order = [ [ "s" ] ];
    plan_mode = "paper";
    plan_seeds = [ ("s", "scan", 10, 10) ];
    rewrites = [];
    phases = [ ("decompose", 0.001); ("match", 0.008) ];
    candidates_scanned = 10;
    solutions = rows;
    index_probes = 4;
    cache_hits = 2;
    cache_misses = 1;
    analysis = Some "ok";
    gc = Obs.Resource.zero_delta;
    slow = false;
  }

let test_ring_eviction () =
  let log = Obs.Query_log.create ~capacity:3 () in
  for i = 1 to 5 do
    Obs.Query_log.record log (mk (Printf.sprintf "SELECT %d" i))
  done;
  let recent = Obs.Query_log.recent log in
  checki "capacity bounds the ring" 3 (List.length recent);
  (* Ids are 0-based capture sequence numbers. *)
  checkb "newest first, oldest evicted" true
    (List.map (fun r -> r.Obs.Query_log.id) recent = [ 4; 3; 2 ]);
  let seen, captured, sampled_out = Obs.Query_log.stats log in
  checki "seen" 5 seen;
  checki "captured" 5 captured;
  checki "sampled out" 0 sampled_out;
  checki "n caps recent" 2 (List.length (Obs.Query_log.recent ~n:2 log));
  Obs.Query_log.clear log;
  checki "clear empties" 0 (List.length (Obs.Query_log.recent log))

let test_deterministic_sampling () =
  (* Rate 0.25 keeps every 4th Ok record — an accumulator, not a coin
     flip, so the outcome is exact and repeatable. *)
  let log = Obs.Query_log.create ~capacity:32 () in
  Obs.Query_log.configure ~sample_rate:0.25 log;
  for i = 1 to 8 do
    Obs.Query_log.record log (mk (Printf.sprintf "SELECT %d" i))
  done;
  let _, captured, sampled_out = Obs.Query_log.stats log in
  checki "every 4th kept" 2 captured;
  checki "rest sampled out" 6 sampled_out;
  (* The same offers against a fresh recorder capture identically. *)
  let log' = Obs.Query_log.create ~capacity:32 () in
  Obs.Query_log.configure ~sample_rate:0.25 log';
  for i = 1 to 8 do
    Obs.Query_log.record log' (mk (Printf.sprintf "SELECT %d" i))
  done;
  checkb "reproducible" true
    (List.map (fun r -> r.Obs.Query_log.query) (Obs.Query_log.recent log')
    = List.map (fun r -> r.Obs.Query_log.query) (Obs.Query_log.recent log))

let test_slow_and_failures_always_captured () =
  let log = Obs.Query_log.create ~capacity:32 () in
  Obs.Query_log.configure ~sample_rate:0.0 ~slow_threshold:(Some 0.005) log;
  Obs.Query_log.record log (mk ~seconds:0.001 "SELECT fast");
  Obs.Query_log.record log (mk ~seconds:0.02 "SELECT slow");
  Obs.Query_log.record log (mk ~status:Obs.Query_log.Timeout "SELECT late");
  Obs.Query_log.record log
    (mk ~status:(Obs.Query_log.Error "boom") "SELECT broken");
  Obs.Query_log.record log (mk ~status:Obs.Query_log.Unsat "SELECT empty");
  let recent = Obs.Query_log.recent log in
  checki "rate 0 still captures the interesting ones" 4 (List.length recent);
  checkb "fast Ok sampled out" false
    (List.exists (fun r -> r.Obs.Query_log.query = "SELECT fast") recent);
  (match
     List.find_opt (fun r -> r.Obs.Query_log.query = "SELECT slow") recent
   with
  | Some r -> checkb "slow flag assigned at capture" true r.Obs.Query_log.slow
  | None -> Alcotest.fail "slow query must be captured");
  checkb "statuses preserved" true
    (List.exists
       (fun r -> r.Obs.Query_log.status = Obs.Query_log.Timeout)
       recent
    && List.exists
         (fun r -> r.Obs.Query_log.status = Obs.Query_log.Error "boom")
         recent
    && List.exists
         (fun r -> r.Obs.Query_log.status = Obs.Query_log.Unsat)
         recent)

let test_jsonl_sink_roundtrip () =
  let path = Filename.temp_file "amber_flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let log = Obs.Query_log.create ~capacity:8 () in
      Obs.Query_log.set_sink log (Some path);
      checkb "sink path" true (Obs.Query_log.sink_path log = Some path);
      Obs.Query_log.record log (mk ~rows:3 "SELECT a");
      Obs.Query_log.record log
        (mk ~status:(Obs.Query_log.Error {|quote " and \ slash|}) "SELECT b");
      Obs.Query_log.set_sink log None;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      checki "one line per record" 2 (List.length lines);
      List.iter
        (fun line ->
          match Obs.Json.parse_opt line with
          | None -> Alcotest.fail ("sink line is not valid JSON: " ^ line)
          | Some _ -> ())
        lines;
      let first = Obs.Json.parse (List.hd lines) in
      let str k = Option.bind (Obs.Json.member k first) Obs.Json.to_string in
      let num k = Option.bind (Obs.Json.member k first) Obs.Json.to_float in
      checkb "query text" true (str "query" = Some "SELECT a");
      checkb "hash matches" true
        (str "hash" = Some (Obs.Query_log.hash_query "SELECT a"));
      checkb "status slug" true (str "status" = Some "ok");
      checkb "rows" true (num "rows" = Some 3.);
      checkb "phases object" true
        (match Obs.Json.member "phases" first with
        | Some (Obs.Json.Obj fields) -> List.mem_assoc "match" fields
        | _ -> false);
      checkb "gc delta embedded" true
        (match Obs.Json.member "gc" first with
        | Some gc -> Obs.Json.member "allocated_bytes" gc <> None
        | None -> false);
      (* The error message with JSON metacharacters round-trips. *)
      let second = Obs.Json.parse (List.nth lines 1) in
      checkb "error message" true
        (Option.bind (Obs.Json.member "error" second) Obs.Json.to_string
        = Some {|quote " and \ slash|}))

(* --- what the engine records ---------------------------------------- *)

let flight_engine = lazy (Amber.Engine.build Fixtures.paper_triples)

let reset_default_log () =
  Obs.Query_log.configure ~sample_rate:1.0 ~slow_threshold:None
    Obs.Query_log.default;
  Obs.Query_log.set_sink Obs.Query_log.default None;
  Obs.Query_log.clear Obs.Query_log.default

let last_record () =
  match Obs.Query_log.recent ~n:1 Obs.Query_log.default with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected exactly one record, got %d" (List.length rs)

let test_engine_records_ok () =
  reset_default_log ();
  let e = Lazy.force flight_engine in
  let ast = Sparql.Parser.parse Fixtures.paper_query_text in
  let answer = Amber.Engine.query e ast in
  match Obs.Query_log.recent ~n:1 Obs.Query_log.default with
  | [ r ] ->
      checkb "status ok" true (r.Obs.Query_log.status = Obs.Query_log.Ok);
      checks "canonical text" (Sparql.Ast.to_string ast) r.Obs.Query_log.query;
      checks "hash of canonical text"
        (Obs.Query_log.hash_query (Sparql.Ast.to_string ast))
        r.Obs.Query_log.hash;
      checki "rows" (List.length answer.Amber.Engine.rows) r.Obs.Query_log.rows;
      checkb "phases recorded" true
        (List.for_all
           (fun p -> List.mem_assoc p r.Obs.Query_log.phases)
           [ "decompose"; "analyze"; "match"; "enumerate" ]);
      checkb "core order recorded" true (r.Obs.Query_log.core_order <> []);
      checkb "some allocation attributed" true
        (Obs.Resource.allocated_bytes r.Obs.Query_log.gc > 0.);
      checkb "duration plausible" true (r.Obs.Query_log.seconds >= 0.);
      (* Plain and profiled runs build the same analysis report. *)
      ignore (Amber.Engine.run ~profile:true e (`Parsed (Sparql.Parser.Q_select ast)));
      checkb "analysis ran" true (r.Obs.Query_log.analysis <> None);
      checkb "analysis slug as profiled" true
        ((last_record ()).Obs.Query_log.analysis = r.Obs.Query_log.analysis)
  | rs -> Alcotest.failf "expected exactly one record, got %d" (List.length rs)

let test_engine_records_unsat () =
  reset_default_log ();
  let e = Lazy.force flight_engine in
  let ast =
    Sparql.Parser.parse
      {|SELECT ?s WHERE { ?s <http://amber.invalid/no-such-predicate> ?o }|}
  in
  let answer = Amber.Engine.query e ast in
  checki "no rows" 0 (List.length answer.Amber.Engine.rows);
  match Obs.Query_log.recent ~n:1 Obs.Query_log.default with
  | [ r ] ->
      checkb "status unsat" true (r.Obs.Query_log.status = Obs.Query_log.Unsat);
      checkb "analyzer outcome" true (r.Obs.Query_log.analysis = Some "unsat")
  | rs -> Alcotest.failf "expected exactly one record, got %d" (List.length rs)

(* A workload big enough that the matcher's amortized deadline polling
   (every 256 checks) is guaranteed to fire on an already-dead clock. *)
let lubm_engine =
  lazy (Amber.Engine.build (Datagen.Lubm.generate ~seed:7 ~universities:1 ()))

let lubm_triangle =
  let ub l = "http://swat.lehigh.edu/onto/univ-bench.owl#" ^ l in
  lazy
    (Sparql.Parser.parse
       (Printf.sprintf
          "SELECT * WHERE { ?s <%s> ?prof . ?prof <%s> ?dept . ?s <%s> ?dept }"
          (ub "advisor") (ub "worksFor") (ub "memberOf")))

let test_engine_records_timeout () =
  reset_default_log ();
  let e = Lazy.force lubm_engine in
  (match Amber.Engine.query ~timeout:(-1.0) e (Lazy.force lubm_triangle) with
  | _ -> Alcotest.fail "a negative timeout must expire"
  | exception Amber.Deadline.Expired -> ());
  match Obs.Query_log.recent ~n:1 Obs.Query_log.default with
  | [ r ] ->
      checkb "status timeout" true
        (r.Obs.Query_log.status = Obs.Query_log.Timeout)
  | rs -> Alcotest.failf "expected exactly one record, got %d" (List.length rs)

let test_timeout_keeps_phases () =
  let e = Lazy.force lubm_engine in
  List.iter
    (fun profile ->
      reset_default_log ();
      let label s = Printf.sprintf "%s (profile=%b)" s profile in
      (match
         Amber.Engine.run ~timeout:(-1.0) ~profile e
           (`Parsed (Sparql.Parser.Q_select (Lazy.force lubm_triangle)))
       with
      | _ -> Alcotest.fail "a negative timeout must expire"
      | exception Amber.Deadline.Expired -> ());
      let r = last_record () in
      let names = List.map fst r.Obs.Query_log.phases in
      checkb (label "status timeout") true
        (r.Obs.Query_log.status = Obs.Query_log.Timeout);
      checkb (label "completed phases kept") true
        (List.mem "decompose" names && List.mem "analyze" names);
      checkb (label "the raising match phase kept") true
        (match List.rev names with "match" :: _ -> true | _ -> false);
      checkb (label "core order kept") true (r.Obs.Query_log.core_order <> []))
    [ false; true ]

(* A run that times out after scanning candidates still adds its
   matcher work to the counters; only answered runs count as queries. *)
let test_timeout_counts_work () =
  let e = Lazy.force lubm_engine in
  let counter name = Obs.Metrics.counter Obs.Metrics.default name in
  let scanned = counter "amber_matcher_candidates_scanned_total" in
  let queries = counter "amber_queries_total" in
  let scanned0 = Obs.Metrics.counter_value scanned in
  let queries0 = Obs.Metrics.counter_value queries in
  let r =
    match Amber.Engine.query ~timeout:(-1.0) e (Lazy.force lubm_triangle) with
    | _ -> Alcotest.fail "a negative timeout must expire"
    | exception Amber.Deadline.Expired -> last_record ()
  in
  checkb "the run scanned candidates" true (r.Obs.Query_log.candidates_scanned > 0);
  checki "its scans are counted" r.Obs.Query_log.candidates_scanned
    (Obs.Metrics.counter_value scanned - scanned0);
  checki "not counted as answered" 0 (Obs.Metrics.counter_value queries - queries0)

(* A compaction's flight record names its five steps, and they add up to
   no more than its pin-to-publish time. *)
let test_compaction_phases () =
  let dir = Filename.temp_file "amber-flight" ".live" in
  Sys.remove dir;
  let live =
    Amber.Live_engine.of_engine ~dir (Amber.Engine.build Fixtures.paper_triples)
  in
  ignore
    (Amber.Live_engine.update live
       ~adds:[ Rdf.Triple.spo (Fixtures.x "Nobody") (Fixtures.y "diedIn")
                 (Rdf.Term.iri (Fixtures.x "London")) ]
       ~dels:[]);
  reset_default_log ();
  ignore (Amber.Live_engine.compact live);
  ignore (Amber.Live_engine.settle live);
  let r = last_record () in
  checkb "status compaction" true (r.Obs.Query_log.status = Obs.Query_log.Compaction);
  Alcotest.(check (list string))
    "one phase per step"
    [ "freeze"; "index"; "snapshot"; "rebase"; "manifest" ]
    (List.map fst r.Obs.Query_log.phases);
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0. r.Obs.Query_log.phases in
  checkb "phases within the pause" true (sum <= r.Obs.Query_log.seconds);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_plain_profiled_same_analysis () =
  (* Two variable-disjoint groups: the lints warn of a Cartesian
     product, whichever way the query runs. *)
  let e = Lazy.force flight_engine in
  let ast =
    Sparql.Parser.parse
      (Printf.sprintf "SELECT * WHERE { ?a <%s> ?b . ?c <%s> ?d }"
         (Fixtures.y "wasBornIn") (Fixtures.y "diedIn"))
  in
  let warnings =
    Obs.Metrics.counter Obs.Metrics.default "amber_analysis_warning_total"
  in
  let observe profile =
    reset_default_log ();
    let before = Obs.Metrics.counter_value warnings in
    ignore (Amber.Engine.run ~profile e (`Parsed (Sparql.Parser.Q_select ast)));
    ( (last_record ()).Obs.Query_log.analysis,
      Obs.Metrics.counter_value warnings - before )
  in
  let plain_slug, plain_bump = observe false in
  let profiled_slug, profiled_bump = observe true in
  checkb "the Cartesian product is warned about" true (plain_bump > 0);
  checkb "same analysis slug" true (plain_slug = profiled_slug);
  checki "same warning bump" profiled_bump plain_bump

let test_profiled_phases_match_spans () =
  let e = Lazy.force flight_engine in
  let phase_names profile =
    reset_default_log ();
    let r = Amber.Engine.run ~profile e (`Text Fixtures.paper_query_text) in
    (List.map fst (last_record ()).Obs.Query_log.phases, r)
  in
  let profiled, r = phase_names true in
  let span = (Option.get r.Amber.Engine.profile).Amber.Profile.span in
  Alcotest.(check (list string))
    "flight phases = root's child spans"
    (List.map Obs.Span.name (Obs.Span.children span))
    profiled;
  (* The plain run walks the same phases, parse included, and skips
     only the profile's candidate report. *)
  Alcotest.(check (list string))
    "plain phases = profiled phases without candidates"
    (List.filter (( <> ) "candidates") profiled)
    (fst (phase_names false))

let test_profiled_parallel_tree () =
  (* The acceptance criterion for domain-safe tracing: a profiled query
     at domains:4 yields a complete merged phase tree — worker chunks
     appear under the match span with their own domain ids. *)
  reset_default_log ();
  let e = Lazy.force flight_engine in
  let p =
    Option.get
      (Amber.Engine.run ~opts:{ Amber.Engine.Opts.default with domains = 4 } ~profile:true e
         (`Text Fixtures.paper_query_text))
        .Amber.Engine.profile
  in
  let span = p.Amber.Profile.span in
  let match_span =
    match Obs.Span.find span "match" with
    | Some s -> s
    | None -> Alcotest.fail "match phase missing"
  in
  let chunks =
    List.filter (fun k -> Obs.Span.name k = "chunk") (Obs.Span.children match_span)
  in
  checkb "worker chunks merged into the tree" true (chunks <> []);
  List.iter
    (fun chunk ->
      checkb "chunk annotated with component" true
        (List.mem_assoc "component" (Obs.Span.meta chunk));
      checkb "chunk annotated with seeds" true
        (List.mem_assoc "seeds" (Obs.Span.meta chunk)))
    chunks;
  (* Which domain ran each chunk is the pool's choice (the caller
     steals work too, so on a small host every chunk may land on the
     root domain) — but each chunk must carry a valid domain id, and
     the exported trace must put every span in its own domain's lane. *)
  List.iter
    (fun chunk -> checkb "chunk domain id" true (Obs.Span.domain chunk >= 0))
    chunks;
  let events = Test_obs.check_chrome_trace (Obs.Span.to_chrome_json span) in
  let tids =
    List.sort_uniq compare
      (List.filter_map
         (fun ev -> Option.bind (Obs.Json.member "tid" ev) Obs.Json.to_float)
         events)
  in
  let span_domains =
    let rec walk s acc =
      List.fold_left
        (fun acc k -> walk k acc)
        (float_of_int (Obs.Span.domain s) :: acc)
        (Obs.Span.children s)
    in
    List.sort_uniq compare (walk span [])
  in
  checkb "trace lanes are exactly the recorded domains" true
    (tids = span_domains);
  (* And the flight record saw the same run. *)
  match Obs.Query_log.recent ~n:1 Obs.Query_log.default with
  | [ r ] ->
      checki "domains recorded" 4 r.Obs.Query_log.domains;
      checkb "profiled run has phases too" true
        (List.mem_assoc "match" r.Obs.Query_log.phases)
  | rs -> Alcotest.failf "expected exactly one record, got %d" (List.length rs)

(* --- concurrency ----------------------------------------------------- *)

let test_atomic_counter_stress () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "stress_total" in
  let per_domain = 50_000 in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Metrics.incr c
            done;
            Obs.Metrics.add c per_domain))
  in
  List.iter Domain.join workers;
  (* Atomic counters lose nothing: 4 × (50k incr + one add of 50k). *)
  checki "no lost increments" (4 * 2 * per_domain) (Obs.Metrics.counter_value c)

let test_query_log_stress () =
  let log = Obs.Query_log.create ~capacity:64 () in
  let per_domain = 100 in
  let workers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Query_log.record log
                (mk (Printf.sprintf "SELECT d%d q%d" d i))
            done))
  in
  List.iter Domain.join workers;
  let seen, captured, sampled_out = Obs.Query_log.stats log in
  checki "all offers seen" (4 * per_domain) seen;
  checki "rate 1.0 captures all" (4 * per_domain) captured;
  checki "none sampled out" 0 sampled_out;
  let recent = Obs.Query_log.recent log in
  checki "ring full" 64 (List.length recent);
  let ids = List.map (fun r -> r.Obs.Query_log.id) recent in
  checki "ids unique under contention" 64
    (List.length (List.sort_uniq compare ids));
  (* 0-based ids: the ring holds exactly the last 64 of 0..399. *)
  checkb "ids dense at the top" true
    (List.sort compare ids
    = List.init 64 (fun i -> (4 * per_domain) - 64 + i))

(* --- resident-memory accounting -------------------------------------- *)

let test_resident_bytes () =
  let e = Lazy.force flight_engine in
  let resident = Amber.Engine.resident_bytes e in
  checkb "all three indexes reported" true
    (List.sort compare (List.map fst resident)
    = [ "adjacency"; "attribute"; "synopsis" ]);
  List.iter
    (fun (name, bytes) ->
      checkb (name ^ " resident bytes positive") true (bytes > 0))
    resident;
  Amber.Engine.sync_resource_metrics e;
  let text = Obs.Metrics.render_prometheus Obs.Metrics.default in
  List.iter
    (fun (name, bytes) ->
      checkb (name ^ " gauge exported") true
        (contains text
           (Printf.sprintf {|amber_index_resident_bytes{index="%s"} %d|} name
              bytes)))
    resident

(* Memory-regression gate. The seven byte figures below were recorded
   by this test itself on this exact workload (DBPEDIA-like at scale
   0.15, seed 2016; 12 star and 12 complex queries, row limit 20 000).
   Byte counts do not depend on host speed, and no timeout is set, so
   every query runs to its row limit everywhere; two runs give identical
   figures. The rule: the median relative change over the seven figures
   may not exceed +20%. Re-record the figures when a change lowers them
   for good, so that the gate stays tight. *)
let recorded_bytes =
  [
    ("adjacency", 1_641_536.);
    ("attribute", 319_736.);
    ("synopsis", 1_368_528.);
    ("total resident", 3_329_800.);
    ("mean alloc/query", 4_783_846.0);
    ("p95 alloc/query", 25_723_368.);
    ("max alloc/query", 27_679_448.);
  ]

let test_memory_vs_baseline () =
  let triples =
    Datagen.Scale_free.generate ~seed:2016
      (Datagen.Scale_free.dbpedia_like ~scale:0.15 ())
  in
  let engine = Amber.Engine.build triples in
  let resident = Amber.Engine.resident_bytes engine in
  let corpus = Datagen.Workload.corpus triples in
  let workload =
    Datagen.Workload.generate ~seed:2087 corpus ~shape:Datagen.Workload.Star
      ~size:20 ~count:12
    @ Datagen.Workload.generate ~seed:2088 corpus
        ~shape:Datagen.Workload.Complex ~size:30 ~count:12
  in
  let allocs =
    List.map
      (fun ast ->
        Obs.Resource.allocated_bytes
          (snd
             (Obs.Resource.gc_delta (fun () ->
                  Amber.Engine.query ~limit:20_000 engine ast))))
      workload
  in
  let resident_of name = float_of_int (List.assoc name resident) in
  let current =
    [
      resident_of "adjacency";
      resident_of "attribute";
      resident_of "synopsis";
      float_of_int (List.fold_left (fun acc (_, b) -> acc + b) 0 resident);
      Bench_util.Stats.mean allocs;
      Bench_util.Stats.p95 allocs;
      Bench_util.Stats.maximum allocs;
    ]
  in
  let changes =
    List.map2 (fun (_, base) cur -> (cur -. base) /. base) recorded_bytes current
  in
  let median = Bench_util.Stats.median changes in
  checkb
    (Printf.sprintf "median byte change %+.1f%% <= +20%% (%s)" (100. *. median)
       (String.concat ", "
          (List.map2
             (fun (name, _) c -> Printf.sprintf "%s %+.1f%%" name (100. *. c))
             recorded_bytes changes)))
    true (median <= 0.20)

let suite =
  [
    ( "flight",
      [
        Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
        Alcotest.test_case "deterministic sampling" `Quick test_deterministic_sampling;
        Alcotest.test_case "slow and failures captured" `Quick
          test_slow_and_failures_always_captured;
        Alcotest.test_case "jsonl sink roundtrip" `Quick test_jsonl_sink_roundtrip;
        Alcotest.test_case "engine records ok" `Quick test_engine_records_ok;
        Alcotest.test_case "engine records unsat" `Quick test_engine_records_unsat;
        Alcotest.test_case "engine records timeout" `Quick test_engine_records_timeout;
        Alcotest.test_case "profiled parallel tree" `Quick test_profiled_parallel_tree;
        Alcotest.test_case "atomic counter stress" `Quick test_atomic_counter_stress;
        Alcotest.test_case "query log stress" `Quick test_query_log_stress;
        Alcotest.test_case "resident bytes" `Quick test_resident_bytes;
        Alcotest.test_case "memory vs recorded baseline" `Quick
          test_memory_vs_baseline;
        Alcotest.test_case "timeout keeps phases" `Quick test_timeout_keeps_phases;
        Alcotest.test_case "timeout counts matcher work" `Quick
          test_timeout_counts_work;
        Alcotest.test_case "compaction phases" `Quick test_compaction_phases;
        Alcotest.test_case "plain and profiled analysis agree" `Quick
          test_plain_profiled_same_analysis;
        Alcotest.test_case "profiled phases are the spans" `Quick
          test_profiled_phases_match_spans;
      ] );
  ]
