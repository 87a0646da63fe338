(* Benchmark harness regenerating every table and figure of the paper's
   Section 7 on the scaled synthetic datasets (see DESIGN.md §3-§4), plus
   a Bechamel micro-benchmark suite (--micro).

   Experiments:
     table1  - avg time, complex queries of 50 triples, DBPEDIA-like
     table4  - benchmark statistics
     table5  - offline stage: database + index construction time/memory
     fig6/7  - star/complex queries on DBPEDIA-like (time + %unanswered)
     fig8/9  - star/complex queries on YAGO-like
     fig10/11- star/complex queries on LUBM *)

type config = {
  scale : float;
  universities : int;
  timeout : float;
  queries_per_point : int;
  sizes : int list;
  row_limit : int;
  seed : int;
  only : string list;  (* empty = all *)
  micro : bool;
  json_path : string option;
  baseline : string option;
  layout : Mgraph.Posting.policy;  (* posting layout for engine builds *)
}

let default_config =
  {
    scale = 0.15;
    universities = 2;
    timeout = 1.0;
    queries_per_point = 12;
    sizes = [ 10; 20; 30; 40; 50 ];
    row_limit = 20_000;
    seed = 2016;
    only = [];
    micro = false;
    json_path = None;
    baseline = None;
    layout = Mgraph.Posting.Auto;
  }

let usage () =
  print_endline
    {|usage: bench [--only ids] [--scale F] [--timeout S] [--queries N]
             [--sizes a,b,c] [--limit N] [--seed N] [--quick] [--micro]
             [--json FILE] [--baseline FILE] [--layout raw|ef|blocked|auto]

  ids: table1 table4 table5 fig6..fig11 ablation profile kernels parallel
       build analysis resource layouts updates plans rewrites (comma
       separated)
  --quick: small preset (scale 0.04, 5 queries/point, sizes 10,20,30)
  --json:  also write a machine-readable report (summaries with
           p95/p99, per-phase breakdowns, metrics registry) to FILE
  --baseline: compare this run's timings and memory footprints against
           an earlier --json report; a suite whose median timing or
           resident-bytes figure regresses by more than 20%% makes the
           run exit non-zero
  --layout: posting-list layout for the engine's frozen indexes
           (default auto; force raw/ef/blocked for ablation)|};
  exit 0

let parse_args () =
  let cfg = ref default_config in
  let rec go = function
    | [] -> ()
    | "--help" :: _ -> usage ()
    | "--only" :: v :: rest ->
        cfg := { !cfg with only = String.split_on_char ',' v };
        go rest
    | "--scale" :: v :: rest ->
        cfg := { !cfg with scale = float_of_string v };
        go rest
    | "--timeout" :: v :: rest ->
        cfg := { !cfg with timeout = float_of_string v };
        go rest
    | "--queries" :: v :: rest ->
        cfg := { !cfg with queries_per_point = int_of_string v };
        go rest
    | "--sizes" :: v :: rest ->
        cfg :=
          { !cfg with sizes = List.map int_of_string (String.split_on_char ',' v) };
        go rest
    | "--limit" :: v :: rest ->
        cfg := { !cfg with row_limit = int_of_string v };
        go rest
    | "--seed" :: v :: rest ->
        cfg := { !cfg with seed = int_of_string v };
        go rest
    | "--quick" :: rest ->
        cfg :=
          {
            !cfg with
            scale = 0.04;
            universities = 1;
            queries_per_point = 5;
            sizes = [ 10; 20; 30 ];
            timeout = 0.5;
          };
        go rest
    | "--micro" :: rest ->
        cfg := { !cfg with micro = true };
        go rest
    | "--json" :: v :: rest ->
        cfg := { !cfg with json_path = Some v };
        go rest
    | "--baseline" :: v :: rest ->
        cfg := { !cfg with baseline = Some v };
        go rest
    | "--layout" :: v :: rest ->
        (match Mgraph.Posting.policy_of_string v with
        | Some p -> cfg := { !cfg with layout = p }
        | None ->
            Printf.eprintf "unknown layout %s (raw|ef|blocked|auto)\n" v;
            exit 1);
        go rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n" arg;
        exit 1
  in
  go (List.tl (Array.to_list Sys.argv));
  !cfg

let wants cfg id = cfg.only = [] || List.mem id cfg.only

let section title =
  Printf.printf "\n=== %s ===\n%!" title

(* --- machine-readable report (--json) ------------------------------- *)

(* Experiments append (key, json-value) pairs; the report is one object
   in insertion order, written once at the end of the run. *)
let json_entries : (string * string) list ref = ref []
let add_json key value = json_entries := (key, value) :: !json_entries

let write_json_report cfg =
  match cfg.json_path with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 4096 in
      Buffer.add_string buf
        (Printf.sprintf
           {|{"config":{"scale":%g,"timeout":%g,"queries_per_point":%d,"row_limit":%d,"seed":%d}|}
           cfg.scale cfg.timeout cfg.queries_per_point cfg.row_limit cfg.seed);
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf {|,"%s":%s|} k v))
        (List.rev !json_entries);
      (* The engine-side counters accumulated over the whole run. *)
      Buffer.add_string buf
        (Printf.sprintf {|,"metrics":%s}|}
           (Obs.Metrics.render_json Obs.Metrics.default));
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote JSON report to %s\n" path

(* --- baseline comparison (--baseline) ------------------------------ *)

(* Every timing this harness records ends in "_s" or "_ns", and every
   memory figure in "_bytes"; the comparator pairs those fields by path
   between the baseline report and this run, suite by suite, so it keeps
   working as suites grow fields — and catches resident-memory
   regressions, not just slowdowns. *)
let key_ends k suffix =
  let lk = String.length k and ls = String.length suffix in
  lk > ls && String.sub k (lk - ls) ls = suffix

let is_timing_key ~path:_ k = key_ends k "_s" || key_ends k "_ns"

(* A field is a memory figure when its own key — or any enclosing
   object's key — ends in "_bytes": the resource suite's
   [resident_bytes] map keys entries by index name under a "_bytes"
   parent. *)
let is_bytes_key ~path k =
  key_ends k "_bytes"
  || List.exists
       (fun part -> key_ends part "_bytes")
       (String.split_on_char '.' path)

let rec collect_fields pred prefix value acc =
  match value with
  | Obs.Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          let path = if prefix = "" then k else prefix ^ "." ^ k in
          match v with
          | Obs.Json.Num f when pred ~path k -> (path, f) :: acc
          | _ -> collect_fields pred path v acc)
        acc fields
  | Obs.Json.Arr items ->
      let acc = ref acc in
      List.iteri
        (fun i item ->
          acc :=
            collect_fields pred (Printf.sprintf "%s[%d]" prefix i) item !acc)
        items;
      !acc
  | _ -> acc

(* Compare this run's suites against a previous --json report. Returns
   [true] when no suite's median timing or median memory figure
   regressed by more than 20%. *)
let compare_with_baseline cfg =
  match cfg.baseline with
  | None -> true
  | Some path -> (
      let text =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Obs.Json.parse_opt text with
      | Some (Obs.Json.Obj base_fields) ->
          section (Printf.sprintf "Baseline comparison vs %s" path);
          let current =
            List.filter_map
              (fun (k, v) ->
                Option.map (fun j -> (k, j)) (Obs.Json.parse_opt v))
              (List.rev !json_entries)
          in
          let rows = ref [] and regressed = ref [] in
          (* Fields (or whole suites) present on only one side cannot
             regress, but silently skipping them would let either report
             drift out of the gate's coverage — a new field this run
             grew, or an old one a refactor dropped, both deserve a
             note. So each direction warns on stderr (never fails the
             run). *)
          let deltas_of ~suite ~kind pred base_json cur_json =
            let base = collect_fields pred "" base_json [] in
            let cur = collect_fields pred "" cur_json [] in
            List.iter
              (fun (p, _) ->
                if not (List.mem_assoc p base) then
                  Printf.eprintf
                    "warning: baseline lacks %s field %s.%s present in this \
                     run; not compared\n\
                     %!"
                    kind suite p)
              cur;
            List.iter
              (fun (p, _) ->
                if not (List.mem_assoc p cur) then
                  Printf.eprintf
                    "warning: this run lacks %s field %s.%s present in the \
                     baseline; not compared\n\
                     %!"
                    kind suite p)
              base;
            List.filter_map
              (fun (p, b) ->
                if b > 1e-9 then
                  Option.map (fun c -> (c -. b) /. b) (List.assoc_opt p cur)
                else None)
              base
          in
          List.iter
            (fun (suite, cur_json) ->
              match List.assoc_opt suite base_fields with
              | None ->
                  Printf.eprintf
                    "warning: baseline has no \"%s\" suite present in this \
                     run; not compared\n\
                     %!"
                    suite
              | Some base_json ->
                  let timings =
                    deltas_of ~suite ~kind:"timing" is_timing_key base_json
                      cur_json
                  in
                  let bytes =
                    deltas_of ~suite ~kind:"bytes" is_bytes_key base_json
                      cur_json
                  in
                  let judge kind deltas =
                    if deltas = [] then ("-", "-", false)
                    else
                      let med = Bench_util.Stats.median deltas in
                      let worst = Bench_util.Stats.maximum deltas in
                      let flagged = med > 0.20 in
                      if flagged then
                        regressed := (suite ^ " " ^ kind) :: !regressed;
                      ( Printf.sprintf "%+.1f%%" (100. *. med),
                        Printf.sprintf "%+.1f%%" (100. *. worst),
                        flagged )
                  in
                  if timings <> [] || bytes <> [] then begin
                    let t_med, t_worst, t_flag = judge "timings" timings in
                    let b_med, b_worst, b_flag = judge "bytes" bytes in
                    rows :=
                      [
                        suite;
                        Printf.sprintf "%d/%d" (List.length timings)
                          (List.length bytes);
                        t_med;
                        t_worst;
                        b_med;
                        b_worst;
                        (if t_flag || b_flag then "REGRESSION" else "ok");
                      ]
                      :: !rows
                  end)
            current;
          List.iter
            (fun (suite, _) ->
              if not (List.mem_assoc suite current) then
                Printf.eprintf
                  "warning: this run has no \"%s\" suite present in the \
                   baseline; not compared\n\
                   %!"
                  suite)
            base_fields;
          if !rows = [] then begin
            Printf.printf
              "no timing or bytes fields shared with the baseline (different \
               suites?)\n";
            true
          end
          else begin
            Bench_util.Table_fmt.print
              ~header:
                [
                  "suite";
                  "fields t/b";
                  "time median";
                  "time worst";
                  "bytes median";
                  "bytes worst";
                  "verdict";
                ]
              (List.rev !rows);
            (match !regressed with
            | [] ->
                Printf.printf
                  "no suite regressed past the 20%% gate (timings or bytes)\n"
            | suites ->
                Printf.printf "REGRESSED (median > +20%%): %s\n"
                  (String.concat ", " (List.rev suites)));
            !regressed = []
          end
      | Some _ | None ->
          Printf.eprintf "baseline %s is not a JSON report object\n" path;
          false)

(* ------------------------------------------------------------------ *)
(* Engines under comparison                                            *)
(* ------------------------------------------------------------------ *)

type engine_instance =
  | Instance :
      (module Baselines.Engine_sig.S with type t = 'e) * 'e
      -> engine_instance

let load_engines triples =
  let make (type e) (module E : Baselines.Engine_sig.S with type t = e) =
    (E.name, Instance ((module E), E.load triples))
  in
  [
    make (module Baselines.Amber_adapter);
    make (module Baselines.Sig_store);
    make (module Baselines.Column_store);
    make (module Baselines.Triple_store);
    make (module Baselines.Nested_loop);
  ]

let run_workload (Instance ((module E), store)) ~timeout ~limit queries =
  Bench_util.Runner.run_workload (module E) store ~timeout ~limit queries

(* ------------------------------------------------------------------ *)
(* Datasets (built lazily, shared across experiments)                  *)
(* ------------------------------------------------------------------ *)

type dataset = {
  ds_name : string;
  triples : Rdf.Triple.t list Lazy.t;
  corpus : Datagen.Workload.corpus Lazy.t;
  engines : (string * engine_instance) list Lazy.t;
}

let make_dataset name triples =
  let triples = Lazy.from_fun triples in
  {
    ds_name = name;
    triples;
    corpus = lazy (Datagen.Workload.corpus (Lazy.force triples));
    engines = lazy (load_engines (Lazy.force triples));
  }

let datasets cfg =
  let dbpedia =
    make_dataset "DBPEDIA-like" (fun () ->
        Datagen.Scale_free.generate ~seed:cfg.seed
          (Datagen.Scale_free.dbpedia_like ~scale:cfg.scale ()))
  in
  let yago =
    make_dataset "YAGO-like" (fun () ->
        Datagen.Scale_free.generate ~seed:(cfg.seed + 1)
          (Datagen.Scale_free.yago_like ~scale:cfg.scale ()))
  in
  let lubm =
    make_dataset
      (Printf.sprintf "LUBM%d" cfg.universities)
      (fun () -> Datagen.Lubm.generate ~seed:(cfg.seed + 2) ~universities:cfg.universities ())
  in
  (dbpedia, yago, lubm)

(* ------------------------------------------------------------------ *)
(* Table 4: benchmark statistics                                       *)
(* ------------------------------------------------------------------ *)

let bench_table4 all_datasets =
  section "Table 4: Benchmark Statistics";
  let rows =
    List.map
      (fun ds ->
        let db = Amber.Database.of_triples (Lazy.force ds.triples) in
        let g = Amber.Database.graph db in
        [
          ds.ds_name;
          string_of_int (Amber.Database.triple_count db);
          string_of_int (Mgraph.Multigraph.vertex_count g);
          string_of_int (Mgraph.Multigraph.triple_edge_count g);
          string_of_int (Amber.Database.edge_type_count db);
        ])
      all_datasets
  in
  Bench_util.Table_fmt.print
    ~header:[ "Dataset"; "#Triples"; "#Vertices"; "#Edges"; "#Edge types" ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 5: offline stage                                              *)
(* ------------------------------------------------------------------ *)

let live_mb () =
  Gc.compact ();
  float_of_int (Gc.stat ()).Gc.live_words *. float_of_int (Sys.word_size / 8)
  /. 1_048_576.0

let bench_table5 all_datasets =
  section "Table 5: Offline stage - database and index construction";
  let rows =
    List.map
      (fun ds ->
        let triples = Lazy.force ds.triples in
        let m0 = live_mb () in
        let t_db, db = Bench_util.Runner.time (fun () -> Amber.Database.of_triples triples) in
        let m1 = live_mb () in
        let t_idx, indexes =
          Bench_util.Runner.time (fun () ->
              ( Amber.Attribute_index.build db,
                Amber.Synopsis_index.build db,
                Amber.Neighbourhood_index.build db ))
        in
        let m2 = live_mb () in
        ignore (Sys.opaque_identity indexes);
        let db_size = m1 -. m0 and idx_size = m2 -. m1 in
        [
          ds.ds_name;
          Printf.sprintf "%.2f" t_db;
          Printf.sprintf "%.1f" db_size;
          Printf.sprintf "%.2f" t_idx;
          Printf.sprintf "%.1f" idx_size;
        ])
      all_datasets
  in
  Bench_util.Table_fmt.print
    ~header:
      [ "Dataset"; "DB build (s)"; "DB size (MB)"; "Index build (s)"; "Index size (MB)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 1: complex queries of 50 triples on DBPEDIA-like              *)
(* ------------------------------------------------------------------ *)

let bench_table1 cfg dbpedia =
  section
    (Printf.sprintf
       "Table 1: Average time (ms), %d complex queries with 50 triple patterns, %s"
       (2 * cfg.queries_per_point) dbpedia.ds_name);
  let queries =
    Datagen.Workload.generate ~seed:cfg.seed (Lazy.force dbpedia.corpus)
      ~shape:Datagen.Workload.Complex ~size:50
      ~count:(2 * cfg.queries_per_point)
  in
  Printf.printf "(%d queries generated; timeout %.1fs)\n" (List.length queries)
    cfg.timeout;
  let summaries =
    List.map
      (fun (name, inst) ->
        (name, run_workload inst ~timeout:cfg.timeout ~limit:cfg.row_limit queries))
      (Lazy.force dbpedia.engines)
  in
  let rows =
    List.map
      (fun (name, s) ->
        [
          name;
          (if s.Bench_util.Runner.answered = 0 then "> timeout"
           else Bench_util.Table_fmt.ms s.Bench_util.Runner.mean_time);
          (if s.Bench_util.Runner.answered = 0 then "-"
           else Bench_util.Table_fmt.ms s.Bench_util.Runner.p95_time);
          (if s.Bench_util.Runner.answered = 0 then "-"
           else Bench_util.Table_fmt.ms s.Bench_util.Runner.p99_time);
          Printf.sprintf "%d/%d" s.Bench_util.Runner.answered
            (s.Bench_util.Runner.answered + s.Bench_util.Runner.unanswered);
        ])
      summaries
  in
  Bench_util.Table_fmt.print
    ~header:[ "Engine"; "Mean time (ms)"; "p95 (ms)"; "p99 (ms)"; "Answered" ]
    rows;
  add_json "table1"
    (Printf.sprintf {|{"dataset":"%s","engines":[%s]}|} dbpedia.ds_name
       (String.concat ","
          (List.map (fun (_, s) -> Bench_util.Runner.summary_json s) summaries)))

(* ------------------------------------------------------------------ *)
(* Figures 6-11: time + robustness across query sizes                  *)
(* ------------------------------------------------------------------ *)

let bench_figure cfg ~fig ~ds ~shape =
  let shape_name =
    match shape with
    | Datagen.Workload.Star -> "Star-Shaped"
    | Datagen.Workload.Complex -> "Complex-Shaped"
  in
  section
    (Printf.sprintf "Figure %d: %s queries on %s (timeout %.1fs, %d queries/point)"
       fig shape_name ds.ds_name cfg.timeout cfg.queries_per_point);
  let engines = Lazy.force ds.engines in
  (* An engine that answers nothing at some size is dropped for larger
     sizes of the same series, like the missing points in the paper's
     plots. *)
  let dead = Hashtbl.create 8 in
  let results =
    List.map
      (fun size ->
        let queries =
          Datagen.Workload.generate ~seed:(cfg.seed + size) (Lazy.force ds.corpus)
            ~shape ~size ~count:cfg.queries_per_point
        in
        let per_engine =
          List.map
            (fun (name, inst) ->
              if Hashtbl.mem dead name then (name, None)
              else begin
                let s =
                  run_workload inst ~timeout:cfg.timeout ~limit:cfg.row_limit
                    queries
                in
                if s.Bench_util.Runner.answered = 0 then Hashtbl.replace dead name ();
                (name, Some s)
              end)
            engines
        in
        (size, List.length queries, per_engine))
      cfg.sizes
  in
  let engine_names = List.map fst engines in
  let time_rows =
    List.map
      (fun (size, nq, per_engine) ->
        string_of_int size :: string_of_int nq
        :: List.map
             (fun name ->
               match List.assoc name per_engine with
               | Some s when s.Bench_util.Runner.answered > 0 ->
                   Bench_util.Table_fmt.ms s.Bench_util.Runner.mean_time
               | Some _ -> "timeout"
               | None -> "-")
             engine_names)
      results
  in
  Printf.printf "(a) mean time over answered queries, ms\n";
  Bench_util.Table_fmt.print ~header:([ "size"; "n" ] @ engine_names) time_rows;
  let robust_rows =
    List.map
      (fun (size, nq, per_engine) ->
        string_of_int size :: string_of_int nq
        :: List.map
             (fun name ->
               match List.assoc name per_engine with
               | Some s ->
                   Bench_util.Table_fmt.pct ~answered:s.Bench_util.Runner.answered
                     ~total:(s.Bench_util.Runner.answered + s.Bench_util.Runner.unanswered)
               | None -> "-")
             engine_names)
      results
  in
  Printf.printf "(b) %% unanswered queries\n";
  Bench_util.Table_fmt.print ~header:([ "size"; "n" ] @ engine_names) robust_rows;
  add_json
    (Printf.sprintf "fig%d" fig)
    (Printf.sprintf {|{"dataset":"%s","shape":"%s","points":[%s]}|} ds.ds_name
       shape_name
       (String.concat ","
          (List.map
             (fun (size, nq, per_engine) ->
               Printf.sprintf {|{"size":%d,"queries":%d,"engines":[%s]}|} size
                 nq
                 (String.concat ","
                    (List.filter_map
                       (fun (_, s) ->
                         Option.map Bench_util.Runner.summary_json s)
                       per_engine)))
             results)))

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices called out in DESIGN.md §6            *)
(* ------------------------------------------------------------------ *)

let bench_ablation cfg ds =
  section
    (Printf.sprintf
       "Ablation: AMbER variants on %s (star and complex, size 40, %d \
        queries each, timeout %.1fs)"
       ds.ds_name cfg.queries_per_point cfg.timeout);
  let triples = Lazy.force ds.triples in
  let rtree_engine = Amber.Engine.build triples in
  let scan_engine =
    Amber.Engine.build ~synopsis_mode:Amber.Synopsis_index.Scan triples
  in
  (* Every variant runs the paper plan (r1/r2 ordering, R-tree seed
     probe) and departs from it in one component only. Sequential
     variants report the matcher's candidate counter too. *)
  let seq_variant name ?strategy ?satellites engine =
    ( name,
      `Seq
        (fun ast ->
          Amber.Engine.query_with_stats ~timeout:cfg.timeout
            ~limit:cfg.row_limit ~plan:Amber.Stats.Paper ?strategy ?satellites
            engine ast) )
  in
  let variants =
    [
      seq_variant "paper (r1/r2 + satellites + R-tree)" rtree_engine;
      seq_variant "no satellite decomposition" ~satellites:false rtree_engine;
      seq_variant "ordering: by degree" ~strategy:Amber.Decompose.By_degree
        rtree_engine;
      seq_variant "ordering: arbitrary" ~strategy:Amber.Decompose.Arbitrary
        rtree_engine;
      seq_variant "synopsis: linear scan" scan_engine;
      ( "parallel (4 domains)",
        `Par
          (fun ast ->
            Amber.Engine.query ~timeout:cfg.timeout ~limit:cfg.row_limit
              ~plan:Amber.Stats.Paper ~domains:4 rtree_engine ast) );
    ]
  in
  List.iter
    (fun (shape, shape_name) ->
      let queries =
        Datagen.Workload.generate ~seed:(cfg.seed + 77) (Lazy.force ds.corpus)
          ~shape ~size:40 ~count:cfg.queries_per_point
      in
      Printf.printf "%s queries (n = %d):\n" shape_name (List.length queries);
      let rows =
        List.map
          (fun (name, run) ->
            let times = ref []
            and unanswered = ref 0
            and scanned = ref 0 in
            List.iter
              (fun ast ->
                match run with
                | `Seq f -> (
                    match Bench_util.Runner.time (fun () -> f ast) with
                    | dt, (_, stats) ->
                        times := dt :: !times;
                        scanned :=
                          !scanned + stats.Amber.Matcher.candidates_scanned
                    | exception Amber.Deadline.Expired -> incr unanswered)
                | `Par f -> (
                    match Bench_util.Runner.time (fun () -> f ast) with
                    | dt, _ -> times := dt :: !times
                    | exception Amber.Deadline.Expired -> incr unanswered))
              queries;
            let answered = List.length !times in
            [
              name;
              (if answered = 0 then "timeout"
               else Bench_util.Table_fmt.ms (Bench_util.Stats.mean !times));
              Bench_util.Table_fmt.pct ~answered
                ~total:(List.length queries);
              (match run with
              | `Par _ -> "-"
              | `Seq _ ->
                  if answered = 0 then "-"
                  else string_of_int (!scanned / answered));
            ])
          variants
      in
      Bench_util.Table_fmt.print
        ~header:
          [ "Variant"; "Mean time (ms)"; "% unanswered"; "mean candidates" ]
        rows)
    [ (Datagen.Workload.Star, "Star"); (Datagen.Workload.Complex, "Complex") ]

(* ------------------------------------------------------------------ *)
(* Per-phase breakdown: where does a query's time go?                  *)
(* ------------------------------------------------------------------ *)

let profile_phases =
  [ "parse"; "rewrite"; "decompose"; "analyze"; "candidates"; "match"; "enumerate" ]

let bench_profile cfg ds =
  section
    (Printf.sprintf
       "Per-phase breakdown: AMbER on %s (size 30, %d queries/shape, timeout \
        %.1fs)"
       ds.ds_name cfg.queries_per_point cfg.timeout);
  let engine = Amber.Engine.build (Lazy.force ds.triples) in
  List.iter
    (fun (shape, shape_name) ->
      let queries =
        Datagen.Workload.generate ~seed:(cfg.seed + 123) (Lazy.force ds.corpus)
          ~shape ~size:30 ~count:cfg.queries_per_point
      in
      let phase_total = Hashtbl.create 8 in
      let bump name dt =
        Hashtbl.replace phase_total name
          (dt +. Option.value ~default:0. (Hashtbl.find_opt phase_total name))
      in
      let total = ref 0. and answered = ref 0 and unanswered = ref 0 in
      let stats_total = Amber.Matcher.fresh_stats () in
      List.iter
        (fun ast ->
          match
            Amber.Engine.run ~timeout:cfg.timeout ~limit:cfg.row_limit
              ~profile:true engine (`Ast ast)
          with
          | { Amber.Engine.profile; _ } ->
              let p = Option.get profile in
              incr answered;
              total := !total +. Obs.Span.duration p.Amber.Profile.span;
              List.iter
                (fun kid -> bump (Obs.Span.name kid) (Obs.Span.duration kid))
                (Obs.Span.children p.Amber.Profile.span);
              let s = p.Amber.Profile.stats in
              stats_total.Amber.Matcher.index_probes <-
                stats_total.Amber.Matcher.index_probes
                + s.Amber.Matcher.index_probes;
              stats_total.Amber.Matcher.candidates_scanned <-
                stats_total.Amber.Matcher.candidates_scanned
                + s.Amber.Matcher.candidates_scanned;
              stats_total.Amber.Matcher.satellite_rejections <-
                stats_total.Amber.Matcher.satellite_rejections
                + s.Amber.Matcher.satellite_rejections;
              stats_total.Amber.Matcher.solutions <-
                stats_total.Amber.Matcher.solutions + s.Amber.Matcher.solutions
          | exception Amber.Deadline.Expired -> incr unanswered)
        queries;
      Printf.printf "%s queries (answered %d/%d):\n" shape_name !answered
        (!answered + !unanswered);
      let n = max 1 !answered in
      let rows =
        List.map
          (fun phase ->
            let t = Option.value ~default:0. (Hashtbl.find_opt phase_total phase) in
            [
              phase;
              Bench_util.Table_fmt.ms (t /. float_of_int n);
              (if !total > 0. then Printf.sprintf "%.1f%%" (100. *. t /. !total)
               else "-");
            ])
          profile_phases
        @ [
            [ "total"; Bench_util.Table_fmt.ms (!total /. float_of_int n); "100%" ];
          ]
      in
      Bench_util.Table_fmt.print ~header:[ "Phase"; "Mean (ms)"; "Share" ] rows;
      add_json
        (Printf.sprintf "profile_%s" (String.lowercase_ascii shape_name))
        (Printf.sprintf
           {|{"dataset":"%s","shape":"%s","queries":%d,"answered":%d,"mean_total_s":%.9g,"phases_mean_s":{%s},"stats_mean":{"index_probes":%.1f,"candidates_scanned":%.1f,"satellite_rejections":%.1f,"solutions":%.1f}}|}
           ds.ds_name shape_name
           (!answered + !unanswered)
           !answered
           (!total /. float_of_int n)
           (String.concat ","
              (List.map
                 (fun phase ->
                   Printf.sprintf {|"%s":%.9g|} phase
                     (Option.value ~default:0.
                        (Hashtbl.find_opt phase_total phase)
                     /. float_of_int n))
                 profile_phases))
           (float_of_int stats_total.Amber.Matcher.index_probes /. float_of_int n)
           (float_of_int stats_total.Amber.Matcher.candidates_scanned
           /. float_of_int n)
           (float_of_int stats_total.Amber.Matcher.satellite_rejections
           /. float_of_int n)
           (float_of_int stats_total.Amber.Matcher.solutions /. float_of_int n)))
    [ (Datagen.Workload.Star, "Star"); (Datagen.Workload.Complex, "Complex") ]

(* ------------------------------------------------------------------ *)
(* Kernels: adaptive set algebra + probe caching (the matcher hot      *)
(* path); --only kernels, recorded as BENCH_2.json                     *)
(* ------------------------------------------------------------------ *)

let bench_kernels cfg ds =
  section
    (Printf.sprintf
       "Kernels: intersection kernels and probe caching on %s" ds.ds_name);
  (* (a) The three intersection kernels head to head on the operand
     shapes the adaptive dispatch distinguishes. *)
  let rng = Datagen.Prng.create (cfg.seed + 4242) in
  let base = max 4_000 (int_of_float (cfg.scale *. 400_000.)) in
  let sorted n span =
    Mgraph.Sorted_ints.of_list (List.init n (fun _ -> Datagen.Prng.int rng span))
  in
  let shapes =
    [
      (* similar sizes, sparse: merge territory *)
      ("similar-sparse", sorted base (8 * base), sorted base (8 * base));
      (* a tiny candidate set against a hub's adjacency: gallop territory *)
      ("skewed-hub", sorted (max 16 (base / 256)) (4 * base), sorted base (4 * base));
      (* both large, dense value range: bitset territory *)
      ("large-dense", sorted base (2 * base), sorted base (2 * base));
    ]
  in
  let time_kernel kernel a b reps =
    let dt, () =
      Bench_util.Runner.time (fun () ->
          for _ = 1 to reps do
            ignore (Sys.opaque_identity (kernel a b))
          done)
    in
    dt /. float_of_int reps *. 1e9
  in
  let kernel_rows =
    List.map
      (fun (name, a, b) ->
        let reps = max 4 (8_000_000 / max 1 (Array.length a + Array.length b)) in
        let merge = time_kernel Mgraph.Sorted_ints.inter_merge a b reps in
        let gallop = time_kernel Mgraph.Sorted_ints.inter_gallop a b reps in
        let bitset = time_kernel Mgraph.Sorted_ints.inter_bitset a b reps in
        let adaptive = time_kernel Mgraph.Sorted_ints.inter a b reps in
        (name, Array.length a, Array.length b, reps, merge, gallop, bitset, adaptive))
      shapes
  in
  Bench_util.Table_fmt.print
    ~header:[ "shape"; "|a|"; "|b|"; "merge ns"; "gallop ns"; "bitset ns"; "adaptive ns" ]
    (List.map
       (fun (name, na, nb, _, merge, gallop, bitset, adaptive) ->
         [
           name;
           string_of_int na;
           string_of_int nb;
           Printf.sprintf "%.0f" merge;
           Printf.sprintf "%.0f" gallop;
           Printf.sprintf "%.0f" bitset;
           Printf.sprintf "%.0f" adaptive;
         ])
       kernel_rows);
  (* (b) Whole queries with and without the probe caches. The uncached
     pass runs first so the engine's cross-query LRUs start cold; the
     cached pass then repeats the same workload twice — the second
     (warm) pass is where the LRUs pay off. *)
  let engine = Amber.Engine.build ~layout:cfg.layout (Lazy.force ds.triples) in
  let run_pass ~caches queries =
    let times = ref [] and hits = ref 0 and misses = ref 0 and un = ref 0 in
    List.iter
      (fun ast ->
        match
          Bench_util.Runner.time (fun () ->
              Amber.Engine.query_with_stats ~timeout:cfg.timeout
                ~limit:cfg.row_limit ~caches engine ast)
        with
        | dt, (_, stats) ->
            times := dt :: !times;
            hits := !hits + stats.Amber.Matcher.probe_cache_hits;
            misses := !misses + stats.Amber.Matcher.probe_cache_misses
        | exception Amber.Deadline.Expired -> incr un)
      queries;
    (Bench_util.Stats.mean !times, List.length !times, !un, !hits, !misses)
  in
  let query_shapes =
    [
      ("star", Datagen.Workload.Star, 20);
      ("complex", Datagen.Workload.Complex, 30);
    ]
  in
  let cache_results =
    List.map
      (fun (label, shape, size) ->
        let queries =
          Datagen.Workload.generate ~seed:(cfg.seed + 55) (Lazy.force ds.corpus)
            ~shape ~size ~count:cfg.queries_per_point
        in
        let u_mean, u_n, u_un, _, _ = run_pass ~caches:false queries in
        let c_mean, _, _, c_hits, c_misses = run_pass ~caches:true queries in
        let w_mean, _, _, w_hits, w_misses = run_pass ~caches:true queries in
        (label, List.length queries, u_mean, u_n, u_un, c_mean, c_hits, c_misses,
         w_mean, w_hits, w_misses))
      query_shapes
  in
  Bench_util.Table_fmt.print
    ~header:
      [ "shape"; "n"; "uncached ms"; "cached ms"; "warm ms"; "hits"; "misses"; "speedup" ]
    (List.map
       (fun (label, n, u_mean, _, _, c_mean, _, _, w_mean, w_hits, w_misses) ->
         [
           label;
           string_of_int n;
           Bench_util.Table_fmt.ms u_mean;
           Bench_util.Table_fmt.ms c_mean;
           Bench_util.Table_fmt.ms w_mean;
           string_of_int w_hits;
           string_of_int w_misses;
           (if w_mean > 0. then Printf.sprintf "%.2fx" (u_mean /. w_mean) else "-");
         ])
       cache_results);
  add_json "kernels"
    (Printf.sprintf
       {|{"dataset":"%s","set_kernels":[%s],"probe_cache":[%s]}|}
       ds.ds_name
       (String.concat ","
          (List.map
             (fun (name, na, nb, reps, merge, gallop, bitset, adaptive) ->
               Printf.sprintf
                 {|{"shape":"%s","len_a":%d,"len_b":%d,"reps":%d,"merge_ns":%.1f,"gallop_ns":%.1f,"bitset_ns":%.1f,"adaptive_ns":%.1f}|}
                 name na nb reps merge gallop bitset adaptive)
             kernel_rows))
       (String.concat ","
          (List.map
             (fun (label, n, u_mean, u_n, u_un, c_mean, c_hits, c_misses, w_mean,
                   w_hits, w_misses) ->
               Printf.sprintf
                 {|{"shape":"%s","queries":%d,"answered":%d,"unanswered":%d,"uncached_mean_s":%.9g,"cached_cold_mean_s":%.9g,"cached_warm_mean_s":%.9g,"cold_hits":%d,"cold_misses":%d,"warm_hits":%d,"warm_misses":%d,"speedup_warm":%.3f}|}
                 label n u_n u_un u_mean c_mean w_mean c_hits c_misses w_hits
                 w_misses
                 (if w_mean > 0. then u_mean /. w_mean else 0.))
             cache_results)));
  (* Flush the engine-side LRU counters into the default registry so the
     report's "metrics" object carries them. *)
  Amber.Engine.sync_index_metrics engine

(* ------------------------------------------------------------------ *)
(* Parallel matching: domain-count scaling curve; --only parallel,     *)
(* recorded as BENCH_3.json                                            *)
(* ------------------------------------------------------------------ *)

let bench_parallel cfg ds =
  let host_cores = Domain.recommended_domain_count () in
  section
    (Printf.sprintf
       "Parallel matching: AMbER at 1/2/4 domains on %s (host reports %d \
        core%s)"
       ds.ds_name host_cores
       (if host_cores = 1 then "" else "s"));
  let engine = Amber.Engine.build (Lazy.force ds.triples) in
  let workload =
    (* A mix of shapes so the curve reflects both seed-rich star queries
       and the deeper complex recursions. *)
    Datagen.Workload.generate ~seed:(cfg.seed + 31) (Lazy.force ds.corpus)
      ~shape:Datagen.Workload.Star ~size:20 ~count:cfg.queries_per_point
    @ Datagen.Workload.generate ~seed:(cfg.seed + 32) (Lazy.force ds.corpus)
        ~shape:Datagen.Workload.Complex ~size:30 ~count:cfg.queries_per_point
  in
  let canonical (a : Amber.Engine.answer) = List.sort compare a.rows in
  let run_pass ~domains =
    List.map
      (fun ast ->
        match
          Bench_util.Runner.time (fun () ->
              Amber.Engine.query ~timeout:cfg.timeout ~limit:cfg.row_limit
                ~domains engine ast)
        with
        | dt, a -> Some (dt, a)
        | exception Amber.Deadline.Expired -> None)
      workload
  in
  (* Answers are compared as row sets against the sequential pass: with a
     row limit the chunks race to the cap, so only un-truncated answers
     must agree exactly. *)
  let baseline = run_pass ~domains:1 in
  let results =
    List.map
      (fun domains ->
        let pass = if domains = 1 then baseline else run_pass ~domains in
        let times = List.filter_map (Option.map fst) pass in
        let mismatches =
          List.fold_left2
            (fun acc b p ->
              match (b, p) with
              | Some (_, b), Some (_, a)
                when (not b.Amber.Engine.truncated)
                     && not a.Amber.Engine.truncated ->
                  if canonical b = canonical a then acc else acc + 1
              | _ -> acc)
            0 baseline pass
        in
        let answered = List.length times in
        (domains, answered, mismatches, Bench_util.Stats.mean times,
         Bench_util.Stats.p95 times))
      [ 1; 2; 4 ]
  in
  let base_mean =
    match results with (_, _, _, m, _) :: _ -> m | [] -> 0.
  in
  Bench_util.Table_fmt.print
    ~header:
      [ "domains"; "answered"; "mismatches"; "mean (ms)"; "p95 (ms)"; "speedup" ]
    (List.map
       (fun (d, answered, mismatches, mean, p95) ->
         [
           string_of_int d;
           Printf.sprintf "%d/%d" answered (List.length workload);
           string_of_int mismatches;
           Bench_util.Table_fmt.ms mean;
           Bench_util.Table_fmt.ms p95;
           (if mean > 0. then Printf.sprintf "%.2fx" (base_mean /. mean) else "-");
         ])
       results);
  if host_cores < 4 then
    Printf.printf
      "(note: host has %d core%s — wall-clock speedup beyond %dx is not \
       reachable here)\n"
      host_cores
      (if host_cores = 1 then "" else "s")
      host_cores;
  add_json "parallel"
    (Printf.sprintf {|{"dataset":"%s","host_cores":%d,"queries":%d,"points":[%s]}|}
       ds.ds_name host_cores (List.length workload)
       (String.concat ","
          (List.map
             (fun (d, answered, mismatches, mean, p95) ->
               Printf.sprintf
                 {|{"domains":%d,"answered":%d,"mismatches":%d,"mean_s":%.9g,"p95_s":%.9g,"speedup":%.3f}|}
                 d answered mismatches mean p95
                 (if mean > 0. then base_mean /. mean else 0.))
             results)))

(* ------------------------------------------------------------------ *)
(* Offline stage: build vs snapshot load; --only build, recorded as    *)
(* BENCH_4.json                                                        *)
(* ------------------------------------------------------------------ *)

let with_temp_file suffix f =
  let path = Filename.temp_file "amber_bench" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* Cold-start steps are timed as the best of [reps] runs with a
   compacted heap before each, like bench_table5's memory probe — the
   steps allocate heavily, so a single hot measurement is dominated by
   whatever garbage the run accumulated so far. *)
let time_best ?(reps = 5) f =
  let best = ref infinity and out = ref None in
  for _ = 1 to reps do
    Gc.compact ();
    let dt, v = Bench_util.Runner.time f in
    if dt < !best then best := dt;
    out := Some v
  done;
  (!best, Option.get !out)

let bench_build cfg ds =
  section
    (Printf.sprintf
       "Snapshots: offline build vs AMBERIX1 cold start on %s" ds.ds_name);
  let triples = Lazy.force ds.triples in
  (* (a) offline stage: sequential vs parallel index construction. *)
  let t_seq, engine_seq =
    time_best (fun () -> Amber.Engine.build ~domains:1 triples)
  in
  let t_par, engine_par =
    time_best (fun () -> Amber.Engine.build ~domains:4 triples)
  in
  let identical =
    Amber.Snapshot.to_string (Amber.Engine.snapshot_contents engine_seq)
    = Amber.Snapshot.to_string (Amber.Engine.snapshot_contents engine_par)
  in
  (* (b) cold start: replaying the offline stage from triples — both the
     N-Triples text the CLI ingests and the compact AMBERDB1 binary —
     vs reading the AMBERIX1 index snapshot. The built engines are not
     referenced past this point: a cold start happens in a near-empty
     heap, so keeping tens of MB of dead-weight indexes live would tax
     the GC during the timed decodes and overstate their cost. *)
  with_temp_file ".nt" @@ fun nt_path ->
  with_temp_file ".adb" @@ fun triples_path ->
  with_temp_file ".amberix" @@ fun snapshot_path ->
  Rdf.Ntriples.write_file nt_path triples;
  Amber.Engine.save engine_seq triples_path;
  let t_save, () =
    time_best (fun () -> Amber.Engine.save_snapshot engine_seq snapshot_path)
  in
  let t_rebuild_nt, _ =
    time_best (fun () ->
        Amber.Engine.build ~domains:1 (Rdf.Ntriples.parse_file nt_path))
  in
  let t_rebuild, _ =
    time_best (fun () -> Amber.Engine.load_file triples_path)
  in
  let t_load, loaded =
    time_best (fun () -> Amber.Engine.load_snapshot snapshot_path)
  in
  let nt_bytes = (Unix.stat nt_path).Unix.st_size in
  let triples_bytes = (Unix.stat triples_path).Unix.st_size in
  let snapshot_bytes = (Unix.stat snapshot_path).Unix.st_size in
  (* (c) the snapshot-loaded engine must answer the workload exactly like
     a freshly built one (both sequential, so answers are deterministic,
     truncated or not). Built fresh here rather than reusing the timed
     engine so the cold-start section above holds no engine live. *)
  let fresh = Amber.Engine.build ~domains:1 triples in
  let workload =
    Datagen.Workload.generate ~seed:(cfg.seed + 91) (Lazy.force ds.corpus)
      ~shape:Datagen.Workload.Star ~size:20 ~count:cfg.queries_per_point
    @ Datagen.Workload.generate ~seed:(cfg.seed + 92) (Lazy.force ds.corpus)
        ~shape:Datagen.Workload.Complex ~size:30 ~count:cfg.queries_per_point
  in
  let answer engine ast =
    match
      Amber.Engine.query ~timeout:cfg.timeout ~limit:cfg.row_limit engine ast
    with
    | a -> Some (a.Amber.Engine.variables, a.Amber.Engine.rows, a.Amber.Engine.truncated)
    | exception Amber.Deadline.Expired -> None
  in
  let compared = ref 0 and mismatches = ref 0 in
  List.iter
    (fun ast ->
      match (answer fresh ast, answer loaded ast) with
      | Some a, Some b ->
          incr compared;
          if a <> b then incr mismatches
      | _ -> ())
    workload;
  let speedup_nt = if t_load > 0. then t_rebuild_nt /. t_load else 0. in
  let speedup_adb = if t_load > 0. then t_rebuild /. t_load else 0. in
  let cores = Domain.recommended_domain_count () in
  Bench_util.Table_fmt.print
    ~header:[ "step"; "time (s)"; "detail" ]
    [
      [ "build (1 domain)"; Printf.sprintf "%.3f" t_seq; "" ];
      [
        "build (4 domains)";
        Printf.sprintf "%.3f" t_par;
        Printf.sprintf "%s; host has %d core%s"
          (if identical then "indexes byte-identical to sequential"
           else "INDEX MISMATCH vs sequential")
          cores
          (if cores = 1 then "" else "s");
      ];
      [
        "save snapshot";
        Printf.sprintf "%.3f" t_save;
        Printf.sprintf "%d bytes" snapshot_bytes;
      ];
      [
        "rebuild from N-Triples";
        Printf.sprintf "%.3f" t_rebuild_nt;
        Printf.sprintf "parse + build, %d bytes" nt_bytes;
      ];
      [
        "rebuild from AMBERDB1";
        Printf.sprintf "%.3f" t_rebuild;
        Printf.sprintf "load + build, %d bytes" triples_bytes;
      ];
      [
        "load snapshot";
        Printf.sprintf "%.3f" t_load;
        Printf.sprintf "%.1fx vs N-Triples rebuild, %.1fx vs AMBERDB1"
          speedup_nt speedup_adb;
      ];
      [
        "query agreement";
        "-";
        Printf.sprintf "%d/%d answered identically" (!compared - !mismatches)
          !compared;
      ];
    ];
  add_json "build"
    (Printf.sprintf
       {|{"dataset":"%s","triples":%d,"host_cores":%d,"build_seq_s":%.9g,"build_par4_s":%.9g,"parallel_byte_identical":%b,"snapshot_save_s":%.9g,"snapshot_bytes":%d,"ntriples_file_bytes":%d,"triple_file_bytes":%d,"rebuild_from_triples_s":%.9g,"rebuild_from_adb_s":%.9g,"snapshot_load_s":%.9g,"load_speedup":%.3f,"load_speedup_vs_adb":%.3f,"queries_compared":%d,"query_mismatches":%d}|}
       ds.ds_name (List.length triples) cores t_seq t_par identical t_save
       snapshot_bytes nt_bytes triples_bytes t_rebuild_nt t_rebuild t_load
       speedup_nt speedup_adb !compared !mismatches)

(* ------------------------------------------------------------------ *)
(* Static analysis: screening cost and UNSAT short-circuit payoff;     *)
(* --only analysis                                                     *)
(* ------------------------------------------------------------------ *)

let bench_analysis cfg ds =
  section
    (Printf.sprintf
       "Static analysis: screening cost and UNSAT short-circuit on %s"
       ds.ds_name);
  let engine = Amber.Engine.build (Lazy.force ds.triples) in
  let workload =
    Datagen.Workload.generate ~seed:(cfg.seed + 61) (Lazy.force ds.corpus)
      ~shape:Datagen.Workload.Star ~size:20 ~count:cfg.queries_per_point
    @ Datagen.Workload.generate ~seed:(cfg.seed + 62) (Lazy.force ds.corpus)
        ~shape:Datagen.Workload.Complex ~size:30 ~count:cfg.queries_per_point
  in
  (* UNSAT variants: one predicate rewritten to an IRI absent from the
     data — every query becomes provably empty before matching starts. *)
  let poison ast =
    match ast.Sparql.Ast.where with
    | first :: rest ->
        {
          ast with
          Sparql.Ast.where =
            {
              first with
              Sparql.Ast.predicate =
                Sparql.Ast.Iri "http://amber.invalid/no-such-predicate";
            }
            :: rest;
        }
    | [] -> ast
  in
  let unsat_workload = List.map poison workload in
  let time_pass f queries =
    let times = ref [] and un = ref 0 in
    List.iter
      (fun ast ->
        match Bench_util.Runner.time (fun () -> ignore (Sys.opaque_identity (f ast))) with
        | dt, () -> times := dt :: !times
        | exception Amber.Deadline.Expired -> incr un)
      queries;
    (Bench_util.Stats.mean !times, List.length !times, !un)
  in
  (* (a) the analyzer alone, and what it reports on both workloads. *)
  let a_mean, _, _ =
    time_pass (fun ast -> Amber.Engine.analyze engine ast) workload
  in
  let count queries =
    let reports = List.map (Amber.Engine.analyze engine) queries in
    ( List.length
        (List.filter (fun r -> Amber.Analysis.unsat_proof r <> None) reports),
      List.fold_left
        (fun n r -> n + List.length (Amber.Analysis.warnings r))
        0 reports )
  in
  let sat_unsats, sat_warnings = count workload in
  let poi_unsats, _ = count unsat_workload in
  (* (b) whole queries: the screen's overhead on satisfiable queries and
     its payoff on provably empty ones. *)
  let run_queries ~analyze queries =
    time_pass
      (fun ast ->
        Amber.Engine.query ~analyze ~timeout:cfg.timeout ~limit:cfg.row_limit
          engine ast)
      queries
  in
  let on_mean, on_n, on_un = run_queries ~analyze:true workload in
  let off_mean, _, _ = run_queries ~analyze:false workload in
  let sc_mean, _, _ = run_queries ~analyze:true unsat_workload in
  let full_mean, full_n, full_un = run_queries ~analyze:false unsat_workload in
  Bench_util.Table_fmt.print
    ~header:[ "pass"; "n"; "mean (ms)"; "detail" ]
    [
      [
        "analyze only";
        string_of_int (List.length workload);
        Bench_util.Table_fmt.ms a_mean;
        Printf.sprintf "%d unsat, %d warnings" sat_unsats sat_warnings;
      ];
      [
        "query, analyze on (sat)";
        Printf.sprintf "%d" on_n;
        Bench_util.Table_fmt.ms on_mean;
        Printf.sprintf "%d unanswered" on_un;
      ];
      [
        "query, analyze off (sat)";
        "-";
        Bench_util.Table_fmt.ms off_mean;
        (if off_mean > 0. then
           Printf.sprintf "screen overhead %+.1f%%"
             (100. *. (on_mean -. off_mean) /. off_mean)
         else "-");
      ];
      [
        "query, analyze on (unsat)";
        string_of_int (List.length unsat_workload);
        Bench_util.Table_fmt.ms sc_mean;
        Printf.sprintf "%d/%d proven empty" poi_unsats
          (List.length unsat_workload);
      ];
      [
        "query, analyze off (unsat)";
        Printf.sprintf "%d" full_n;
        Bench_util.Table_fmt.ms full_mean;
        Printf.sprintf "%d unanswered; short-circuit %s" full_un
          (if sc_mean > 0. then Printf.sprintf "%.1fx" (full_mean /. sc_mean)
           else "-");
      ];
    ];
  add_json "analysis"
    (Printf.sprintf
       {|{"dataset":"%s","queries":%d,"analyze_mean_s":%.9g,"sat_unsats":%d,"sat_warnings":%d,"poisoned_unsats":%d,"query_analyze_on_mean_s":%.9g,"query_analyze_off_mean_s":%.9g,"unsat_short_circuit_mean_s":%.9g,"unsat_full_eval_mean_s":%.9g,"short_circuit_speedup":%.3f}|}
       ds.ds_name (List.length workload) a_mean sat_unsats sat_warnings
       poi_unsats on_mean off_mean sc_mean full_mean
       (if sc_mean > 0. then full_mean /. sc_mean else 0.))

(* ------------------------------------------------------------------ *)
(* Resource accounting: index resident sizes + per-query GC allocation;*)
(* --only resource, recorded as BENCH_6.json                           *)
(* ------------------------------------------------------------------ *)

let bench_resource cfg ds =
  section
    (Printf.sprintf
       "Resource accounting: index resident bytes and per-query GC \
        allocation on %s"
       ds.ds_name);
  let triples = Lazy.force ds.triples in
  let engine = Amber.Engine.build ~layout:cfg.layout triples in
  let n_triples = max 1 (List.length triples) in
  (* (a) what each index holds: a reachable-words walk per structure —
     the same numbers the endpoint exports as
     amber_index_resident_bytes{index=...}. *)
  let resident = Amber.Engine.resident_bytes engine in
  let total = List.fold_left (fun acc (_, b) -> acc + b) 0 resident in
  Bench_util.Table_fmt.print
    ~header:[ "index"; "resident bytes"; "MB"; "bytes/triple" ]
    (List.map
       (fun (name, bytes) ->
         [
           name;
           string_of_int bytes;
           Printf.sprintf "%.2f" (float_of_int bytes /. 1_048_576.);
           Printf.sprintf "%.1f" (float_of_int bytes /. float_of_int n_triples);
         ])
       resident
    @ [
        [
          "total";
          string_of_int total;
          Printf.sprintf "%.2f" (float_of_int total /. 1_048_576.);
          Printf.sprintf "%.1f" (float_of_int total /. float_of_int n_triples);
        ];
      ]);
  (* (b) what a query allocates: the Gc.quick_stat delta across each
     run, the figure the flight recorder attaches to every record.
     Sequential runs, so the calling-domain caveat doesn't bite. *)
  let workload =
    Datagen.Workload.generate ~seed:(cfg.seed + 71) (Lazy.force ds.corpus)
      ~shape:Datagen.Workload.Star ~size:20 ~count:cfg.queries_per_point
    @ Datagen.Workload.generate ~seed:(cfg.seed + 72) (Lazy.force ds.corpus)
        ~shape:Datagen.Workload.Complex ~size:30 ~count:cfg.queries_per_point
  in
  let allocs = ref []
  and minors = ref 0
  and majors = ref 0
  and unanswered = ref 0 in
  List.iter
    (fun ast ->
      match
        Obs.Resource.gc_delta (fun () ->
            Amber.Engine.query ~timeout:cfg.timeout ~limit:cfg.row_limit
              engine ast)
      with
      | _, d ->
          allocs := Obs.Resource.allocated_bytes d :: !allocs;
          minors := !minors + d.Obs.Resource.minor_collections;
          majors := !majors + d.Obs.Resource.major_collections
      | exception Amber.Deadline.Expired -> incr unanswered)
    workload;
  let answered = List.length !allocs in
  let mean_alloc = Bench_util.Stats.mean !allocs in
  let p95_alloc = Bench_util.Stats.p95 !allocs in
  let max_alloc = Bench_util.Stats.maximum !allocs in
  Printf.printf
    "per-query allocation over %d answered queries (%d unanswered):\n"
    answered !unanswered;
  Bench_util.Table_fmt.print
    ~header:[ "figure"; "value" ]
    [
      [ "mean bytes/query"; Printf.sprintf "%.0f" mean_alloc ];
      [ "p95 bytes/query"; Printf.sprintf "%.0f" p95_alloc ];
      [
        "max bytes/query";
        Printf.sprintf "%.0f" (if answered = 0 then 0. else max_alloc);
      ];
      [ "minor collections"; string_of_int !minors ];
      [ "major collections"; string_of_int !majors ];
    ];
  add_json "resource"
    (Printf.sprintf
       {|{"dataset":"%s","triples":%d,"resident_bytes":{%s},"total_resident_bytes":%d,"bytes_per_triple":%.2f,"query_alloc":{"queries":%d,"answered":%d,"mean_bytes":%.1f,"p95_bytes":%.1f,"max_bytes":%.1f,"minor_collections":%d,"major_collections":%d}}|}
       ds.ds_name (List.length triples)
       (String.concat ","
          (List.map
             (fun (name, bytes) -> Printf.sprintf {|"%s":%d|} name bytes)
             resident))
       total
       (float_of_int total /. float_of_int n_triples)
       (List.length workload) answered mean_alloc p95_alloc
       (if answered = 0 then 0. else max_alloc)
       !minors !majors);
  (* Publish the gauges so the report's "metrics" object carries them
     too, like a /metrics scrape would. *)
  Amber.Engine.sync_resource_metrics engine

(* ------------------------------------------------------------------ *)
(* Layout ablation: resident bytes vs query latency per posting        *)
(* layout; --only layouts, recorded as BENCH_7.json                    *)
(* ------------------------------------------------------------------ *)

let bench_layouts cfg ds =
  section
    (Printf.sprintf
       "Layout ablation: posting-list layouts (resident bytes vs query \
        latency) on %s"
       ds.ds_name);
  let triples = Lazy.force ds.triples in
  let n_triples = max 1 (List.length triples) in
  let workload =
    Datagen.Workload.generate ~seed:(cfg.seed + 81) (Lazy.force ds.corpus)
      ~shape:Datagen.Workload.Star ~size:20 ~count:(2 * cfg.queries_per_point)
    @ Datagen.Workload.generate ~seed:(cfg.seed + 82) (Lazy.force ds.corpus)
        ~shape:Datagen.Workload.Complex ~size:30
        ~count:(2 * cfg.queries_per_point)
  in
  let layouts =
    [
      Mgraph.Posting.Force Mgraph.Posting.Raw;
      Mgraph.Posting.Force Mgraph.Posting.Ef;
      Mgraph.Posting.Force Mgraph.Posting.Blocked;
      Mgraph.Posting.Auto;
    ]
  in
  (* Build every engine first, then time them in interleaved rounds
     (best-of-rounds per query): the layouts differ by a few percent,
     so measuring engines minutes apart would let machine drift swamp
     the signal. A shared untimed warmup round levels page-fault, LRU
     and GC state. *)
  let engines =
    List.map
      (fun layout ->
        let engine = Amber.Engine.build ~layout triples in
        let total =
          List.fold_left
            (fun acc (_, b) -> acc + b)
            0
            (Amber.Engine.resident_bytes engine)
        in
        (Mgraph.Posting.policy_to_string layout, engine, total,
         Amber.Engine.posting_stats engine))
      layouts
  in
  let queries = Array.of_list workload in
  let nq = Array.length queries in
  let best =
    List.map (fun (name, _, _, _) -> (name, Array.make nq infinity)) engines
  in
  Gc.compact ();
  let rounds = 6 in
  for round = 0 to rounds do
    (* round 0 is the untimed warmup *)
    List.iter
      (fun (name, engine, _, _) ->
        let slots = List.assoc name best in
        Array.iteri
          (fun i ast ->
            match
              Bench_util.Runner.time (fun () ->
                  Amber.Engine.query ~timeout:cfg.timeout ~limit:cfg.row_limit
                    engine ast)
            with
            | dt, _ -> if round > 0 && dt < slots.(i) then slots.(i) <- dt
            | exception Amber.Deadline.Expired -> ())
          queries)
      engines
  done;
  let results =
    List.map
      (fun (name, _, total, stats) ->
        let slots = List.assoc name best in
        let times =
          Array.to_list slots |> List.filter (fun t -> t < infinity)
        in
        let median = Bench_util.Stats.median times in
        (name, total, stats, median, List.length times, nq - List.length times))
      engines
  in
  let raw_total, raw_median =
    match results with
    | (_, total, _, median, _, _) :: _ -> (total, median)
    | [] -> (0, 0.)
  in
  Bench_util.Table_fmt.print
    ~header:
      [
        "layout";
        "resident bytes";
        "B/triple";
        "raw/ef/blocked";
        "payload MB";
        "median ms";
        "vs raw";
      ]
    (List.map
       (fun (name, total, s, median, _, _) ->
         [
           name;
           string_of_int total;
           Printf.sprintf "%.1f" (float_of_int total /. float_of_int n_triples);
           Printf.sprintf "%d/%d/%d" s.Mgraph.Posting.raw_lists
             s.Mgraph.Posting.ef_lists s.Mgraph.Posting.blocked_lists;
           Printf.sprintf "%.2f"
             (float_of_int s.Mgraph.Posting.payload_bytes /. 1_048_576.);
           Bench_util.Table_fmt.ms median;
           (if raw_median > 0. then
              Printf.sprintf "%.0f%% bytes, %+.1f%% time"
                (100. *. float_of_int total /. float_of_int (max 1 raw_total))
                (100. *. (median -. raw_median) /. raw_median)
            else "-");
         ])
       results);
  (match
     List.find_opt (fun (name, _, _, _, _, _) -> name = "auto") results
   with
  | Some (_, auto_total, _, auto_median, _, _) when raw_total > 0 ->
      Printf.printf
        "auto layout: %.2fx smaller than raw, median query %+.1f%%\n"
        (float_of_int raw_total /. float_of_int (max 1 auto_total))
        (if raw_median > 0. then
           100. *. (auto_median -. raw_median) /. raw_median
         else 0.)
  | _ -> ());
  add_json "layouts"
    (Printf.sprintf {|{"dataset":"%s","triples":%d,"per_layout":[%s]}|}
       ds.ds_name (List.length triples)
       (String.concat ","
          (List.map
             (fun (name, total, s, median, answered, unanswered) ->
               Printf.sprintf
                 {|{"layout":"%s","total_resident_bytes":%d,"bytes_per_triple":%.2f,"raw_lists":%d,"ef_lists":%d,"blocked_lists":%d,"payload_bytes":%d,"median_query_s":%.9g,"answered":%d,"unanswered":%d}|}
                 name total
                 (float_of_int total /. float_of_int n_triples)
                 s.Mgraph.Posting.raw_lists s.Mgraph.Posting.ef_lists
                 s.Mgraph.Posting.blocked_lists s.Mgraph.Posting.payload_bytes
                 median answered unanswered)
             results)))

(* ------------------------------------------------------------------ *)
(* Live updates: write throughput, query latency vs delta fraction,    *)
(* compaction pause; --only updates, recorded as BENCH_8.json          *)
(* ------------------------------------------------------------------ *)

let bench_updates cfg ds =
  section
    (Printf.sprintf
       "Live updates: delta-overlay write throughput, query latency vs delta \
        fraction, compaction pause on %s"
       ds.ds_name);
  let triples = Array.of_list (Lazy.force ds.triples) in
  let n = Array.length triples in
  let workload =
    Datagen.Workload.generate ~seed:(cfg.seed + 91) (Lazy.force ds.corpus)
      ~shape:Datagen.Workload.Star ~size:20 ~count:cfg.queries_per_point
    @ Datagen.Workload.generate ~seed:(cfg.seed + 92) (Lazy.force ds.corpus)
        ~shape:Datagen.Workload.Complex ~size:30 ~count:cfg.queries_per_point
  in
  let batch = 256 in
  (* For each delta fraction f the engine holds the SAME merged world —
     the last f·n triples arrive through Live_engine.update (in batches
     of [batch]) instead of the offline build — so the latency columns
     isolate the cost of querying through the overlay. In-memory live
     engine (no directory): the figures are engine overhead, not disk. *)
  let points =
    List.map
      (fun frac ->
        let cut = n - int_of_float (frac *. float_of_int n) in
        let base = Array.to_list (Array.sub triples 0 cut) in
        let live =
          Amber.Live_engine.of_engine
            (Amber.Engine.build ~layout:cfg.layout base)
        in
        let n_updates = ref 0 in
        let t_update, () =
          Bench_util.Runner.time (fun () ->
              let i = ref cut in
              while !i < n do
                let len = min batch (n - !i) in
                ignore
                  (Amber.Live_engine.update live
                     ~adds:(Array.to_list (Array.sub triples !i len))
                     ~dels:[]);
                incr n_updates;
                i := !i + len
              done)
        in
        let engine =
          Amber.Live_engine.engine (Amber.Live_engine.pin live)
        in
        let times =
          List.filter_map
            (fun ast ->
              match
                Bench_util.Runner.time (fun () ->
                    Amber.Engine.query ~timeout:cfg.timeout
                      ~limit:cfg.row_limit engine ast)
              with
              | dt, _ -> Some dt
              | exception Amber.Deadline.Expired -> None)
            workload
        in
        (* The compaction "pause" is writer-side only — readers keep
           their pinned epochs throughout — but it bounds how stale a
           durable generation can get. *)
        let t_compact, _ =
          Bench_util.Runner.time (fun () -> Amber.Live_engine.compact live)
        in
        ( frac,
          n - cut,
          !n_updates,
          t_update,
          Bench_util.Stats.median times,
          Bench_util.Stats.p95 times,
          List.length times,
          t_compact ))
      [ 0.0; 0.10; 0.50 ]
  in
  Bench_util.Table_fmt.print
    ~header:
      [
        "delta";
        "delta triples";
        "updates";
        "apply s";
        "triples/s";
        "median ms";
        "p95 ms";
        "answered";
        "compact s";
      ]
    (List.map
       (fun (frac, dn, updates, t_update, median, p95, answered, t_compact) ->
         [
           Printf.sprintf "%.0f%%" (100. *. frac);
           string_of_int dn;
           string_of_int updates;
           Printf.sprintf "%.3f" t_update;
           (if dn = 0 then "-"
            else Printf.sprintf "%.0f" (float_of_int dn /. t_update));
           Bench_util.Table_fmt.ms median;
           Bench_util.Table_fmt.ms p95;
           Printf.sprintf "%d/%d" answered (List.length workload);
           Printf.sprintf "%.3f" t_compact;
         ])
       points);
  add_json "updates"
    (Printf.sprintf
       {|{"dataset":"%s","triples":%d,"batch":%d,"points":[%s]}|}
       ds.ds_name n batch
       (String.concat ","
          (List.map
             (fun (frac, dn, updates, t_update, median, p95, answered,
                   t_compact) ->
               (* [triples_per_sec] deliberately avoids the comparator's
                  "_s" timing suffix: it is a throughput, where bigger
                  is better, so the regression gate must not read its
                  growth as a slowdown. *)
               Printf.sprintf
                 {|{"delta_fraction":%.2f,"delta_triples":%d,"updates":%d,"update_s":%.9g,"triples_per_sec":%.1f,"query_median_s":%.9g,"query_p95_s":%.9g,"answered":%d,"unanswered":%d,"compaction_s":%.9g}|}
                 frac dn updates t_update
                 (if t_update > 0. then float_of_int dn /. t_update else 0.)
                 median p95 answered
                 (List.length workload - answered)
                 t_compact)
             points)))

(* ------------------------------------------------------------------ *)
(* Adaptive planner: plan policies on uniform vs skewed data;          *)
(* --only plans, recorded as BENCH_9.json                              *)
(* ------------------------------------------------------------------ *)

let bench_plans cfg =
  section
    "Adaptive planner: paper / adaptive / forced plans on uniform and skewed \
     DBPEDIA-like";
  let plans =
    [
      ("paper", Amber.Stats.Paper);
      ("adaptive", Amber.Stats.Adaptive);
      ("forced:rtree", Amber.Stats.Forced Amber.Stats.Rtree);
      ("forced:attrs", Amber.Stats.Forced Amber.Stats.Attrs);
      ("forced:scan", Amber.Stats.Forced Amber.Stats.Scan);
    ]
  in
  (* Same profile and seed twice: the skewed twin differs only in how
     hard preferential attachment concentrates on the hubs, so any
     timing split between the columns is the planner meeting the degree
     distribution, not a different dataset. *)
  let variants =
    [ ("uniform", 0.0); ("skewed", 1.8) ]
  in
  let ds_json =
    List.map
      (fun (ds_name, skew) ->
        let triples =
          Datagen.Scale_free.generate ~seed:cfg.seed ~skew
            (Datagen.Scale_free.dbpedia_like ~scale:cfg.scale ())
        in
        let engine = Amber.Engine.build ~layout:cfg.layout triples in
        let corpus = Datagen.Workload.corpus triples in
        let families =
          [
            ("star", Datagen.Workload.Star, 10);
            ("complex", Datagen.Workload.Complex, 30);
          ]
        in
        let fam_json =
          List.map
            (fun (fam, shape, size) ->
              let queries =
                Datagen.Workload.generate ~seed:(cfg.seed + 77) corpus ~shape
                  ~size ~count:cfg.queries_per_point
              in
              (* Caches off: the LRUs would let whichever plan runs
                 second inherit the first one's candidate sets, turning
                 the comparison into a cache benchmark. Two fairness
                 measures on top: the plan order rotates per query (no
                 plan always pays the cold-page first run) and each
                 (query, plan) is timed twice keeping the best (the
                 second run measures the plan, not the page faults). An
                 expired attempt is scored at the full budget — it did
                 spend it; dropping it would flatter exactly the plans
                 that time out. *)
              let rotate k l =
                let n = List.length l in
                let k = k mod n in
                let rec split i acc = function
                  | rest when i = k -> List.rev_append acc rest @ List.rev acc
                  | x :: rest -> split (i + 1) (x :: acc) rest
                  | [] -> assert false
                in
                split 0 [] l
              in
              let per_query =
                List.mapi
                  (fun qi ast ->
                    List.map
                      (fun (plan_name, plan) ->
                        let attempt () =
                          match
                            Bench_util.Runner.time (fun () ->
                                Amber.Engine.query ~timeout:cfg.timeout
                                  ~limit:cfg.row_limit ~caches:false ~plan
                                  engine ast)
                          with
                          | dt, a -> (dt, Some a)
                          | exception Amber.Deadline.Expired ->
                              (cfg.timeout, None)
                        in
                        let d1, a1 = attempt () in
                        let d2, a2 = attempt () in
                        let answer = match a1 with Some _ -> a1 | None -> a2 in
                        (plan_name, (min d1 d2, answer)))
                      (rotate qi plans))
                  queries
              in
              (* The harness's own guard on the planner contract: every
                 plan that answered a query produced the same answer
                 set. Row ORDER tracks the core order (a plan decision),
                 so compare sorted; a truncated answer is an
                 order-dependent prefix and is skipped here (the
                 differential tests cover plan identity exhaustively at
                 sizes where nothing truncates). *)
              List.iter
                (fun results ->
                  let answered =
                    List.filter_map (fun (_, (_, a)) -> a) results
                  in
                  if
                    List.for_all
                      (fun a -> not a.Amber.Engine.truncated)
                      answered
                  then
                    match
                      List.map
                        (fun a -> List.sort compare a.Amber.Engine.rows)
                        answered
                    with
                    | [] -> ()
                    | first :: rest ->
                        if not (List.for_all (fun rows -> rows = first) rest)
                        then begin
                          Printf.eprintf
                            "FATAL: plans disagree on answers (%s, %s)\n"
                            ds_name fam;
                          exit 2
                        end)
                per_query;
              let rows =
                List.map
                  (fun (plan_name, _) ->
                    let samples =
                      List.map (fun results -> List.assoc plan_name results)
                        per_query
                    in
                    let times = List.map fst samples in
                    let answered =
                      List.length
                        (List.filter (fun (_, a) -> a <> None) samples)
                    in
                    ( plan_name,
                      Bench_util.Stats.median times,
                      Bench_util.Stats.p95 times,
                      answered ))
                  plans
              in
              Bench_util.Table_fmt.print
                ~header:
                  [
                    Printf.sprintf "%s %s" ds_name fam;
                    "median ms";
                    "p95 ms";
                    "answered";
                  ]
                (List.map
                   (fun (plan_name, median, p95, answered) ->
                     [
                       plan_name;
                       Bench_util.Table_fmt.ms median;
                       Bench_util.Table_fmt.ms p95;
                       Printf.sprintf "%d/%d" answered (List.length queries);
                     ])
                   rows);
              Printf.sprintf {|{"family":"%s","queries":%d,"plans":[%s]}|} fam
                (List.length queries)
                (String.concat ","
                   (List.map
                      (fun (plan_name, median, p95, answered) ->
                        Printf.sprintf
                          {|{"plan":"%s","median_s":%.9g,"p95_s":%.9g,"answered":%d}|}
                          plan_name median p95 answered)
                      rows)))
            families
        in
        Printf.sprintf {|{"dataset":"%s","skew":%.2f,"triples":%d,"families":[%s]}|}
          ds_name skew (List.length triples)
          (String.concat "," fam_json))
      variants
  in
  add_json "plans"
    (Printf.sprintf {|{"datasets":[%s]}|} (String.concat "," ds_json))

(* ------------------------------------------------------------------ *)
(* Semantic rewriter: minimal vs redundant workloads with the rewrite  *)
(* pass on and off; --only rewrites, recorded as BENCH_10.json         *)
(* ------------------------------------------------------------------ *)

let bench_rewrites cfg ds =
  section
    (Printf.sprintf
       "Semantic rewriter: rewrite on/off over minimal and redundant \
        workloads on %s"
       ds.ds_name);
  let engine = Amber.Engine.build ~layout:cfg.layout (Lazy.force ds.triples) in
  let base_queries =
    Datagen.Workload.generate ~seed:(cfg.seed + 91) (Lazy.force ds.corpus)
      ~shape:Datagen.Workload.Complex ~size:4 ~count:cfg.queries_per_point
  in
  (* Both suites project the original variables under DISTINCT — the
     setting where core minimization is sound — so the two columns
     differ only in what the rewriter can find. "minimal" is the
     workload as generated (nothing removable: measures pure rewriter
     overhead); "redundant" duplicates the first pattern verbatim and
     appends a variable-renamed copy of the whole clause, which folds
     back onto the original under a homomorphism fixing the projected
     variables — exactly the redundancy minimization removes. *)
  let minimal ast =
    Sparql.Ast.make ~distinct:true
      (Sparql.Ast.Select_vars (Sparql.Ast.variables ast))
      ast.Sparql.Ast.where
  in
  let redundant ast =
    let open Sparql.Ast in
    let rename = function Var v -> Var (v ^ "_r") | t -> t in
    let copy =
      List.map
        (fun p ->
          { subject = rename p.subject;
            predicate = p.predicate;
            obj = rename p.obj })
        ast.where
    in
    let dup = match ast.where with [] -> [] | p :: _ -> [ p ] in
    make ~distinct:true (Select_vars (variables ast)) (ast.where @ dup @ copy)
  in
  let steps_fired ast =
    let r =
      Amber.Rewrite.apply ~db:(Amber.Engine.db engine)
        ~attribute:(Amber.Engine.attribute_index engine)
        ~stats:(lazy (Amber.Engine.statistics engine))
        ast
    in
    List.length r.Amber.Rewrite.steps
  in
  let suites =
    [
      ("minimal", List.map minimal base_queries);
      ("redundant", List.map redundant base_queries);
    ]
  in
  let suite_json =
    List.map
      (fun (suite, queries) ->
        let fired = List.fold_left (fun n q -> n + steps_fired q) 0 queries in
        (* Caches off so the second mode can't inherit the first one's
           candidate sets; each (query, mode) is timed twice keeping the
           best, and an expired attempt is scored at the full budget. *)
        let per_query =
          List.map
            (fun ast ->
              List.map
                (fun (mode, rewrite) ->
                  let attempt () =
                    match
                      Bench_util.Runner.time (fun () ->
                          Amber.Engine.query ~timeout:cfg.timeout
                            ~limit:cfg.row_limit ~caches:false ~rewrite engine
                            ast)
                    with
                    | dt, a -> (dt, Some a)
                    | exception Amber.Deadline.Expired -> (cfg.timeout, None)
                  in
                  let d1, a1 = attempt () in
                  let d2, a2 = attempt () in
                  let answer = match a1 with Some _ -> a1 | None -> a2 in
                  (mode, (min d1 d2, answer)))
                [ ("on", true); ("off", false) ])
            queries
        in
        (* The point of the whole exercise: the rewriter must be
           invisible in the answers. Row ORDER may shift (the rewritten
           clause seeds a different core order), so compare sorted; a
           truncated answer is an order-dependent prefix and is skipped
           here (the differential tests cover identity at sizes where
           nothing truncates). *)
        List.iter
          (fun results ->
            let answered = List.filter_map (fun (_, (_, a)) -> a) results in
            if
              List.for_all (fun a -> not a.Amber.Engine.truncated) answered
            then
              match
                List.map
                  (fun a -> List.sort compare a.Amber.Engine.rows)
                  answered
              with
              | [] -> ()
              | first :: rest ->
                  if not (List.for_all (fun rows -> rows = first) rest)
                  then begin
                    Printf.eprintf
                      "FATAL: rewrite on/off disagree on answers (%s, %s)\n"
                      ds.ds_name suite;
                    exit 2
                  end)
          per_query;
        let rows =
          List.map
            (fun mode ->
              let samples =
                List.map (fun results -> List.assoc mode results) per_query
              in
              let times = List.map fst samples in
              let answered =
                List.length (List.filter (fun (_, a) -> a <> None) samples)
              in
              ( mode,
                Bench_util.Stats.median times,
                Bench_util.Stats.p95 times,
                answered ))
            [ "on"; "off" ]
        in
        Bench_util.Table_fmt.print
          ~header:
            [
              Printf.sprintf "%s (rewrites fired: %d)" suite fired;
              "median ms";
              "p95 ms";
              "answered";
            ]
          (List.map
             (fun (mode, median, p95, answered) ->
               [
                 "rewrite=" ^ mode;
                 Bench_util.Table_fmt.ms median;
                 Bench_util.Table_fmt.ms p95;
                 Printf.sprintf "%d/%d" answered (List.length queries);
               ])
             rows);
        Printf.sprintf
          {|{"suite":"%s","queries":%d,"rewrites_fired":%d,"modes":[%s]}|}
          suite (List.length queries) fired
          (String.concat ","
             (List.map
                (fun (mode, median, p95, answered) ->
                  Printf.sprintf
                    {|{"rewrite":"%s","median_s":%.9g,"p95_s":%.9g,"answered":%d}|}
                    mode median p95 answered)
                rows)))
      suites
  in
  add_json "rewrites"
    (Printf.sprintf {|{"dataset":"%s","triples":%d,"suites":[%s]}|} ds.ds_name
       (List.length (Lazy.force ds.triples))
       (String.concat "," suite_json))

(* ------------------------------------------------------------------ *)
(* Micro benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  section "Micro benchmarks (Bechamel)";
  let triples = Datagen.Lubm.generate ~universities:1 () in
  let engine = Amber.Engine.build triples in
  let db = Amber.Engine.db engine in
  let nidx = Amber.Engine.neighbourhood_index engine in
  let sidx = Amber.Engine.synopsis_index engine in
  let scan_sidx = Amber.Synopsis_index.build ~mode:Amber.Synopsis_index.Scan db in
  let g = Amber.Database.graph db in
  let hub =
    (* The vertex with the largest degree: a class vertex. *)
    let best = ref 0 in
    for v = 0 to Mgraph.Multigraph.vertex_count g - 1 do
      if Mgraph.Multigraph.degree g v > Mgraph.Multigraph.degree g !best then
        best := v
    done;
    !best
  in
  let sig_query =
    Mgraph.Signature.make ~incoming:[ [| 0 |] ] ~outgoing:[ [| 1 |]; [| 2 |] ]
  in
  let ub l = "http://swat.lehigh.edu/onto/univ-bench.owl#" ^ l in
  let advisor_q =
    Sparql.Parser.parse
      (Printf.sprintf
         "SELECT * WHERE { ?s <%s> ?prof . ?prof <%s> ?dept . ?s <%s> ?dept }"
         (ub "advisor") (ub "worksFor") (ub "memberOf"))
  in
  let ts = Baselines.Triple_store.load triples in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"neighbourhood-probe-hub"
        (Staged.stage (fun () ->
             Sys.opaque_identity
               (Amber.Neighbourhood_index.neighbours nidx hub Mgraph.Multigraph.In
                  [| 0 |])));
      Test.make ~name:"synopsis-rtree-candidates"
        (Staged.stage (fun () ->
             Sys.opaque_identity
               (Amber.Synopsis_index.candidates_of_signature sidx sig_query)));
      Test.make ~name:"synopsis-scan-candidates"
        (Staged.stage (fun () ->
             Sys.opaque_identity
               (Amber.Synopsis_index.candidates_of_signature scan_sidx sig_query)));
      Test.make ~name:"amber-triangle-query"
        (Staged.stage (fun () ->
             Sys.opaque_identity (Amber.Engine.query ~limit:100 engine advisor_q)));
      Test.make ~name:"triple-store-triangle-query"
        (Staged.stage (fun () ->
             Sys.opaque_identity
               (Baselines.Triple_store.query ~limit:100 ts advisor_q)));
    ]
  in
  let grouped = Test.make_grouped ~name:"amber" ~fmt:"%s/%s" tests in
  let benchmark () =
    let cfg_b = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let raw = Benchmark.all cfg_b instances grouped in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-32s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-32s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)

let () =
  let cfg = parse_args () in
  Printf.printf
    "AMbER benchmark harness — scale %.2f, timeout %.1fs, %d queries/point, row \
     limit %d, seed %d\n"
    cfg.scale cfg.timeout cfg.queries_per_point cfg.row_limit cfg.seed;
  let dbpedia, yago, lubm = datasets cfg in
  let all = [ dbpedia; yago; lubm ] in
  if wants cfg "table4" then bench_table4 all;
  if wants cfg "table5" then bench_table5 all;
  if wants cfg "table1" then bench_table1 cfg dbpedia;
  if wants cfg "fig6" then
    bench_figure cfg ~fig:6 ~ds:dbpedia ~shape:Datagen.Workload.Star;
  if wants cfg "fig7" then
    bench_figure cfg ~fig:7 ~ds:dbpedia ~shape:Datagen.Workload.Complex;
  if wants cfg "fig8" then
    bench_figure cfg ~fig:8 ~ds:yago ~shape:Datagen.Workload.Star;
  if wants cfg "fig9" then
    bench_figure cfg ~fig:9 ~ds:yago ~shape:Datagen.Workload.Complex;
  if wants cfg "fig10" then
    bench_figure cfg ~fig:10 ~ds:lubm ~shape:Datagen.Workload.Star;
  if wants cfg "fig11" then
    bench_figure cfg ~fig:11 ~ds:lubm ~shape:Datagen.Workload.Complex;
  if wants cfg "ablation" then bench_ablation cfg dbpedia;
  if wants cfg "profile" then bench_profile cfg dbpedia;
  if wants cfg "kernels" then bench_kernels cfg dbpedia;
  if wants cfg "parallel" then bench_parallel cfg dbpedia;
  if wants cfg "build" then bench_build cfg dbpedia;
  if wants cfg "analysis" then bench_analysis cfg dbpedia;
  if wants cfg "resource" then bench_resource cfg dbpedia;
  if wants cfg "layouts" then bench_layouts cfg dbpedia;
  if wants cfg "updates" then bench_updates cfg dbpedia;
  if wants cfg "plans" then bench_plans cfg;
  if wants cfg "rewrites" then bench_rewrites cfg dbpedia;
  if cfg.micro then micro_benchmarks ();
  write_json_report cfg;
  let within_baseline = compare_with_baseline cfg in
  print_newline ();
  if not within_baseline then exit 3
