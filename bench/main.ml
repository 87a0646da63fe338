(* Benchmark harness regenerating every table and figure of the paper's
   Section 7 on the scaled synthetic datasets (see DESIGN.md §3-§4), plus
   a Bechamel micro-benchmark suite (--micro).

   Experiments:
     table1  - avg time, complex queries of 50 triples, DBPEDIA-like
     table4  - benchmark statistics
     table5  - offline stage: database + index construction time/memory
     fig6/7  - star/complex queries on DBPEDIA-like (time + %unanswered)
     fig8/9  - star/complex queries on YAGO-like
     fig10/11- star/complex queries on LUBM
     ablation- AMbER variants, one design choice departed from each
     parallel- domain-count scaling curve (recorded as BENCH_3.json) *)

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
  }

let suite_ids =
  [ "table1"; "table4"; "table5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10";
    "fig11"; "ablation"; "parallel" ]

let usage () =
  Printf.printf
    {|usage: bench [--only ids] [--scale F] [--timeout S] [--queries N]
             [--sizes a,b,c] [--limit N] [--seed N] [--quick] [--micro]
             [--json FILE]

  ids (comma separated; default all):
       %s
  --quick: small preset (scale 0.04, 5 queries/point, sizes 10,20,30)
  --json:  also write a machine-readable report (summaries with
           p95/p99, metrics registry) to FILE
|}
    (String.concat " " suite_ids);
  exit 0

let parse_args () =
  let cfg = ref default_config in
  let rec go = function
    | [] -> ()
    | "--help" :: _ -> usage ()
    | "--only" :: v :: rest ->
        let ids = String.split_on_char ',' v in
        (match List.filter (fun id -> not (List.mem id suite_ids)) ids with
        | [] -> ()
        | unknown ->
            Printf.eprintf "unknown suite id %s (known: %s)\n"
              (String.concat "," unknown)
              (String.concat " " suite_ids);
            exit 1);
        cfg := { !cfg with only = ids };
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
  let engine = Amber.Engine.build triples in
  (* Every variant runs the paper plan (r1/r2 ordering, synopsis-scan
     seeding) and departs from it in one component only. Sequential
     variants report the matcher's candidate counter too. *)
  let paper = { Amber.Engine.Opts.default with plan = Amber.Stats.Paper } in
  let seq_variant name opts =
    ( name,
      `Seq
        (fun ast ->
          Amber.Engine.query_with_stats ~opts ~timeout:cfg.timeout
            ~limit:cfg.row_limit engine ast) )
  in
  let variants =
    [
      seq_variant "paper (r1/r2 + satellites + synopsis scan)" paper;
      seq_variant "no satellite decomposition" { paper with satellites = false };
      seq_variant "ordering: by degree"
        { paper with order = Some Amber.Decompose.By_degree };
      seq_variant "ordering: arbitrary"
        { paper with order = Some Amber.Decompose.Arbitrary };
      ( "parallel (4 domains)",
        `Par
          (fun ast ->
            Amber.Engine.query ~opts:{ paper with domains = 4 }
              ~timeout:cfg.timeout ~limit:cfg.row_limit engine ast) );
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
              Amber.Engine.query
                ~opts:{ Amber.Engine.Opts.default with domains }
                ~timeout:cfg.timeout ~limit:cfg.row_limit engine ast)
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
(* Micro benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  section "Micro benchmarks (Bechamel)";
  let triples = Datagen.Lubm.generate ~universities:1 () in
  let engine = Amber.Engine.build triples in
  let db = Amber.Engine.db engine in
  let nidx = Amber.Engine.neighbourhood_index engine in
  let sidx = Amber.Engine.synopsis_index engine in
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
      Test.make ~name:"synopsis-candidates"
        (Staged.stage (fun () ->
             Sys.opaque_identity
               (Amber.Synopsis_index.candidates_of_signature sidx sig_query)));
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
  if wants cfg "parallel" then bench_parallel cfg dbpedia;
  if cfg.micro then micro_benchmarks ();
  write_json_report cfg;
  print_newline ()
