(* amber — command-line front end.

     amber query   --data g.nt --query q.sparql [--engine amber] [--timeout S]
     amber build   g.nt -o db.amberix [--domains N]  (index snapshot)
     amber stats   --data g.nt
     amber bench   --data g.nt --query q.sparql (time one query on all engines)
     amber explain --data g.nt --query q.sparql [--plan P] [--json]
     amber lint    --data g.nt q1.sparql [q2.sparql ...] [--json]
     amber fsck    db.amberix (validate a snapshot without serving it)
     amber log tail flight.jsonl [--n N] [--json]  (flight-recorder sink)
     amber update  live/ [--init BASE] [--add F] [--remove F] [--compact]

   Query text can also be passed inline with --sparql. Data files ending
   in .ttl are parsed as Turtle, anything else as N-Triples — except
   files starting with the "AMBERIX1" magic (written by `amber build`),
   which load as prebuilt index snapshots: every subcommand sniffs the
   magic, so `query`, `serve`, `stats` and `bench` all accept .amberix
   inputs, skipping the offline rebuild. A --data argument that names a
   directory is opened as a live-engine directory (`amber update
   --init`): queries and `serve` see the current epoch — base plus
   pending delta — and `serve` additionally accepts POST /update.
   Queries route by their parsed form: a SELECT over one basic graph
   pattern runs on the BGP engine, one using UNION / OPTIONAL / FILTER
   on the algebra evaluator (amber engine only). `query --profile`
   prints the per-query profile (phase tree, candidate counts, matcher
   counters); `query --explain` the matching plan; `query --trace-out f`
   writes the phase tree as Chrome trace-event JSON for Perfetto.
   --plan paper|adaptive|forced:<attrs|scan> picks the planner
   policy on `query`, `explain` and `serve`; answers never depend on
   it. --rewrite on|off toggles the semantic query rewriter on the same
   three commands (default on; equivalence-preserving, answers never
   depend on it either). `lint` additionally prints what the rewriter
   would simplify; `lint --strict` exits non-zero on warnings, not just
   on proven-empty queries. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- common options ------------------------------------------------- *)

let data_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "data" ] ~docv:"FILE"
        ~doc:
          "Data: an N-Triples/Turtle/.adb file, an .amberix snapshot, or a \
           live-engine directory (see $(b,amber update)).")

let query_file_arg =
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "q"; "query" ] ~docv:"FILE" ~doc:"SPARQL query file.")

let sparql_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sparql" ] ~docv:"QUERY" ~doc:"Inline SPARQL query text.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-query time budget.")

let limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "limit" ] ~docv:"N" ~doc:"Cap the number of result rows.")

let domains_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Run the matcher on up to $(docv) domains (amber engine only; \
           clamped to 1-8). Default: sequential.")

let engine_arg =
  Arg.(
    value
    & opt (enum
             [ ("amber", `Amber); ("xrdf3x", `Rdf3x); ("virtuoso", `Virtuoso);
               ("jena", `Jena); ("gstore", `Gstore); ("reference", `Reference) ])
        `Amber
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Engine: amber | xrdf3x | virtuoso | jena | gstore | reference \
           (brute-force oracle; tiny data only).")

let open_objects_arg =
  Arg.(
    value & flag
    & info [ "open-objects" ]
        ~doc:"Enable AMbER's literal-binding extension (amber engine only).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("csv", `Csv); ("tsv", `Tsv); ("json", `Json) ])
        `Table
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: table | csv | tsv | json.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print a per-query profile after the results: phase tree (parse, \
           decompose, candidates, match, enumerate), per-vertex candidate \
           counts before/after pruning, and the matcher's search counters \
           (amber engine, SELECT queries).")

let explain_flag_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the decomposition and matching order before answering \
           (amber engine only).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's phase tree to $(docv) as Chrome trace-event JSON, \
           openable in Perfetto (ui.perfetto.dev) or chrome://tracing. \
           Implies a profiled run; with --domains N the per-domain chunk \
           spans appear as separate lanes (amber engine, SELECT only).")

let plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "plan" ] ~docv:"PLAN"
        ~doc:
          "Seed/ordering policy: paper (the fixed r1/r2 order and synopsis \
           seeding), adaptive (cardinality-driven, the default), or \
           forced:<attrs|scan> to pin the seed strategy. Answers are \
           identical across plans (amber engine only).")

let rewrite_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rewrite" ] ~docv:"on|off"
        ~doc:
          "Toggle the semantic query rewriter (duplicate elimination, core \
           minimization, constant propagation, Cartesian-product hints) run \
           before planning. Default on; every pass is \
           equivalence-preserving, so answers are identical either way \
           (amber engine only).")

(* The command's --plan, --rewrite and --domains (those it has; [absent]
   stands for the others), read by the engine's own option parser: the
   spellings, the clamp and the error text are the endpoint's. *)
let absent = Term.const None

let opts_term ~plan ~rewrite ~domains =
  let parse plan rewrite domains =
    Amber.Engine.Opts.parse ?plan ?rewrite ?domains Amber.Engine.Opts.default
  in
  Term.(term_result' (const parse $ plan $ rewrite $ domains))

let query_text query_file sparql =
  match (sparql, query_file) with
  | Some q, _ -> q
  | None, Some f -> read_file f
  | None, None ->
      prerr_endline "error: provide --query FILE or --sparql QUERY";
      exit 2

(* Reopen a live directory, reporting where it stands. *)
let open_live_dir dir =
  match Amber.Live_engine.open_dir dir with
  | live ->
      let ep = Amber.Live_engine.pin live in
      let d = Amber.Live_engine.delta ep in
      Printf.eprintf
        "amber: opened live directory %s (generation %d, version %d, delta \
         +%d/-%d)\n%!"
        dir
        (Amber.Live_engine.generation ep)
        (Amber.Live_engine.version ep)
        (Amber.Delta.add_count d) (Amber.Delta.del_count d);
      live
  | exception Rdf.Binary.Corrupt msg ->
      Printf.eprintf "corrupt live directory %s: %s\n" dir msg;
      exit 1
  | exception Sys_error msg ->
      Printf.eprintf "cannot open live directory %s: %s\n" dir msg;
      exit 1

let load_triples path =
  let parse () =
    (* A snapshot holds the built indexes; engines needing raw triples
       (baselines, compile) get them back out of the database. A live
       directory contributes its merged world: base plus delta. *)
    if Sys.is_directory path then
      Amber.Database.to_triples
        (Amber.Engine.db
           (Amber.Live_engine.engine (Amber.Live_engine.pin (open_live_dir path))))
    else if Amber.Snapshot.sniff_file path then
      Amber.Database.to_triples (Amber.Snapshot.read_file path).Amber.Snapshot.db
    else if Filename.check_suffix path ".ttl" then Rdf.Turtle.parse_file path
    else if Filename.check_suffix path ".adb" then Rdf.Binary.read_file path
    else Rdf.Ntriples.parse_file path
  in
  match parse () with
  | triples ->
      Printf.eprintf "loaded %d triples from %s\n%!" (List.length triples) path;
      triples
  | exception Rdf.Ntriples.Parse_error e ->
      Format.eprintf "%a@." Rdf.Ntriples.pp_error e;
      exit 1
  | exception Rdf.Turtle.Parse_error e ->
      Format.eprintf "%a@." Rdf.Turtle.pp_error e;
      exit 1
  | exception Rdf.Binary.Corrupt msg ->
      Printf.eprintf "corrupt binary database: %s\n" msg;
      exit 1

(* The AMbER engine itself: an "AMBERIX1" file loads directly (no
   rebuild); anything else parses as triples and runs the offline stage
   (on [domains] domains when given). *)
let load_engine ?domains path =
  if Sys.is_directory path then
    Amber.Live_engine.engine (Amber.Live_engine.pin (open_live_dir path))
  else if Amber.Snapshot.sniff_file path then begin
    match Bench_util.Runner.time (fun () -> Amber.Engine.load_snapshot path) with
    | dt, e ->
        Printf.eprintf "amber: loaded index snapshot in %.2fs\n%!" dt;
        e
    | exception Rdf.Binary.Corrupt msg ->
        Printf.eprintf "corrupt index snapshot: %s\n" msg;
        exit 1
  end
  else begin
    let triples = load_triples path in
    let dt, e =
      Bench_util.Runner.time (fun () -> Amber.Engine.build ?domains triples)
    in
    Printf.eprintf "amber: offline stage %.2fs\n%!" dt;
    e
  end

let print_answer ?(format = `Table) (answer : Amber.Engine.answer) =
  match format with
  | `Table ->
      print_endline (String.concat "\t" answer.variables);
      List.iter
        (fun row ->
          print_endline
            (String.concat "\t"
               (List.map
                  (function Some t -> Rdf.Term.to_string t | None -> "<unbound>")
                  row)))
        answer.rows;
      Printf.printf "-- %d row(s)%s\n" (List.length answer.rows)
        (if answer.truncated then " (truncated)" else "")
  | `Csv -> print_string (Amber.Results.to_csv answer)
  | `Tsv -> print_string (Amber.Results.to_tsv answer)
  | `Json -> print_endline (Amber.Results.to_json answer)

(* --- query ----------------------------------------------------------- *)

let json_flag_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit one machine-readable JSON array instead of pretty text.")

let run_query data query_file sparql timeout limit engine open_objects format
    profile explain trace_out (opts : Amber.Engine.Opts.t) =
  let src = query_text query_file sparql in
  if (profile || explain || trace_out <> None) && engine <> `Amber then
    prerr_endline
      "note: --profile/--explain/--trace-out apply to the amber engine only; \
       ignored";
  if opts <> Amber.Engine.Opts.default && engine <> `Amber then
    prerr_endline
      "note: --domains/--plan/--rewrite apply to the amber engine only; ignored";
  let run (type e) (module E : Baselines.Engine_sig.S with type t = e) =
    let ast =
      match Sparql.Parser.parse_result src with
      | Ok ast -> ast
      | Error msg ->
          Printf.eprintf "SPARQL parse error: %s\n" msg;
          exit 1
    in
    let t_build, store =
      Bench_util.Runner.time (fun () -> E.load (load_triples data))
    in
    Printf.eprintf "%s: offline stage %.2fs\n%!" E.name t_build;
    match
      Bench_util.Runner.time (fun () -> E.query ?timeout ?limit store ast)
    with
    | dt, answer ->
        print_answer ~format answer;
        Printf.eprintf "answered in %.2f ms\n" (1000. *. dt)
    | exception Amber.Deadline.Expired ->
        Printf.eprintf "query timed out\n";
        exit 3
  in
  match engine with
  | `Amber -> (
      (* The native engine answers every query form (SELECT over one
         BGP or with UNION / OPTIONAL / FILTER, ASK, CONSTRUCT) in one
         run over the text, which parses it; the output follows the
         result's shape. It supports the open-objects extension. *)
      let parse_error line col message =
        Printf.eprintf "SPARQL parse error at %d:%d: %s\n" line col message;
        exit 1
      in
      let e = load_engine ~domains:opts.domains data in
      if explain then begin
        (* The plan report is diagnostic output: a parse of its own. *)
        match Sparql.Parser.parse_any src with
        | Sparql.Parser.Q_select ast ->
            Format.printf "%a@." Amber.Engine.pp_explanation
              (Amber.Engine.explain ~opts ~open_objects e ast);
            Format.printf "%a@." Amber.Analysis.pp_report
              (Amber.Engine.analyze ~open_objects e ast)
        | Sparql.Parser.Q_algebra _ | Sparql.Parser.Q_ask _
        | Sparql.Parser.Q_construct _ ->
            prerr_endline
              "note: --explain applies to SELECT queries over a basic graph \
               pattern only"
        | exception Sparql.Parser.Error { line; col; message } ->
            parse_error line col message
      end;
      match
        Bench_util.Runner.time (fun () ->
            Amber.Engine.run ~opts ~open_objects ?timeout ?limit
              ~profile:(profile || trace_out <> None) e (`Text src))
      with
      | dt, r ->
          (match r.Amber.Engine.result with
          | Amber.Engine.Rows a -> print_answer ~format a
          | Amber.Engine.Boolean b -> print_endline (if b then "true" else "false")
          | Amber.Engine.Triples triples ->
              print_string (Rdf.Ntriples.to_string triples));
          Option.iter
            (fun p ->
              if profile then Format.printf "%a@." Amber.Profile.pp p;
              Option.iter
                (fun path ->
                  let oc = open_out path in
                  output_string oc (Obs.Span.to_chrome_json p.Amber.Profile.span);
                  output_char oc '\n';
                  close_out oc;
                  Printf.eprintf "wrote trace to %s (open in ui.perfetto.dev)\n"
                    path)
                trace_out)
            r.Amber.Engine.profile;
          Printf.eprintf "answered in %.2f ms\n" (1000. *. dt)
      | exception Sparql.Parser.Error { line; col; message } ->
          parse_error line col message
      | exception Amber.Deadline.Expired ->
          Printf.eprintf "query timed out\n";
          exit 3)
  | `Rdf3x -> run (module Baselines.Triple_store)
  | `Virtuoso -> run (module Baselines.Column_store)
  | `Jena -> run (module Baselines.Nested_loop)
  | `Gstore -> run (module Baselines.Sig_store)
  | `Reference -> run (module Baselines.Reference_eval)

let query_cmd =
  let doc = "answer a SPARQL query over an N-Triples/Turtle file" in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const run_query $ data_arg $ query_file_arg $ sparql_arg $ timeout_arg
      $ limit_arg $ engine_arg $ open_objects_arg $ format_arg
      $ profile_arg $ explain_flag_arg $ trace_out_arg
      $ opts_term ~plan:plan_arg ~rewrite:rewrite_arg ~domains:domains_arg)

(* --- explain ----------------------------------------------------------- *)

let run_explain data query_file sparql open_objects opts json_out =
  let src = query_text query_file sparql in
  let ast =
    match Sparql.Parser.parse_result src with
    | Ok ast -> ast
    | Error msg ->
        Printf.eprintf "SPARQL parse error: %s\n" msg;
        exit 1
  in
  let e = load_engine data in
  let explanation = Amber.Engine.explain ~opts ~open_objects e ast in
  if json_out then
    print_endline (Amber.Engine.explanation_to_json explanation)
  else begin
    Format.printf "%a@." Amber.Engine.pp_explanation explanation;
    Format.printf "%a@." Amber.Analysis.pp_report
      (Amber.Engine.analyze ~open_objects e ast)
  end

let explain_cmd =
  let doc = "show AMbER's decomposition and matching order for a query" in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run_explain $ data_arg $ query_file_arg $ sparql_arg
      $ open_objects_arg
      $ opts_term ~plan:plan_arg ~rewrite:rewrite_arg ~domains:absent
      $ json_flag_arg)

(* --- lint -------------------------------------------------------------- *)

(* One human-readable line summarizing what the rewriter would do to a
   query — e.g. "2 pattern(s) removable by core minimization". *)
let rewrite_suggestions steps =
  let count kind =
    List.length
      (List.filter
         (fun (s : Amber.Rewrite.step) ->
           Amber.Rewrite.kind_slug s.Amber_rewrite.kind = kind)
         steps)
  in
  let dups = count "duplicate-pattern" in
  let mins = count "core-minimization" in
  let props = count "constant-propagation" in
  let carts = count "cartesian-product" in
  List.filter_map
    (fun (n, text) -> if n = 0 then None else Some (Printf.sprintf text n))
    [
      (dups, format_of_string "%d duplicate pattern(s) removable");
      (mins, format_of_string "%d pattern(s) removable by core minimization");
      (props, format_of_string "%d variable(s) data-forced to a constant");
      (carts, format_of_string "%d Cartesian product(s) between unconnected groups");
    ]

let run_lint data query_files query_file sparql open_objects strict json_out =
  let sources =
    (match sparql with Some q -> [ ("<inline>", q) ] | None -> [])
    @ (match query_file with Some f -> [ (f, read_file f) ] | None -> [])
    @ List.map (fun f -> (f, read_file f)) query_files
  in
  if sources = [] then begin
    prerr_endline "error: provide query files, --query FILE or --sparql QUERY";
    exit 2
  end;
  let e = load_engine data in
  let any_unsat = ref false
  and any_error = ref false
  and any_warning = ref false in
  let reports =
    List.map
      (fun (name, src) ->
        match Sparql.Parser.parse_result src with
        | Error msg ->
            any_error := true;
            (name, Error msg)
        | Ok ast ->
            let report = Amber.Engine.analyze ~open_objects e ast in
            if Amber.Analysis.unsat_proof report <> None then any_unsat := true;
            if Amber.Analysis.warnings report <> [] then any_warning := true;
            (* A dry rewriter run: what the engine would simplify away
               before planning. Advisory only — never affects the exit
               code. *)
            let rewrites =
              (Amber.Rewrite.apply ~open_objects ~db:(Amber.Engine.db e)
                 ~attribute:(Amber.Engine.attribute_index e)
                 ~stats:(lazy (Amber.Engine.statistics e))
                 ast)
                .Amber.Rewrite.steps
            in
            (name, Ok (report, rewrites)))
      sources
  in
  if json_out then begin
    let item (name, res) =
      let quote s = Obs.Json.to_text (Obs.Json.Str s) in
      match res with
      | Error msg ->
          Printf.sprintf "{\"query\":%s,\"parse_error\":%s}" (quote name)
            (quote msg)
      | Ok (report, rewrites) ->
          Printf.sprintf "{\"query\":%s,\"report\":%s,\"rewrites\":%s}"
            (quote name)
            (Amber.Analysis.report_to_json report)
            (Amber.Rewrite.steps_to_json rewrites)
    in
    print_endline ("[" ^ String.concat "," (List.map item reports) ^ "]")
  end
  else
    List.iter
      (fun (name, res) ->
        match res with
        | Error msg -> Printf.printf "%s: SPARQL parse error: %s\n" name msg
        | Ok (report, rewrites) ->
            if Amber.Analysis.unsat_proof report = None
               && Amber.Analysis.warnings report = []
               && Amber.Analysis.hints report = []
            then Printf.printf "%s: clean\n" name
            else Format.printf "%s:@.%a@." name Amber.Analysis.pp_report report;
            List.iter
              (fun line -> Printf.printf "  rewriter: %s\n" line)
              (rewrite_suggestions rewrites))
      reports;
  if !any_unsat then exit 1;
  if !any_error then exit 2;
  if strict && !any_warning then exit 1

let lint_queries_arg =
  Arg.(
    value
    & pos_all non_dir_file []
    & info [] ~docv:"QUERY" ~doc:"SPARQL query files to analyze.")

let strict_flag_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit non-zero when any query raises an analyzer warning, not only \
           when one is proven empty.")

let lint_cmd =
  let doc =
    "statically analyze queries against a dataset: unsatisfiability proofs, \
     warnings, hints and rewriter suggestions (exit 1 if any query is proven \
     empty; with --strict, also on warnings)"
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run_lint $ data_arg $ lint_queries_arg $ query_file_arg $ sparql_arg
      $ open_objects_arg $ strict_flag_arg $ json_flag_arg)

(* --- fsck -------------------------------------------------------------- *)

let run_fsck path =
  match Amber.Snapshot.fsck_file path with
  | Ok report ->
      Format.printf "%a@." Amber.Snapshot.pp_fsck_report report;
      Printf.printf "%s: ok\n" path
  | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 1

let fsck_input_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"SNAPSHOT" ~doc:"An .amberix index snapshot file.")

let fsck_cmd =
  let doc =
    "validate an index snapshot: framing, CRCs, id ranges, sorted-set \
     monotonicity and synopses recomputed from the graph (exit 1 on any \
     violation)"
  in
  Cmd.v (Cmd.info "fsck" ~doc) Term.(const run_fsck $ fsck_input_arg)

(* --- serve ------------------------------------------------------------- *)

let run_serve data port timeout limit open_objects slow_query log_sample
    log_sink (opts : Amber.Engine.Opts.t) =
  let is_live = Sys.is_directory data in
  let is_snapshot = (not is_live) && Amber.Snapshot.sniff_file data in
  let config =
    {
      Endpoint.default_config with
      port;
      timeout;
      limit;
      open_objects;
      opts;
      snapshot = (if is_snapshot then Some data else None);
      live_dir = (if is_live then Some data else None);
      slow_query = (if slow_query <= 0. then None else Some slow_query);
      log_sample;
      log_sink;
    }
  in
  let t_boot, server =
    Bench_util.Runner.time (fun () ->
        if is_live || is_snapshot then Endpoint.boot config
        else
          Endpoint.create ~config
            (Amber.Engine.build ~domains:opts.domains (load_triples data)))
  in
  Printf.eprintf "%s: %.2fs\n%!"
    (if is_live then "live-directory boot"
     else if is_snapshot then "snapshot boot"
     else "offline stage")
    t_boot;
  Printf.printf "SPARQL endpoint on http://%s:%d/sparql%s\n%!"
    config.Endpoint.host
    (Endpoint.bound_port server)
    (if is_live then " (live: POST /update enabled)" else "");
  Endpoint.serve server

let port_arg =
  Arg.(value & opt int 8080 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral).")

let slow_query_arg =
  Arg.(
    value & opt float 1.0
    & info [ "slow-query" ] ~docv:"SECONDS"
        ~doc:
          "Flight-recorder slow-query threshold: queries at or past $(docv) \
           are always captured, whatever --log-sample says. 0 disables the \
           threshold.")

let log_sample_arg =
  Arg.(
    value & opt float 1.0
    & info [ "log-sample" ] ~docv:"RATE"
        ~doc:
          "Flight-recorder sampling rate in [0,1]: the deterministic \
           fraction of ok queries to capture (slow and failed queries are \
           captured regardless).")

let log_sink_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-sink" ] ~docv:"FILE"
        ~doc:
          "Append captured flight records to $(docv) as JSON lines (read \
           back with `amber log tail`).")

let serve_cmd =
  let doc = "serve the dataset over the SPARQL protocol (HTTP)" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ data_arg $ port_arg $ timeout_arg $ limit_arg
      $ open_objects_arg $ slow_query_arg $ log_sample_arg $ log_sink_arg
      $ opts_term ~plan:plan_arg ~rewrite:rewrite_arg ~domains:domains_arg)

(* --- update ------------------------------------------------------------ *)

let run_update dir add_files remove_files compact init =
  let manifest = Filename.concat dir "live.manifest" in
  let live =
    if Sys.file_exists manifest then begin
      if init <> None then begin
        Printf.eprintf
          "error: %s is already a live directory; --init refuses to clobber it\n"
          dir;
        exit 2
      end;
      open_live_dir dir
    end
    else
      match init with
      | Some base -> Amber.Live_engine.of_engine ~dir (load_engine base)
      | None ->
          Printf.eprintf
            "error: %s is not a live directory (no live.manifest); create one \
             with --init BASE\n"
            dir;
          exit 2
  in
  let parse_batch files = List.concat_map load_triples files in
  let adds = parse_batch add_files in
  let dels = parse_batch remove_files in
  let ep =
    if adds = [] && dels = [] then Amber.Live_engine.pin live
    else begin
      let dt, ep =
        Bench_util.Runner.time (fun () ->
            Amber.Live_engine.update live ~adds ~dels)
      in
      Printf.eprintf "applied +%d/-%d in %.2f ms\n%!" (List.length adds)
        (List.length dels) (1000. *. dt);
      ep
    end
  in
  let ep =
    if compact then begin
      let dt, ep =
        Bench_util.Runner.time (fun () -> Amber.Live_engine.compact live)
      in
      Printf.eprintf "compacted into generation %d in %.2f ms\n%!"
        (Amber.Live_engine.generation ep)
        (1000. *. dt);
      ep
    end
    else ep
  in
  let d = Amber.Live_engine.delta ep in
  let engine = Amber.Live_engine.engine ep in
  Printf.printf
    "%s: generation %d, version %d, %d triples (delta +%d/-%d pending)\n" dir
    (Amber.Live_engine.generation ep)
    (Amber.Live_engine.version ep)
    (Amber.Database.triple_count (Amber.Engine.db engine))
    (Amber.Delta.add_count d) (Amber.Delta.del_count d)

let live_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"LIVEDIR"
        ~doc:"Live-engine directory (created by --init, then reusable).")

let add_files_arg =
  Arg.(
    value
    & opt_all non_dir_file []
    & info [ "add" ] ~docv:"FILE"
        ~doc:"Insert the triples of $(docv) (repeatable).")

let remove_files_arg =
  Arg.(
    value
    & opt_all non_dir_file []
    & info [ "remove" ] ~docv:"FILE"
        ~doc:"Delete the triples of $(docv) (repeatable).")

let compact_flag_arg =
  Arg.(
    value & flag
    & info [ "compact" ]
        ~doc:
          "After applying the batch, merge the delta into a fresh generation \
           (full rebuild, new gen-N.amberix, previous generation retained \
           until the next compaction).")

let init_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "init" ] ~docv:"BASE"
        ~doc:
          "Create $(i,LIVEDIR) as generation 0 from $(docv) (N-Triples, \
           Turtle, .adb or .amberix). Refuses to overwrite an existing live \
           directory.")

let update_cmd =
  let doc =
    "apply insert/delete batches to a live-engine directory (snapshot-\
     isolated readers keep their epoch; `amber serve LIVEDIR` exposes the \
     same store over POST /update)"
  in
  Cmd.v (Cmd.info "update" ~doc)
    Term.(
      const run_update $ live_dir_arg $ add_files_arg $ remove_files_arg
      $ compact_flag_arg $ init_arg)

(* --- log --------------------------------------------------------------- *)

let run_log_tail file n json_out =
  let ic = open_in file in
  let rev_lines = ref [] in
  (try
     while true do
       rev_lines := input_line ic :: !rev_lines
     done
   with End_of_file -> ());
  close_in ic;
  (* [rev_lines] is newest-first; keep the last [n], print oldest-first. *)
  let lines =
    List.rev (List.filteri (fun i _ -> i < n) !rev_lines)
  in
  let malformed = ref false in
  List.iter
    (fun line ->
      if String.trim line = "" then ()
      else if json_out then print_endline line
      else
        match Obs.Json.parse_opt line with
        | None ->
            malformed := true;
            Printf.printf "(malformed record) %s\n" line
        | Some v ->
            let str key =
              Option.value ~default:""
                (Option.bind (Obs.Json.member key v) Obs.Json.to_string)
            in
            let num key =
              Option.value ~default:0.
                (Option.bind (Obs.Json.member key v) Obs.Json.to_float)
            in
            let slow =
              match Option.bind (Obs.Json.member "slow" v) Obs.Json.to_bool with
              | Some true -> " SLOW"
              | _ -> ""
            in
            let query = str "query" in
            let query =
              if String.length query > 72 then String.sub query 0 69 ^ "..."
              else query
            in
            (* One compact plan cell: the mode, plus the seed strategies
               actually chosen (e.g. "adaptive[attrs,scan]"). *)
            let plan =
              match str "plan" with
              | "" -> "-"
              | mode -> (
                  match Obs.Json.member "plan_seeds" v with
                  | Some (Obs.Json.Arr (_ :: _ as seeds)) ->
                      let slugs =
                        List.filter_map
                          (fun seed ->
                            Option.bind (Obs.Json.member "strategy" seed)
                              Obs.Json.to_string)
                          seeds
                      in
                      Printf.sprintf "%s[%s]" mode (String.concat "," slugs)
                  | _ -> mode)
            in
            Printf.printf "#%-5.0f %-7s %9.2f ms %7.0f rows  %-18s %s%s  %s\n"
              (num "id") (str "status")
              (1000. *. num "seconds")
              (num "rows") plan (str "hash") slow query)
    lines;
  if !malformed then exit 1

let log_file_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"FILE"
        ~doc:"A JSONL flight-record file (`amber serve --log-sink`).")

let tail_n_arg =
  Arg.(
    value & opt int 20
    & info [ "n" ] ~docv:"N" ~doc:"Number of trailing records to show.")

let log_cmd =
  let tail_doc =
    "show the last flight records of a JSONL sink file, one line per query \
     (id, status, latency, rows, hash, query text); --json prints the raw \
     records instead"
  in
  Cmd.group (Cmd.info "log" ~doc:"inspect flight-recorder sinks")
    [
      Cmd.v
        (Cmd.info "tail" ~doc:tail_doc)
        Term.(const run_log_tail $ log_file_arg $ tail_n_arg $ json_flag_arg);
    ]

(* --- compile ----------------------------------------------------------- *)

let run_compile data out =
  let triples = load_triples data in
  Rdf.Binary.write_file out triples;
  let size path = (Unix.stat path).Unix.st_size in
  Printf.printf "wrote %d triples to %s (%d bytes; source %d bytes)\n"
    (List.length triples) out (size out) (size data)

let out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output .adb file.")

let compile_cmd =
  let doc = "convert N-Triples/Turtle into the compact binary format (.adb)" in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run_compile $ data_arg $ out_arg)

(* --- build ------------------------------------------------------------ *)

let run_build input out { Amber.Engine.Opts.domains; _ } =
  let triples = load_triples input in
  let t_build, engine =
    Bench_util.Runner.time (fun () -> Amber.Engine.build ~domains triples)
  in
  Printf.eprintf "offline stage (%d domain%s): %.2fs\n%!" domains
    (if domains = 1 then "" else "s")
    t_build;
  let t_save, () =
    Bench_util.Runner.time (fun () -> Amber.Engine.save_snapshot engine out)
  in
  let s = Amber.Engine.posting_stats engine in
  Printf.eprintf
    "posting lists: %d raw / %d ef / %d blocked, %d elements, %d compressed \
     payload bytes\n%!"
    s.Mgraph.Posting.raw_lists s.Mgraph.Posting.ef_lists
    s.Mgraph.Posting.blocked_lists s.Mgraph.Posting.elements
    s.Mgraph.Posting.payload_bytes;
  Printf.printf "wrote index snapshot %s (%d bytes; build %.2fs, save %.2fs)\n"
    out (Unix.stat out).Unix.st_size t_build t_save

let build_input_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"TRIPLES"
        ~doc:"Input data: N-Triples, Turtle (.ttl) or binary (.adb).")

let snapshot_out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output .amberix snapshot file.")

let build_cmd =
  let doc =
    "run the offline stage and persist the built indexes as an .amberix \
     snapshot"
  in
  Cmd.v (Cmd.info "build" ~doc)
    Term.(
      const run_build $ build_input_arg $ snapshot_out_arg
      $ opts_term ~plan:absent ~rewrite:absent ~domains:domains_arg)

(* --- stats ------------------------------------------------------------ *)

(* A live directory reports its current epoch as it stands — triple-less
   ids an overlay still holds included — not a rebuild of its triples. *)
let run_stats data =
  let db =
    if Sys.is_directory data then
      Amber.Engine.db
        (Amber.Live_engine.engine (Amber.Live_engine.pin (open_live_dir data)))
    else if Amber.Snapshot.sniff_file data then
      (Amber.Snapshot.read_file data).Amber.Snapshot.db
    else Amber.Database.of_triples (load_triples data)
  in
  Format.printf "%a@." Amber.Database.pp_stats db

let stats_cmd =
  let doc =
    "print multigraph statistics for an N-Triples file, a snapshot or a \
     live directory's current epoch"
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run_stats $ data_arg)

(* --- bench ------------------------------------------------------------ *)

let run_bench data query_file sparql timeout limit =
  let triples = load_triples data in
  let src = query_text query_file sparql in
  let ast = Sparql.Parser.parse src in
  let timeout = Option.value ~default:10.0 timeout in
  let bench (type e) (module E : Baselines.Engine_sig.S with type t = e) =
    let store = E.load triples in
    match
      Bench_util.Runner.run_query (module E) store ~timeout ?limit ast
    with
    | Bench_util.Runner.Answered { seconds; rows } ->
        Printf.printf "%-14s %10.2f ms  %8d rows\n" E.name (1000. *. seconds) rows
    | Bench_util.Runner.Unanswered -> Printf.printf "%-14s timeout\n" E.name
  in
  bench (module Baselines.Amber_adapter);
  bench (module Baselines.Sig_store);
  bench (module Baselines.Column_store);
  bench (module Baselines.Triple_store);
  bench (module Baselines.Nested_loop)

let bench_cmd =
  let doc = "time one query on every engine" in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run_bench $ data_arg $ query_file_arg $ sparql_arg $ timeout_arg
      $ limit_arg)

let () =
  let doc = "AMbER: attributed-multigraph RDF query engine" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "amber" ~doc)
          [ query_cmd; build_cmd; stats_cmd; bench_cmd; explain_cmd; lint_cmd;
            fsck_cmd; compile_cmd; serve_cmd; update_cmd; log_cmd ]))
