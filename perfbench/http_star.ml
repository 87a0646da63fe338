(* http-star: an [amber serve] subprocess on an AMBERIX1 snapshot of
   LUBM (10 universities). One client sends [GET /sparql] requests, one
   connection at a time, asking for JSON results: a small repeated set
   of 3–8-pattern entity stars, 6 from each answer-size class. Fixed
   costs per request dominate —
   socket, HTTP framing, parsing, rewriting, analysis, enumeration and
   serialization — and the hot set fits the engine's LRUs. *)

open Amber

let sizes = [ 3; 4; 5; 6; 7; 8 ]
let per_size = 60
let per_class = 6
let boots = 7

(* Sum of the [amber_index_resident_bytes] gauges of a /metrics page. *)
let resident_of_metrics page =
  List.fold_left
    (fun acc line ->
      if String.length line > 26 && String.sub line 0 26 = "amber_index_resident_bytes"
         && String.contains line '{'
      then
        match String.rindex_opt line ' ' with
        | Some i -> acc +. float_of_string (String.sub line (i + 1) (String.length line - i - 1))
        | None -> acc
      else acc)
    0. (String.split_on_char '\n' page)

let run ~seed ~seconds ~trace ~work ~cli =
  if not (Sys.file_exists cli) then failwith ("no server binary at " ^ cli);
  let o = Common.outcome () in
  let triples = Datagen.Lubm.generate ~seed:Common.pool_seed ~universities:10 () in
  Util.log "http-star: %d triples" (List.length triples);
  let stages = ref [] in
  let built =
    if trace then begin
      let e, parts = Layers.staged_build triples in
      stages := [ parts ];
      e
    end
    else Engine.build triples
  in
  let snapshot = Filename.concat work "lubm.amberix" in
  Engine.save_snapshot built snapshot;
  (* The engine the server will load, in process: reference answers. *)
  let engine = Engine.load_snapshot snapshot in
  let admitted, rejected =
    Common.admit engine triples ~shape:Datagen.Workload.Star ~sizes ~count:per_size
  in
  let chosen, classes = Common.stratify ~per_class admitted in
  let ops = Common.shuffled ~seed chosen in
  let n = Array.length ops in
  let world = Check.world_of triples in
  let texts = Array.map (fun (q, _) -> Sparql.Ast.to_string q) ops in
  let targets = Array.map Http.sparql_target texts in
  let refs =
    Array.map
      (fun (q, answer) ->
        (match Check.unsound_row world q answer with
        | None -> ()
        | Some msg -> Common.fail o ("reference answer: " ^ msg));
        Results.to_json answer)
      ops
  in
  (* Set-up: spawn to first /healthz answer, several boots; the last
     server stays up for the workload. *)
  let log = Filename.concat work "server.log" in
  let spawn () =
    Gc.full_major ();
    Http.spawn ~cli ~args:([ "--data"; snapshot ] @ Common.serve_args) ~log
  in
  let times = Array.make boots 0. in
  let server = ref None in
  for b = 0 to boots - 1 do
    let s, dt = spawn () in
    times.(b) <- dt;
    if b < boots - 1 then Http.stop s else server := Some s
  done;
  let server = Option.get !server in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let setup_s = Util.median times in
      let request k =
        o.attempted <- o.attempted + 1;
        let t0 = Util.now () in
        match Http.get ~port:server.port ~timeout:(2. *. Common.budget) targets.(k) with
        | 200, body ->
            let dt = Util.now () -. t0 in
            if body <> refs.(k) then
              Common.fail o (Printf.sprintf "query %d: HTTP answer differs from in-process" k);
            dt
        | status, _ ->
            Common.fail o (Printf.sprintf "query %d: HTTP status %d" k status);
            Util.now () -. t0
        | exception e ->
            Common.fail o (Printf.sprintf "query %d: %s" k (Printexc.to_string e));
            Util.now () -. t0
      in
      (* Warm pass: every distinct query once over HTTP. *)
      for k = 0 to n - 1 do
        ignore (request k)
      done;
      Util.log "%d distinct queries; timed loop" n;
      Gc.full_major ();
      let seconds_untraced = if trace then seconds *. Common.traced_fraction else seconds in
      let lat, cuts = Common.timed_loop ~seconds:seconds_untraced ~n request in
      let latency, windows = Common.latency_metrics ~cuts lat in
      let resident =
        match Http.get ~port:server.port ~timeout:10. "/metrics" with
        | 200, page -> resident_of_metrics page
        | _ | (exception _) ->
            Common.fail o "GET /metrics failed";
            nan
      in
      let ntriples = Database.triple_count (Engine.db engine) in
      let report =
        Common.host_facts ()
        @ [
            ("triples", Util.num ntriples);
            ("distinct_queries", Util.num n);
            ("rejected_queries", Util.num rejected);
            ("queries_per_size_class", Util.nums classes);
            ("samples", Util.num (Array.length lat));
            ("windows", Util.num windows);
            ("boots", Util.num boots);
            ("slowest_op_ms", Util.value (Util.percentile 1.0 lat *. Common.ms));
            ( "mean_response_bytes",
              Util.value (Util.mean (Array.map (fun r -> float_of_int (String.length r)) refs)) );
          ]
      in
      if not trace then
        {
          Common.outcome = o;
          metrics =
            [ ("setup_s", setup_s, "s") ]
            @ latency
            @ [
                ("throughput_ops", Common.throughput ~cuts lat, "1/s");
                ("resident_bytes_per_triple", resident /. float_of_int ntriples, "B");
              ];
          report;
        }
      else begin
        (* Traced replay: the same requests in the same order; each is
           followed by the in-process handler on the same request and
           the pipeline replay on the same engine. *)
        Trace.enabled := true;
        let source = Endpoint.Static engine in
        let response_bytes = Util.Buf.create () in
        for i = 0 to Array.length lat - 1 do
          let k = i mod n in
          Trace.set_op i;
          ignore (Trace.span "op" (fun () -> request k));
          let status, _, body = Common.handle_in_process source texts.(k) in
          if status <> 200 || body <> refs.(k) then
            Common.fail o (Printf.sprintf "in-process endpoint answer for query %d differs" k);
          o.attempted <- o.attempted + 1;
          match
            Trace.span "pipeline" (fun () ->
                let ast = Trace.span "parser.parse" (fun () -> Sparql.Parser.parse texts.(k)) in
                let answer =
                  Pipeline.query ~limit:(Some Common.row_limit) ~timeout:Common.budget engine ast
                in
                Trace.span "results.to_json" (fun () -> Results.to_json answer))
          with
          | json ->
              Util.Buf.add response_bytes (float_of_int (String.length json));
              if json <> refs.(k) then
                Common.fail o (Printf.sprintf "replay of query %d differs from Engine.query" k)
          | exception e -> Common.fail o ("replay: " ^ Printexc.to_string e)
        done;
        Trace.enabled := false;
        Util.log "replayed %d operations" (Array.length lat);
        let e2e = Array.of_list (List.map snd (Trace.per_op_duration "op")) in
        let handle = Array.of_list (List.map snd (Trace.per_op_duration "endpoint.handle")) in
        let tax = Array.map2 ( -. ) e2e handle in
        let overhead = (Util.median e2e -. Util.median lat) *. Common.ms in
        let write_s, load_s = Layers.snapshot_io engine (Filename.concat work "copy.amberix") in
        let measured =
          Common.pipeline_metrics ~e2e ~response_bytes:(Util.Buf.to_array response_bytes)
          @ Layers.primitives engine (Array.to_list (Array.map fst ops))
          @ Layers.resident engine
          @ List.map (fun (name, t) -> (name, t, "s")) (List.hd !stages)
          @ [
              ("endpoint.http_tax_ms", Util.median tax *. Common.ms, "ms");
              ("snapshot.load_s", load_s, "s");
              ("snapshot.write_s", write_s, "s");
              ("endpoint.boot_overhead_s", setup_s -. load_s, "s");
              ("trace.overhead_ms", overhead, "ms");
            ]
        in
        { Common.outcome = o; metrics = Common.complete measured; report }
      end)
