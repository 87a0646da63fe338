(* paper-complex: [Engine.query] in process, default options, on a
   skewed DBPEDIA-like graph with complex-shaped queries of 10–50
   patterns (the fig. 7 / Table 1 family). Almost all of the work is
   planning, seeding and search; the distinct probe keys overflow the
   engine's 256-entry LRUs. *)

open Amber

let sizes = [ 10; 15; 20; 25; 30; 35; 40; 45; 50 ]
let per_size = 24
let setup_reps = 5

let data () =
  Datagen.Scale_free.generate ~seed:Common.pool_seed ~skew:1.8
    (Datagen.Scale_free.dbpedia_like ~scale:0.5 ())

let run ~seed ~seconds ~trace ~work =
  let o = Common.outcome () in
  let triples = data () in
  (* Set-up: the offline stage on in-memory triples, several times. *)
  let stages = ref [] in
  let build () =
    Gc.full_major ();
    if trace then begin
      let e, parts = Layers.staged_build triples in
      stages := parts :: !stages;
      (e, List.fold_left (fun acc (_, t) -> acc +. t) 0. parts)
    end
    else Util.time (fun () -> Engine.build triples)
  in
  Util.log "paper-complex: %d triples" (List.length triples);
  let builds = List.init setup_reps (fun _ -> build ()) in
  let engine = fst (List.nth builds (setup_reps - 1)) in
  let setup_s = Util.median (Array.of_list (List.map snd builds)) in
  (* Warm pass: admission runs every query once. *)
  let admitted, rejected =
    Common.admit engine triples ~shape:Datagen.Workload.Complex ~sizes ~count:per_size
  in
  Util.log "admitted %d queries, rejected %d" (List.length admitted) rejected;
  let ops = Common.shuffled ~seed admitted in
  let n = Array.length ops in
  let world = Check.world_of triples in
  let refs =
    Array.map
      (fun (q, answer) ->
        (match Check.unsound_row world q answer with
        | None -> ()
        | Some msg -> Common.fail o ("warm pass: " ^ msg));
        Check.fingerprint answer)
      ops
  in
  let op k =
    let q = fst ops.(k) in
    o.attempted <- o.attempted + 1;
    let t0 = Util.now () in
    match Engine.query ~timeout:Common.budget ~limit:Common.row_limit engine q with
    | answer ->
        let dt = Util.now () -. t0 in
        if Check.fingerprint answer <> refs.(k) then
          Common.fail o (Printf.sprintf "query %d: answer differs from the checked one" k);
        dt
    | exception e ->
        Common.fail o (Printf.sprintf "query %d: %s" k (Printexc.to_string e));
        Util.now () -. t0
  in
  Util.log "answers checked; timed loop";
  Gc.full_major ();
  let seconds_untraced = if trace then seconds *. Common.traced_fraction else seconds in
  let lat, cuts = Common.timed_loop ~seconds:seconds_untraced ~n op in
  let latency, windows = Common.latency_metrics ~cuts lat in
  let ntriples = Database.triple_count (Engine.db engine) in
  let report =
    Common.host_facts ()
    @ [
        ("triples", Util.num ntriples);
        ("distinct_queries", Util.num n);
        ("rejected_queries", Util.num rejected);
        ("samples", Util.num (Array.length lat));
        ("windows", Util.num windows);
        ("setup_reps", Util.num setup_reps);
        ("slowest_op_ms", Util.value (Util.percentile 1.0 lat *. Common.ms));
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
            ( "resident_bytes_per_triple",
              float_of_int (Layers.resident_total engine) /. float_of_int ntriples,
              "B" );
          ];
      report;
    }
  else begin
    (* Traced replay of the same operations, in the same order. *)
    Trace.enabled := true;
    for i = 0 to Array.length lat - 1 do
      let k = i mod n in
      Trace.set_op i;
      o.attempted <- o.attempted + 1;
      match
        Trace.span "op" (fun () ->
            Pipeline.query ~limit:(Some Common.row_limit) ~timeout:Common.budget engine
              (fst ops.(k)))
      with
      | answer ->
          if Check.fingerprint answer <> refs.(k) then
            Common.fail o (Printf.sprintf "replay of query %d differs from Engine.query" k)
      | exception e -> Common.fail o ("replay: " ^ Printexc.to_string e)
    done;
    Util.log "replayed %d operations" (Array.length lat);
    (* The layers a remote client would add (parse, serialization, the
       endpoint handler), on the first distinct queries. *)
    let response_bytes =
      Common.side_pass o ~first_op:(Array.length lat) ~engine (Endpoint.Static engine)
        (Array.map fst ops)
    in
    Trace.enabled := false;
    let e2e = Array.of_list (List.map snd (Trace.per_op_duration "op")) in
    let overhead = (Util.median e2e -. Util.median lat) *. Common.ms in
    let stage name =
      Util.median (Array.of_list (List.map (fun parts -> List.assoc name parts) !stages))
    in
    let write_s, load_s = Layers.snapshot_io engine (Filename.concat work "engine.amberix") in
    Util.log "layer measurements";
    let measured =
      Common.pipeline_metrics ~e2e ~response_bytes
      @ Layers.primitives engine (Array.to_list (Array.map fst ops))
      @ Layers.resident engine
      @ List.map
          (fun name -> (name, stage name, "s"))
          [
            "database.of_triples_s";
            "attribute_index.build_s";
            "synopsis_index.build_s";
            "neighbourhood_index.build_s";
            "stats.compute_s";
          ]
      @ [
          ("snapshot.load_s", load_s, "s");
          ("snapshot.write_s", write_s, "s");
          ("trace.overhead_ms", overhead, "ms");
        ]
    in
    { Common.outcome = o; metrics = Common.complete measured; report }
  end
