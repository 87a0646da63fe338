(* live-rw: [Live_engine] on a live directory over a uniform
   DBPEDIA-like graph, 10% of which is held out as the write stream. A
   fixed cycle repeats: insert 10 batches of 64 held-out triples, then
   remove the same batches; after each write, 4 complex 10–30-pattern
   reads (10 distinct queries from each answer-size class) on the
   freshly pinned epoch; then [Live_engine.compact]. Every
   cycle ends in the world it started from, so the cost per operation
   does not drift with run length. *)

open Amber

let sizes = [ 10; 15; 20; 25; 30 ]
let per_size = 80
let per_class = 10
let batches = 10
let batch_size = 64
let reads_per_write = 4
let opens = 7

type op = Insert of int | Remove of int | Read of int | Compact

(* One cycle: the j-th read of the cycle runs distinct query j mod n. *)
let cycle =
  let reads = ref 0 in
  let after_write w =
    w
    :: List.init reads_per_write (fun _ ->
           incr reads;
           Read (!reads - 1))
  in
  List.concat_map (fun b -> after_write (Insert b)) (List.init batches Fun.id)
  @ List.concat_map (fun b -> after_write (Remove b)) (List.init batches Fun.id)
  @ [ Compact ]
  |> Array.of_list

let reads_per_cycle = Array.fold_left (fun n -> function Read _ -> n + 1 | _ -> n) 0 cycle

let run ~seed ~seconds ~trace ~work =
  let o = Common.outcome () in
  let triples =
    Array.of_list
      (Datagen.Scale_free.generate ~seed:Common.pool_seed ~skew:0.
         (Datagen.Scale_free.dbpedia_like ~scale:0.5 ()))
  in
  Datagen.Prng.shuffle (Datagen.Prng.create Common.pool_seed) triples;
  let held = Array.length triples / 10 in
  (* The run's seed picks the written triples from the held-out 10%. *)
  let written =
    Array.of_list
      (Datagen.Prng.sample (Datagen.Prng.create seed) (Array.sub triples 0 held)
         (batches * batch_size))
  in
  let batch b = Array.to_list (Array.sub written (b * batch_size) batch_size) in
  let base_world = Array.to_list (Array.sub triples held (Array.length triples - held)) in
  Util.log "live-rw: %d triples, %d held out" (Array.length triples) held;
  let stages = ref [] in
  let base =
    if trace then begin
      let e, parts = Layers.staged_build base_world in
      stages := parts;
      e
    end
    else Engine.build base_world
  in
  let admitted, rejected =
    Common.admit base base_world ~shape:Datagen.Workload.Complex ~sizes ~count:per_size
  in
  let chosen, classes = Common.stratify ~per_class admitted in
  let queries = Common.shuffled ~seed chosen |> Array.map fst in
  let n = Array.length queries in
  (* Set-up: reopen a live directory whose manifest holds a pending
     delta (the restart path), several times. *)
  let dir = Filename.concat work "live" in
  let first = Live_engine.of_engine ~dir base in
  ignore (Live_engine.update first ~adds:(batch 0) ~dels:[]);
  let reopen () =
    Gc.full_major ();
    Util.time (fun () -> Live_engine.open_dir dir)
  in
  let opened = Array.init opens (fun _ -> reopen ()) in
  let setup_s = Util.median (Array.map snd opened) in
  let live = fst opened.(opens - 1) in
  ignore (Live_engine.update live ~adds:[] ~dels:(batch 0));
  (* The benchmark's own model of the world, for the answer checks. *)
  let world = Check.world_of base_world in
  let read_engine () = Live_engine.engine (Live_engine.pin live) in
  let refs = Array.make reads_per_cycle None in
  let resident = ref nan in
  (* Run one operation of the cycle; [check] is the answer check of a
     read at cycle position [j]. Returns the seconds measured. *)
  let exec ?(query = fun e q -> Engine.query ~timeout:Common.budget ~limit:Common.row_limit e q)
      ~check op =
    o.attempted <- o.attempted + 1;
    let t0 = Util.now () in
    match op with
    | Insert b ->
        ignore (Live_engine.update live ~adds:(batch b) ~dels:[]);
        let dt = Util.now () -. t0 in
        Check.add world (batch b);
        dt
    | Remove b ->
        ignore (Live_engine.update live ~adds:[] ~dels:(batch b));
        let dt = Util.now () -. t0 in
        Check.remove world (batch b);
        dt
    | Compact ->
        ignore (Live_engine.compact live);
        Util.now () -. t0
    | Read j -> (
        let q = queries.(j mod n) in
        match query (Live_engine.engine (Live_engine.pin live)) q with
        | answer ->
            let dt = Util.now () -. t0 in
            check j q answer;
            dt
        | exception e ->
            Common.fail o (Printf.sprintf "read %d: %s" j (Printexc.to_string e));
            Util.now () -. t0)
  in
  let sound j q answer =
    match Check.unsound_row world q answer with
    | None -> ()
    | Some msg -> Common.fail o (Printf.sprintf "read %d: %s" j msg)
  in
  (* A later cycle must return the reference cycle's answer. Compaction
     renumbers vertices, so when the row limit cut the answer short, the
     rows kept may differ: then the row count must match and every row
     must be sound. *)
  let against_ref j q answer =
    let f = Check.fingerprint answer in
    match refs.(j) with
    | Some r when r = f -> ()
    | Some r when r.truncated && f.truncated && r.rows = f.rows -> sound j q answer
    | _ -> Common.fail o (Printf.sprintf "read %d: answer differs from the checked one" j)
  in
  (* Warm-up: one cycle with every read checked for soundness, then a
     reference cycle that also records each read's fingerprint. *)
  Array.iter (fun op -> ignore (exec ~check:sound op)) cycle;
  Array.iter
    (fun op ->
      ignore
        (exec op ~check:(fun j q answer ->
             sound j q answer;
             refs.(j) <- Some (Check.fingerprint answer)));
      if op = Insert (batches - 1) then begin
        let e = read_engine () in
        resident :=
          float_of_int (Layers.resident_total e)
          /. float_of_int (Database.triple_count (Engine.db e))
      end)
    cycle;
  Util.log "%d distinct reads; timed loop" n;
  (* Timed cycles: per-type latencies, cut at cycle ends. *)
  let reads = Util.Buf.create () and writes = Util.Buf.create () in
  let compactions = Util.Buf.create () and all = Util.Buf.create () in
  let read_cuts = ref [] and all_cuts = ref [] in
  let cycles = ref 0 in
  let run_cycles ~seconds ~whole =
    let t_end = Util.now () +. seconds in
    let stop = ref false in
    while not !stop do
      Array.iter
        (fun op ->
          if not !stop then begin
            let dt = exec ~check:against_ref op in
            Util.Buf.add all dt;
            match op with
            | Read _ -> Util.Buf.add reads dt
            | Insert _ | Remove _ -> Util.Buf.add writes dt
            | Compact -> Util.Buf.add compactions dt
          end;
          if (not whole) && Util.now () >= t_end then stop := true)
        cycle;
      if not !stop then begin
        incr cycles;
        read_cuts := Util.Buf.length reads :: !read_cuts;
        all_cuts := Util.Buf.length all :: !all_cuts
      end;
      if Util.now () >= t_end then stop := true
    done
  in
  Gc.full_major ();
  run_cycles ~seconds:(if trace then seconds *. Common.traced_fraction else seconds) ~whole:trace;
  let reads_a = Util.Buf.to_array reads and all_a = Util.Buf.to_array all in
  let read_cuts = List.rev !read_cuts and all_cuts = List.rev !all_cuts in
  let latency, windows = Common.latency_metrics ~cuts:read_cuts reads_a in
  (* The pinned epoch must answer like a fresh build of the same world. *)
  let final_check () =
    let pinned = read_engine () in
    let fresh = Engine.build (Check.world_triples world) in
    Array.iteri
      (fun j q ->
        let a = Engine.query ~timeout:Common.budget ~limit:Common.row_limit pinned q in
        let b = Engine.query ~timeout:Common.budget ~limit:Common.row_limit fresh q in
        let agree =
          if a.truncated || b.truncated then
            a.truncated = b.truncated
            && List.length a.rows = List.length b.rows
            && Check.unsound_row world q a = None
            && Check.unsound_row world q b = None
          else Check.same_rows a b
        in
        o.attempted <- o.attempted + 1;
        if not agree then
          Common.fail o (Printf.sprintf "query %d: pinned epoch and fresh build disagree" j))
      queries
  in
  let report () =
    Common.host_facts ()
    @ [
        ("triples", Util.num (Array.length triples));
        ("held_out", Util.num held);
        ("distinct_queries", Util.num n);
        ("rejected_queries", Util.num rejected);
        ("queries_per_size_class", Util.nums classes);
        ("cycles", Util.num !cycles);
        ("samples", Util.num (Array.length reads_a));
        ("write_samples", Util.num (Util.Buf.length writes));
        ("compaction_samples", Util.num (Util.Buf.length compactions));
        ("windows", Util.num windows);
        ("opens", Util.num opens);
        ("slowest_op_ms", Util.value (Util.percentile 1.0 all_a *. Common.ms));
      ]
  in
  let write_metrics =
    let w = Util.Buf.to_array writes in
    [
      ("live_engine.update_p50_ms", Util.median w *. Common.ms, "ms");
      ("live_engine.update_p95_ms", Util.percentile 0.95 w *. Common.ms, "ms");
      ( "live_engine.compact_ms",
        Util.median (Util.Buf.to_array compactions) *. Common.ms,
        "ms" );
    ]
  in
  if not trace then begin
    final_check ();
    {
      Common.outcome = o;
      metrics =
        [ ("setup_s", setup_s, "s") ]
        @ latency
        @ [
            ("throughput_ops", Common.throughput ~cuts:all_cuts all_a, "1/s");
            ("resident_bytes_per_triple", !resident, "B");
          ];
      report = report () @ List.map (fun (k, v, _) -> (k, Util.value v)) write_metrics;
    }
  end
  else begin
    (* Traced replay of the same cycles. Reads run through the pipeline
       replay; after each write, [Delta.apply] and [Delta.compile] are
       re-run on the same inputs to price them; after each compaction,
       the new generation's snapshot is written once more. *)
    Trace.enabled := true;
    let op_id = ref 0 in
    let delta_sizes = Util.Buf.create () in
    let snapshot_writes = Util.Buf.create () in
    let copy = Filename.concat work "copy.amberix" in
    for _ = 1 to !cycles do
      Array.iter
        (fun op ->
          Trace.set_op !op_id;
          incr op_id;
          let before = Live_engine.pin live in
          match op with
          | Read _ ->
              ignore
                (exec op ~check:against_ref ~query:(fun _ q ->
                     Trace.span "op" (fun () ->
                         let ep = Trace.span "live_engine.pin" (fun () -> Live_engine.pin live) in
                         Pipeline.query ~limit:(Some Common.row_limit) ~timeout:Common.budget
                           (Live_engine.engine ep) q)))
          | Insert b | Remove b ->
              ignore (Trace.span "write" (fun () -> exec op ~check:against_ref));
              let adds, dels = match op with Insert _ -> (batch b, []) | _ -> ([], batch b) in
              let delta =
                Trace.span "delta.apply" (fun () ->
                    Delta.apply (Live_engine.delta before) ~adds ~dels)
              in
              Util.Buf.add delta_sizes (float_of_int (Delta.size delta));
              if not (Delta.is_empty delta) then
                ignore
                  (Trace.span "delta.compile" (fun () ->
                       Delta.compile (Live_engine.base before) delta))
          | Compact ->
              ignore (Trace.span "compact" (fun () -> exec op ~check:against_ref));
              let contents = Engine.snapshot_contents (Live_engine.base (Live_engine.pin live)) in
              Util.Buf.add snapshot_writes
                (snd (Util.time (fun () -> Snapshot.write_file copy contents))))
        cycle
    done;
    (* The layers a remote client would add, on the first distinct reads. *)
    let response_bytes =
      Common.side_pass o ~first_op:!op_id ~engine:(read_engine ()) (Endpoint.Live live) queries
    in
    Trace.enabled := false;
    Util.log "replayed %d cycles" !cycles;
    final_check ();
    let e2e = Array.of_list (List.map snd (Trace.per_op_duration "op")) in
    let overhead = (Util.median e2e -. Util.median reads_a) *. Common.ms in
    let span_ms name = Util.median (Array.of_list (List.map snd (Trace.per_op_duration name))) in
    let base_now = Live_engine.base (Live_engine.pin live) in
    let _, load_s = Layers.snapshot_io base_now copy in
    let measured =
      Common.pipeline_metrics ~e2e ~response_bytes
      @ Layers.primitives base_now (Array.to_list queries)
      @ Layers.resident base_now
      @ List.map (fun (name, t) -> (name, t, "s")) !stages
      @ write_metrics
      @ [
          ("delta.apply_ms", span_ms "delta.apply" *. Common.ms, "ms");
          ("delta.compile_ms", span_ms "delta.compile" *. Common.ms, "ms");
          ("delta.size", Util.mean (Util.Buf.to_array delta_sizes), "count");
          ("live_engine.pin_us", Layers.per_call (fun () -> Live_engine.pin live) *. 1e6, "us");
          ("snapshot.load_s", load_s, "s");
          ("snapshot.write_s", Util.median (Util.Buf.to_array snapshot_writes), "s");
          ("trace.overhead_ms", overhead, "ms");
        ]
    in
    { Common.outcome = o; metrics = Common.complete measured; report = report () }
  end
