module B = Rdf.Binary

let manifest_magic = "AMBRMAN1"
let manifest_name = "live.manifest"

type epoch = {
  generation : int;  (* bumped by compaction *)
  version : int;  (* bumped by every published write *)
  base : Engine.t;  (* frozen engine of this generation *)
  engine : Engine.t;  (* base, or the overlay when delta ≠ ∅ *)
  delta : Delta.t;
}

type batch = { adds : Rdf.Triple.t list; dels : Rdf.Triple.t list }

type t = {
  current : epoch Atomic.t;
  writer : Mutex.t;  (* serializes publishes; readers never take it *)
  dir : string option;  (* live directory; None = purely in-memory *)
  mutable since_pin : batch list option;
      (* Under [writer]: while a compaction runs, the batches published
         since it pinned its epoch, newest first; [None] otherwise. *)
  job_lock : Mutex.t;
      (* Guards [job]. Taken before [writer], never while holding it:
         the job takes [writer] to publish, so joining it under [writer]
         would deadlock. *)
  mutable job : epoch Domain.t option;  (* the compaction not yet settled *)
}

let generation ep = ep.generation
let version ep = ep.version
let engine ep = ep.engine
let base ep = ep.base
let delta ep = ep.delta
let pin t = Atomic.get t.current
let dir t = t.dir

(* ------------------------------------------------------------------ *)
(* Metrics & flight recording                                          *)
(* ------------------------------------------------------------------ *)

let m = Obs.Metrics.default

let m_updates =
  Obs.Metrics.counter m "amber_updates_total"
    ~help:"Live-engine update batches published"

let m_compactions =
  Obs.Metrics.counter m "amber_compactions_total"
    ~help:"Delta compactions merged into a new base generation"

let m_delta_adds =
  Obs.Metrics.counter m "amber_delta_add_triples"
    ~help:"Pending inserted triples in the live delta (gauge)"

let m_delta_dels =
  Obs.Metrics.counter m "amber_delta_del_triples"
    ~help:"Pending deleted triples in the live delta (gauge)"

let m_generation =
  Obs.Metrics.counter m "amber_live_generation"
    ~help:"Current compaction generation (gauge)"

let m_update_seconds =
  Obs.Metrics.histogram m "amber_update_seconds"
    ~help:"Overlay patch + publish latency of one update batch"

let m_compaction_seconds =
  Obs.Metrics.histogram m "amber_compaction_seconds"
    ~help:
      "Background compaction, pin to publish (freeze the pinned epoch in \
       id space + index build + snapshot on the compaction's own domain, \
       then rebase + manifest + epoch swap under the writer lock); \
       neither readers nor writers wait for the build"

let sync_metrics ep =
  Obs.Metrics.set m_delta_adds (Delta.add_count ep.delta);
  Obs.Metrics.set m_delta_dels (Delta.del_count ep.delta);
  Obs.Metrics.set m_generation ep.generation

(* Mutations land in the flight ring next to the queries they raced;
   non-Ok statuses bypass sampling, so none are thinned away. *)
let record_event status text ~phases ~seconds =
  let open Obs.Query_log in
  record default
    {
      id = 0;
      at = Unix.gettimeofday ();
      query = text;
      hash = hash_query text;
      status;
      seconds;
      rows = 0;
      truncated = false;
      domains = 1;
      core_order = [];
      plan_mode = "";
      plan_seeds = [];
      rewrites = [];
      phases;
      candidates_scanned = 0;
      solutions = 0;
      index_probes = 0;
      cache_hits = 0;
      cache_misses = 0;
      analysis = None;
      gc = Obs.Resource.zero_delta;
      slow = false;
    }

(* ------------------------------------------------------------------ *)
(* Manifest codec                                                      *)
(* ------------------------------------------------------------------ *)

let corrupt fmt = Printf.ksprintf (fun s -> raise (B.Corrupt s)) fmt
let gen_file gen = Printf.sprintf "gen-%d.amberix" gen

type manifest = {
  man_generation : int;
  man_version : int;
  man_base_file : string;
  man_adds : Rdf.Triple.t list;
  man_dels : Rdf.Triple.t list;
}

(* One CRC-32-framed payload: generation, version, base snapshot
   filename, then the add and del triple lists (each length-prefixed in
   the AMBERDB1 interchange encoding). *)
let encode_manifest ~generation ~version ~delta =
  let payload = Buffer.create 1024 in
  B.Varint.write payload generation;
  B.Varint.write payload version;
  let file = gen_file generation in
  B.Varint.write payload (String.length file);
  Buffer.add_string payload file;
  let triples l =
    let b = Buffer.create 1024 in
    B.write b l;
    b
  in
  let adds = triples (Delta.adds delta) and dels = triples (Delta.dels delta) in
  B.Varint.write payload (Buffer.length adds);
  Buffer.add_buffer payload adds;
  B.Varint.write payload (Buffer.length dels);
  Buffer.add_buffer payload dels;
  let buf = Buffer.create (Buffer.length payload + 32) in
  Buffer.add_string buf manifest_magic;
  B.Varint.write buf (Buffer.length payload);
  let bytes = Buffer.contents payload in
  Buffer.add_string buf bytes;
  let crc = B.crc32 bytes in
  for shift = 0 to 3 do
    Buffer.add_char buf (Char.chr ((crc lsr (8 * shift)) land 0xFF))
  done;
  Buffer.contents buf

let decode_manifest src =
  let magic_len = String.length manifest_magic in
  if String.length src < magic_len || String.sub src 0 magic_len <> manifest_magic
  then corrupt "bad manifest magic (not an AMbER live manifest)";
  let pos = ref magic_len in
  let len = B.Varint.read src pos in
  let payload_start = !pos in
  if payload_start + len + 4 > String.length src then
    corrupt "truncated manifest";
  let stored =
    let b i = Char.code src.[payload_start + len + i] in
    b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
  in
  if B.crc32 ~off:payload_start ~len src <> stored then
    corrupt "bad manifest CRC";
  if payload_start + len + 4 <> String.length src then
    corrupt "trailing bytes after manifest";
  let payload_end = payload_start + len in
  let check_end p = if p > payload_end then corrupt "truncated manifest payload" in
  let man_generation = B.Varint.read src pos in
  let man_version = B.Varint.read src pos in
  let flen = B.Varint.read src pos in
  check_end (!pos + flen);
  let man_base_file = String.sub src !pos flen in
  pos := !pos + flen;
  let section () =
    let slen = B.Varint.read src pos in
    check_end (!pos + slen);
    let sub = String.sub src !pos slen in
    pos := !pos + slen;
    B.read sub ~pos:0
  in
  let man_adds = section () in
  let man_dels = section () in
  if !pos <> payload_end then corrupt "trailing bytes in manifest payload";
  { man_generation; man_version; man_base_file; man_adds; man_dels }

(* ------------------------------------------------------------------ *)
(* Durable state                                                       *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_atomically path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match output_string oc data with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e);
  Sys.rename tmp path

let rec ensure_dir d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then ensure_dir parent;
    (* A concurrent creator between the check and the mkdir is fine. *)
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
  else if not (Sys.is_directory d) then
    invalid_arg (Printf.sprintf "Live_engine: %s is not a directory" d)

let save_snapshot_atomically engine path =
  let tmp = path ^ ".tmp" in
  Engine.save_snapshot engine tmp;
  Sys.rename tmp path

let write_manifest dir ep =
  write_atomically
    (Filename.concat dir manifest_name)
    (encode_manifest ~generation:ep.generation ~version:ep.version
       ~delta:ep.delta)

(* Drop generation snapshots older than the previous one: the previous
   generation stays on disk until the *next* compaction lands, so an
   interrupted compaction always leaves a loadable base behind. Best
   effort, never raises: it runs after the manifest names the new
   generation, when failing the compaction would disown a file the
   manifest needs. *)
let prune_generations dir current_gen =
  Array.iter
    (fun name ->
      match Scanf.sscanf_opt name "gen-%d.amberix%!" (fun g -> g) with
      | Some g when g < current_gen - 1 ->
          (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      | _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?dir ep =
  {
    current = Atomic.make ep;
    writer = Mutex.create ();
    dir;
    since_pin = None;
    job_lock = Mutex.create ();
    job = None;
  }

let of_engine ?dir engine =
  let ep = { generation = 0; version = 0; base = engine; engine; delta = Delta.empty } in
  (match dir with
  | None -> ()
  | Some d ->
      ensure_dir d;
      save_snapshot_atomically engine (Filename.concat d (gen_file 0));
      write_manifest d ep);
  sync_metrics ep;
  create ?dir ep

let open_dir dirname =
  let man = decode_manifest (read_file (Filename.concat dirname manifest_name)) in
  let base = Engine.load_snapshot (Filename.concat dirname man.man_base_file) in
  let delta = Delta.apply Delta.empty ~adds:man.man_adds ~dels:man.man_dels in
  let engine = if Delta.is_empty delta then base else Delta.compile base delta in
  let ep =
    {
      generation = man.man_generation;
      version = man.man_version;
      base;
      engine;
      delta;
    }
  in
  sync_metrics ep;
  create ~dir:dirname ep

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)
(* ------------------------------------------------------------------ *)

let with_writer t f = Mutex.protect t.writer f

let update t ~adds ~dels =
  with_writer t @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let ep = Atomic.get t.current in
  let delta = Delta.apply ep.delta ~adds ~dels in
  (* Patch the current epoch's engine by the batch alone; an emptied
     delta falls back to the frozen base, ending the chain of layers. *)
  let engine =
    if Delta.is_empty delta then ep.base else Delta.extend ep.engine ~adds ~dels
  in
  let ep' = { ep with version = ep.version + 1; engine; delta } in
  (* Persist before publish: if the disk write fails, readers never saw
     an epoch the directory cannot replay. *)
  (match t.dir with None -> () | Some d -> write_manifest d ep');
  Option.iter (fun l -> t.since_pin <- Some ({ adds; dels } :: l)) t.since_pin;
  Atomic.set t.current ep';
  let seconds = Unix.gettimeofday () -. t0 in
  Obs.Metrics.incr m_updates;
  Obs.Metrics.observe m_update_seconds seconds;
  sync_metrics ep';
  record_event Obs.Query_log.Update
    (Printf.sprintf "-- update +%d -%d (gen %d, v%d, delta %d/%d)"
       (List.length adds) (List.length dels) ep'.generation ep'.version
       (Delta.add_count ep'.delta) (Delta.del_count ep'.delta))
    ~phases:[ ("publish", seconds) ] ~seconds;
  ep'

(* The compaction job, on its own domain. The build reads only the
   pinned epoch, which is immutable, so it runs outside the writer lock;
   the rebase and the publish take it. Snapshot first, manifest second: a
   crash between the two leaves the old manifest naming the old
   generation, still loadable. *)
let build_next t pinned =
  let t0 = Unix.gettimeofday () in
  let phases = ref [] in
  let phase name f =
    let p0 = Unix.gettimeofday () in
    let v = f () in
    phases := (name, Unix.gettimeofday () -. p0) :: !phases;
    v
  in
  let generation = pinned.generation + 1 in
  let written = ref None in
  match
    (* The next generation is built from the pinned epoch's own ids: no
       triple is decoded, no term re-interned but the kept keys. *)
    let db =
      phase "freeze" (fun () -> Database.freeze (Engine.db pinned.engine))
    in
    let base = phase "index" (fun () -> Engine.of_database db) in
    Option.iter
      (fun d ->
        let path = Filename.concat d (gen_file generation) in
        phase "snapshot" (fun () -> save_snapshot_atomically base path);
        written := Some path)
      t.dir;
    with_writer t @@ fun () ->
    (* The batches published since the pin, folded into one delta and
       lowered onto the new base in one step. *)
    let batches = Option.value t.since_pin ~default:[] in
    let delta, engine =
      phase "rebase" (fun () ->
          let delta =
            List.fold_right
              (fun { adds; dels } d -> Delta.apply d ~adds ~dels)
              batches Delta.empty
          in
          (delta, if Delta.is_empty delta then base else Delta.compile base delta))
    in
    let ep =
      {
        generation;
        version = (Atomic.get t.current).version + 1;
        base;
        engine;
        delta;
      }
    in
    Option.iter
      (fun d ->
        phase "manifest" (fun () ->
            write_manifest d ep;
            prune_generations d generation))
      t.dir;
    t.since_pin <- None;
    Atomic.set t.current ep;
    (* Under the lock, so a later update's gauges are never overwritten. *)
    sync_metrics ep;
    (ep, List.length batches)
  with
  | ep, rebased ->
      let seconds = Unix.gettimeofday () -. t0 in
      Obs.Metrics.incr m_compactions;
      Obs.Metrics.observe m_compaction_seconds seconds;
      record_event Obs.Query_log.Compaction
        (Printf.sprintf "-- compact (gen %d, v%d, %d triples, %d batches rebased)"
           ep.generation ep.version
           (Database.triple_count (Engine.db ep.base))
           rebased)
        ~phases:(List.rev !phases) ~seconds;
      ep
  | exception e ->
      with_writer t (fun () -> t.since_pin <- None);
      (* No manifest names the new generation: leave no file behind. *)
      Option.iter (fun path -> try Sys.remove path with Sys_error _ -> ()) !written;
      record_event
        (Obs.Query_log.Error (Printexc.to_string e))
        (Printf.sprintf "-- compact (gen %d from v%d)" generation pinned.version)
        ~phases:(List.rev !phases) ~seconds:(Unix.gettimeofday () -. t0);
      raise e

(* Wait for the compaction not yet settled, if any; re-raises its
   failure. The caller holds [job_lock]. *)
let join_job t =
  match t.job with
  | None -> ()
  | Some job ->
      t.job <- None;
      ignore (Domain.join job)

let settle t =
  Mutex.protect t.job_lock (fun () -> join_job t);
  pin t

let compact t =
  Mutex.protect t.job_lock @@ fun () ->
  join_job t;
  let pinned =
    with_writer t (fun () ->
        t.since_pin <- Some [];
        Atomic.get t.current)
  in
  (match Domain.spawn (fun () -> build_next t pinned) with
  | job -> t.job <- Some job
  | exception e ->
      with_writer t (fun () -> t.since_pin <- None);
      raise e);
  pinned
