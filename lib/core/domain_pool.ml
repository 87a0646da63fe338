type job = unit -> unit

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  jobs : job Queue.t;
  mutable handles : unit Domain.t list;
  mutable target : int;  (* workers requested (spawned lazily) *)
  mutable stopping : bool;
}

let create ~workers =
  if workers < 0 then invalid_arg "Domain_pool.create: negative worker count";
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    jobs = Queue.create ();
    handles = [];
    target = workers;
    stopping = false;
  }

let workers t =
  Mutex.lock t.lock;
  let n = List.length t.handles in
  Mutex.unlock t.lock;
  n

(* Workers block on [nonempty] between jobs. Jobs are fire-and-forget
   from the worker's point of view: [run_chunks] closures trap their own
   exceptions, and the catch-all here keeps a rogue job from killing the
   domain. *)
let worker_loop t () =
  let rec next () =
    Mutex.lock t.lock;
    while Queue.is_empty t.jobs && not t.stopping do
      Condition.wait t.nonempty t.lock
    done;
    let job = Queue.take_opt t.jobs in
    Mutex.unlock t.lock;
    match job with
    | Some job ->
        (try job () with _ -> ());
        next ()
    | None -> ()  (* stopping and drained *)
  in
  next ()

(* Called with [t.lock] held. *)
let spawn_up_to_target_locked t =
  let live = List.length t.handles in
  if live < t.target && not t.stopping then
    for _ = live + 1 to t.target do
      t.handles <- Domain.spawn (worker_loop t) :: t.handles
    done

(* Returns [false] when the pool is shutting down and the jobs were not
   queued — the caller must then do the work itself. *)
let submit_batch t jobs =
  Mutex.lock t.lock;
  let accepted = not t.stopping in
  if accepted then begin
    List.iter (fun j -> Queue.add j t.jobs) jobs;
    spawn_up_to_target_locked t;
    Condition.broadcast t.nonempty
  end;
  Mutex.unlock t.lock;
  accepted

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  let handles = t.handles in
  t.handles <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter Domain.join handles

(* Like [shutdown], but re-arms the pool once the workers are joined:
   parked domains tax every stop-the-world minor collection, so a
   one-shot burst (parallel index build) should not leave them behind.
   A concurrent [submit_batch] observing [stopping] self-drains, which
   is always correct. *)
let quiesce t =
  Mutex.lock t.lock;
  t.stopping <- true;
  let handles = t.handles in
  t.handles <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter Domain.join handles;
  Mutex.lock t.lock;
  t.stopping <- false;
  Mutex.unlock t.lock

let max_workers = 7

let grow t n =
  Mutex.lock t.lock;
  if n > t.target then t.target <- min n max_workers;
  Mutex.unlock t.lock

(* A once-cell, not a lazy: concurrent queries may ask for the pool at
   the same time. *)
let global_pool =
  Once.make (fun () ->
      let t = create ~workers:0 in
      (* Workers must be joined before the main domain exits. *)
      at_exit (fun () -> shutdown t);
      t)

let global () = Once.force global_pool

let run_chunks t ~participants ~chunks f =
  if chunks < 0 then invalid_arg "Domain_pool.run_chunks: negative chunk count";
  if chunks = 0 then [||]
  else begin
    let results = Array.make chunks None in
    let errors = Array.make chunks None in
    let next = Atomic.make 0 in
    (* Self-scheduling loop every participant runs: claim the lowest
       unclaimed chunk, evaluate, repeat until the counter is drained. *)
    let drain () =
      let rec go () =
        let c = Atomic.fetch_and_add next 1 in
        if c < chunks then begin
          (match f c with
          | v -> results.(c) <- Some v
          | exception e -> errors.(c) <- Some e);
          go ()
        end
      in
      go ()
    in
    let helpers = max 0 (min (participants - 1) (chunks - 1)) in
    if helpers > 0 then grow t helpers;
    (* Latch counting helper jobs still running (or queued): mutex
       release/acquire on it also publishes the helpers' writes to
       [results]/[errors] before the caller reads them. *)
    let latch = Mutex.create () in
    let finished = Condition.create () in
    let pending = ref helpers in
    let helper () =
      drain ();
      Mutex.lock latch;
      decr pending;
      if !pending = 0 then Condition.broadcast finished;
      Mutex.unlock latch
    in
    if helpers > 0 then
      if not (submit_batch t (List.init helpers (fun _ -> helper))) then begin
        (* Pool shutting down: no helpers will run; the caller drains
           everything alone below. *)
        Mutex.lock latch;
        pending := 0;
        Mutex.unlock latch
      end;
    drain ();
    Mutex.lock latch;
    while !pending > 0 do
      Condition.wait finished latch
    done;
    Mutex.unlock latch;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function Some v -> v | None -> assert false (* every chunk ran *))
      results
  end
