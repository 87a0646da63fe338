type 'a t = { value : 'a option Atomic.t; lock : Mutex.t; compute : unit -> 'a }

let make compute = { value = Atomic.make None; lock = Mutex.create (); compute }

let force t =
  match Atomic.get t.value with
  | Some v -> v
  | None ->
      Mutex.protect t.lock (fun () ->
          match Atomic.get t.value with
          | Some v -> v
          | None ->
              let v = t.compute () in
              Atomic.set t.value (Some v);
              v)
