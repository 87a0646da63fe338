(* In-memory span recorder for the traced run. Spans are recorded around
   the benchmark's own calls into each layer's public functions: name,
   start, end, parent span and operation id. Nothing is written until
   the run ends ({!write}), with times in seconds from the start of the
   process. When tracing is off, {!span} is a direct call. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1 for a root span *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []
let current_op = ref 0

let set_op op = current_op := op

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      { id = !next_id; name; op = !current_op; parent; start = Util.now (); stop = 0. }
    in
    incr next_id;
    stack := s :: !stack;
    let finish () =
      s.stop <- Util.now ();
      stack := List.tl !stack;
      spans := s :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the part its direct
   children cover (children never overlap — the recorder is sequential). *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    !spans

(* Per-operation self time of one layer, summed over the layer's spans in
   each operation, in operation order. Operations without the layer are
   absent. *)
let per_op_self name =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (s, self) ->
      if s.name = name then
        Hashtbl.replace tbl s.op
          (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.op)))
    (self_times ());
  Hashtbl.fold (fun op t acc -> (op, t) :: acc) tbl [] |> List.sort compare

(* Duration of every span of one name, per operation. *)
let per_op_duration name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.op, duration s) else None)
    !spans
  |> List.sort compare

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Obs.Json.to_text
           (Obs.Json.Obj
              [
                ("id", Util.num s.id);
                ("name", Obs.Json.Str s.name);
                ("op", Util.num s.op);
                ("parent", Util.num s.parent);
                ("start", Obs.Json.Num (s.start -. Util.t_start));
                ("end", Obs.Json.Num (s.stop -. Util.t_start));
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc
