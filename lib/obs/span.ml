type t = {
  span_name : string;
  mutable start : float;  (* epoch seconds when the span opened *)
  mutable duration : float;
  domain : int;  (* id of the domain that ran the span *)
  mutable annotations : (string * string) list;  (* reversed while open *)
  mutable kids : t list;  (* reversed while open *)
}

let name t = t.span_name
let start t = t.start
let duration t = t.duration
let domain t = t.domain
let children t = t.kids
let meta t = t.annotations

let rec find t n =
  if t.span_name = n then Some t
  else
    List.fold_left
      (fun acc kid -> match acc with Some _ -> acc | None -> find kid n)
      None t.kids

(* One collector stack per domain (Domain.DLS): the innermost open span
   of the *current* domain; [[]] means this domain is not collecting.
   Each worker domain of the parallel engine opens its own root with
   [collect] and the finished subtree is grafted into the parent tree
   with [graft] — no cross-domain mutation of open spans ever occurs. *)
let stack_key : t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let active () = !(stack ()) <> []

let now = Unix.gettimeofday

let fresh name =
  {
    span_name = name;
    start = 0.;
    duration = 0.;
    domain = (Domain.self () :> int);
    annotations = [];
    kids = [];
  }

let close node =
  node.duration <- now () -. node.start;
  node.annotations <- List.rev node.annotations;
  node.kids <- List.rev node.kids

let root ~name f =
  let node = fresh name in
  let stack = stack () in
  let saved = !stack in
  stack := [ node ];
  node.start <- now ();
  match f () with
  | v ->
      close node;
      stack := saved;
      (v, node)
  | exception e ->
      close node;
      stack := saved;
      raise e

let collect = root

let with_ ~name f =
  let stack = stack () in
  match !stack with
  | [] -> f ()
  | parent :: _ as open_spans ->
      let node = fresh name in
      parent.kids <- node :: parent.kids;
      stack := node :: open_spans;
      node.start <- now ();
      let pop () =
        close node;
        stack := open_spans
      in
      (match f () with
      | v ->
          pop ();
          v
      | exception e ->
          node.annotations <- ("raised", Printexc.to_string e) :: node.annotations;
          pop ();
          raise e)

let annotate key value =
  match !(stack ()) with
  | [] -> ()
  | top :: _ -> top.annotations <- (key, value) :: top.annotations

let graft child =
  match !(stack ()) with
  | [] -> ()
  | parent :: _ -> parent.kids <- child :: parent.kids

let pp ppf t =
  let rec go indent t =
    Format.fprintf ppf "%s%-*s %10.3f ms" indent
      (max 1 (24 - String.length indent))
      t.span_name (1000. *. t.duration);
    List.iter (fun (k, v) -> Format.fprintf ppf "  %s=%s" k v) t.annotations;
    Format.pp_print_newline ppf ();
    List.iter (go (indent ^ "  ")) t.kids
  in
  go "" t

let rec to_json t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf {|{"name":"%s","ms":%.6g|} (Json.escape t.span_name)
       (1000. *. t.duration));
  if t.annotations <> [] then begin
    Buffer.add_string buf {|,"meta":{|};
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf {|"%s":"%s"|} (Json.escape k) (Json.escape v)))
      t.annotations;
    Buffer.add_char buf '}'
  end;
  if t.kids <> [] then begin
    Buffer.add_string buf {|,"children":[|};
    List.iteri
      (fun i kid ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (to_json kid))
      t.kids;
    Buffer.add_char buf ']'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* --- Chrome trace-event / Perfetto export --------------------------- *)

(* One complete ("ph":"X") event per span. Timestamps are microseconds
   relative to the root span's start, so the trace opens at t=0; the
   thread id is the OCaml domain that ran the span, which renders the
   parallel engine's per-domain chunks as separate lanes in Perfetto. *)
let to_chrome_json ?(pid = 0) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf {|{"displayTimeUnit":"ms","traceEvents":[|};
  let first = ref true in
  let rec emit node =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf
      (Printf.sprintf
         {|{"name":"%s","cat":"amber","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d|}
         (Json.escape node.span_name)
         (1e6 *. (node.start -. t.start))
         (1e6 *. node.duration)
         pid node.domain);
    if node.annotations <> [] then begin
      Buffer.add_string buf {|,"args":{|};
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf {|"%s":"%s"|} (Json.escape k) (Json.escape v)))
        node.annotations;
      Buffer.add_char buf '}'
    end;
    Buffer.add_char buf '}';
    List.iter emit node.kids
  in
  emit t;
  Buffer.add_string buf "]}";
  Buffer.contents buf
