type counter = {
  c_name : string;
  c_labels : (string * string) list;
  c_help : string;
  value : int Atomic.t;
}

type histogram = {
  h_name : string;
  h_labels : (string * string) list;
  h_help : string;
  bounds : float array;  (* sorted upper bounds, +Inf implicit *)
  h_lock : Mutex.t;  (* guards [buckets], [sum] and [count] *)
  buckets : int array;  (* per-bound raw counts; last slot is +Inf *)
  mutable sum : float;
  mutable count : int;
}

type metric = Counter of counter | Histogram of histogram

type t = {
  lock : Mutex.t;  (* guards [tbl] and [order] *)
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;  (* registration order, reversed *)
}

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 16; order = [] }
let default = create ()

let register t name metric =
  Hashtbl.add t.tbl name metric;
  t.order <- name :: t.order

(* Prometheus label escaping: backslash, double quote and newline. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

(* Registry key: the fully keyed sample name, so each label combination
   is its own metric while sharing the base name for HELP/TYPE. *)
let keyed name labels = name ^ render_labels labels

let counter ?(help = "") ?(labels = []) t name =
  let key = keyed name labels in
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | Some (Counter c) -> c
  | Some (Histogram _) ->
      invalid_arg ("Metrics.counter: " ^ key ^ " is a histogram")
  | None ->
      let c =
        { c_name = name; c_labels = labels; c_help = help; value = Atomic.make 0 }
      in
      register t key (Counter c);
      c

let incr c = Atomic.incr c.value
let add c n = ignore (Atomic.fetch_and_add c.value n)
let set c n = Atomic.set c.value n
let counter_value c = Atomic.get c.value

let log_buckets ~lo ~ratio ~count =
  Array.init count (fun i -> lo *. (ratio ** float_of_int i))

let default_latency_buckets = log_buckets ~lo:1e-5 ~ratio:2.0 ~count:18

let histogram ?(help = "") ?(labels = []) ?(buckets = default_latency_buckets)
    t name =
  let key = keyed name labels in
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | Some (Histogram h) -> h
  | Some (Counter _) ->
      invalid_arg ("Metrics.histogram: " ^ key ^ " is a counter")
  | None ->
      let h =
        {
          h_name = name;
          h_labels = labels;
          h_help = help;
          bounds = Array.copy buckets;
          h_lock = Mutex.create ();
          buckets = Array.make (Array.length buckets + 1) 0;
          sum = 0.;
          count = 0;
        }
      in
      register t key (Histogram h);
      h

let bucket_index h v =
  (* First bound >= v; the +Inf slot catches the rest. *)
  let n = Array.length h.bounds in
  let rec find i = if i >= n || v <= h.bounds.(i) then i else find (i + 1) in
  find 0

let observe h v =
  let i = bucket_index h v in
  Mutex.protect h.h_lock @@ fun () ->
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1

let histogram_count h = Mutex.protect h.h_lock (fun () -> h.count)
let histogram_sum h = Mutex.protect h.h_lock (fun () -> h.sum)

(* One consistent reading: cumulative buckets, sum and count. *)
let read h =
  Mutex.protect h.h_lock @@ fun () ->
  let cum = ref 0 in
  let buckets =
    Array.init
      (Array.length h.buckets)
      (fun i ->
        cum := !cum + h.buckets.(i);
        let le =
          if i < Array.length h.bounds then h.bounds.(i) else infinity
        in
        (le, !cum))
  in
  (buckets, h.sum, h.count)

let bucket_counts h =
  let buckets, _, _ = read h in
  buckets

let metrics_in_order t =
  Mutex.protect t.lock (fun () ->
      List.rev_map (fun name -> Hashtbl.find t.tbl name) t.order)

(* Prometheus float formatting: shortest round-trip decimal, "+Inf" for
   the open bucket. *)
let prom_float v =
  if v = infinity then "+Inf" else Printf.sprintf "%.12g" v

let render_prometheus t =
  let buf = Buffer.create 1024 in
  (* HELP/TYPE are per metric family: emit them once per base name even
     when several label combinations share it. *)
  let described = Hashtbl.create 16 in
  let describe name kind help =
    if not (Hashtbl.mem described name) then begin
      Hashtbl.add described name ();
      if help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (function
      | Counter c ->
          describe c.c_name "counter" c.c_help;
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" c.c_name (render_labels c.c_labels)
               (Atomic.get c.value))
      | Histogram h ->
          describe h.h_name "histogram" h.h_help;
          let labels = render_labels h.h_labels in
          let buckets, sum, count = read h in
          Array.iter
            (fun (le, n) ->
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" h.h_name
                   (render_labels (h.h_labels @ [ ("le", prom_float le) ]))
                   n))
            buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %.12g\n" h.h_name labels sum);
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" h.h_name labels count))
    (metrics_in_order t);
  Buffer.contents buf

let json_float v =
  if v = infinity then "\"+Inf\"" else Printf.sprintf "%.12g" v

let render_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '{';
  let first = ref true in
  List.iter
    (fun m ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      match m with
      | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf {|"%s":{"type":"counter","value":%d}|}
               (String.escaped (keyed c.c_name c.c_labels))
               (Atomic.get c.value))
      | Histogram h ->
          let buckets, sum, count = read h in
          Buffer.add_string buf
            (Printf.sprintf {|"%s":{"type":"histogram","count":%d,"sum":%s,"buckets":[|}
               (String.escaped (keyed h.h_name h.h_labels))
               count (json_float sum));
          Array.iteri
            (fun i (le, n) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf
                (Printf.sprintf {|{"le":%s,"count":%d}|} (json_float le) n))
            buckets;
          Buffer.add_string buf "]}")
    (metrics_in_order t);
  Buffer.add_char buf '}';
  Buffer.contents buf

let reset t =
  List.iter
    (function
      | Counter c -> Atomic.set c.value 0
      | Histogram h ->
          Mutex.protect h.h_lock @@ fun () ->
          Array.fill h.buckets 0 (Array.length h.buckets) 0;
          h.sum <- 0.;
          h.count <- 0)
    (metrics_in_order t)
