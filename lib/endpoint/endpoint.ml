type config = {
  host : string;
  port : int;
  timeout : float option;
  limit : int option;
  open_objects : bool;
  opts : Amber.Engine.Opts.t;
  snapshot : string option;
  live_dir : string option;
  slow_query : float option;
  log_sample : float;
  log_sink : string option;
}

let default_config =
  { host = "127.0.0.1"; port = 8080; timeout = Some 30.0; limit = Some 100_000;
    open_objects = true; opts = Amber.Engine.Opts.default; snapshot = None;
    live_dir = None; slow_query = Some 1.0; log_sample = 1.0; log_sink = None }

type source = Static of Amber.Engine.t | Live of Amber.Live_engine.t

(* One pin per request: every handler sees a single consistent epoch,
   whatever the writers do while the response is being computed. *)
let engine_of_source = function
  | Static engine -> engine
  | Live live -> Amber.Live_engine.engine (Amber.Live_engine.pin live)

type t = {
  config : config;
  source : source;
  socket : Unix.file_descr;
  port : int;
}

(* --- small HTTP/URL helpers ---------------------------------------- *)

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let url_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec loop i =
    if i < n then begin
      (match s.[i] with
      | '+' ->
          Buffer.add_char buf ' ';
          loop (i + 1)
      | '%' when i + 2 < n && hex_value s.[i + 1] >= 0 && hex_value s.[i + 2] >= 0 ->
          Buffer.add_char buf
            (Char.chr ((16 * hex_value s.[i + 1]) + hex_value s.[i + 2]));
          loop (i + 3)
      | c ->
          Buffer.add_char buf c;
          loop (i + 1))
    end
  in
  loop 0;
  Buffer.contents buf

(* Split "path?k=v&k2=v2" into path and decoded params. *)
let parse_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
      let path = String.sub target 0 i in
      let qs = String.sub target (i + 1) (String.length target - i - 1) in
      let params =
        List.filter_map
          (fun kv ->
            match String.index_opt kv '=' with
            | None -> if kv = "" then None else Some (url_decode kv, "")
            | Some j ->
                Some
                  ( url_decode (String.sub kv 0 j),
                    url_decode (String.sub kv (j + 1) (String.length kv - j - 1)) ))
          (String.split_on_char '&' qs)
      in
      (path, params)

let header headers name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name
    (List.map (fun (k, v) -> (String.lowercase_ascii k, v)) headers)

let service_description =
  {|AMbER SPARQL endpoint
GET  /sparql?query=<urlencoded SPARQL>[&profile=1][&domains=N]
POST /sparql   (application/x-www-form-urlencoded or application/sparql-query)
POST /update   (form-encoded add=<N-Triples>&remove=<N-Triples>[&compact=1];
                live-directory servers only, 405 on a static engine)
GET  /metrics  (Prometheus text exposition)
GET  /queries  (flight recorder: last recorded queries as JSON; ?n=K)
GET  /healthz  (liveness: {"status":"ok",...})
Accept: application/sparql-results+json | text/csv | text/tab-separated-values
SELECT (over one BGP, or with UNION / OPTIONAL / FILTER), ASK and
CONSTRUCT (answered as application/n-triples) all run through one
pipeline, so every parameter below applies to every query form.
profile=on embeds a per-query profile (phase timings, candidate counts)
in the JSON results (SELECT and ASK).
analyze=on embeds the static-analysis report (unsatisfiability proofs,
warnings, hints) of a SELECT over one BGP as an "analysis" member of
the JSON results.
domains=N matches on up to N domains of the shared pool (clamped to
1-8; overrides the server's configured default).
plan=paper|adaptive|forced:<attrs|scan> picks the seed/ordering
policy (default adaptive; answers are identical across plans).
rewrite=on|off toggles the semantic query rewriter (default on;
equivalence-preserving, so answers are identical either way).
The switches profile=, analyze=, rewrite= and POST /update's compact=
read on|off|true|false|1|0|yes|no (any case); profile=, analyze= and
compact= are off when absent. A malformed domains=, plan= or switch
value answers 400, naming it.
|}

(* --- metrics --------------------------------------------------------- *)

let m = Obs.Metrics.default

let m_requests =
  Obs.Metrics.counter m "amber_http_requests_total"
    ~help:"HTTP requests received"

let m_errors =
  Obs.Metrics.counter m "amber_http_errors_total"
    ~help:"HTTP responses with a 4xx/5xx status"

let m_timeouts =
  Obs.Metrics.counter m "amber_query_timeouts_total"
    ~help:"Queries aborted by the per-query time budget"

(* Prometheus build-info convention: constant 1, the payload is the
   label set. *)
let () =
  Obs.Metrics.set
    (Obs.Metrics.counter m "amber_build_info"
       ~labels:[ ("version", Amber.Version.version) ]
       ~help:"Build information; the value is always 1")
    1

(* Results JSON is a single object; the profile report splices in as a
   top-level "profile" member. *)
let embed_profile json profile =
  String.sub json 0 (String.length json - 1)
  ^ {|,"profile":|} ^ Amber.Profile.to_json profile ^ "}"

(* Same splice for the static analyzer's diagnostics. *)
let embed_analysis json report =
  String.sub json 0 (String.length json - 1)
  ^ {|,"analysis":|} ^ Amber.Analysis.report_to_json report ^ "}"

let negotiate headers =
  match header headers "accept" with
  | Some accept when String.length accept > 0 -> (
      let wants s =
        let n = String.length s and h = String.length accept in
        let rec loop i = i + n <= h && (String.sub accept i n = s || loop (i + 1)) in
        loop 0
      in
      if wants "text/csv" then `Csv
      else if wants "text/tab-separated-values" then `Tsv
      else `Json)
  | _ -> `Json

let handle_update source ~body =
  match source with
  | Static _ ->
      ( 405,
        "text/plain",
        "update not supported: static engine (serve a live directory)\n" )
  | Live live -> (
      let _, form = parse_target ("?" ^ body) in
      let parse_nt which =
        match List.assoc_opt which form with
        | None | Some "" -> []
        | Some text -> Rdf.Ntriples.parse_string text
      in
      match
        ( Amber.Engine.Opts.flag "compact" ~default:false
            (List.assoc_opt "compact" form),
          parse_nt "add",
          parse_nt "remove" )
      with
      | exception Rdf.Ntriples.Parse_error { line; message } ->
          ( 400,
            "text/plain",
            Printf.sprintf "N-Triples parse error at line %d: %s\n" line message
          )
      | Error msg, _, _ -> (400, "text/plain", msg ^ "\n")
      | Ok compact, [], [] when not compact ->
          (400, "text/plain", "missing 'add' or 'remove' parameter\n")
      | Ok compact, adds, dels ->
          let ep =
            if adds = [] && dels = [] then Amber.Live_engine.pin live
            else Amber.Live_engine.update live ~adds ~dels
          in
          let ep = if compact then Amber.Live_engine.compact live else ep in
          let d = Amber.Live_engine.delta ep in
          ( 200,
            "application/json",
            Printf.sprintf
              {|{"added":%d,"removed":%d,"generation":%d,"version":%d,"delta_adds":%d,"delta_dels":%d}|}
              (List.length adds) (List.length dels)
              (Amber.Live_engine.generation ep)
              (Amber.Live_engine.version ep)
              (Amber.Delta.add_count d) (Amber.Delta.del_count d)
            ^ "\n" ))

let handle_request_inner config source ~meth ~target ~headers ~body =
  let path, params = parse_target target in
  let engine = engine_of_source source in
  match (meth, path) with
  | "GET", "/" -> (200, "text/plain", service_description)
  | "GET", "/metrics" ->
      Amber.Engine.sync_resource_metrics engine;
      ( 200,
        "text/plain; version=0.0.4",
        Obs.Metrics.render_prometheus Obs.Metrics.default )
  | "GET", "/healthz" ->
      ( 200,
        "application/json",
        Printf.sprintf {|{"status":"ok","version":"%s"}|} Amber.Version.version
        ^ "\n" )
  | "GET", "/queries" ->
      let n = Option.bind (List.assoc_opt "n" params) int_of_string_opt in
      (200, "application/json", Obs.Query_log.to_json ?n Obs.Query_log.default)
  | ("GET" | "POST"), "/sparql" -> (
      let query_text, form_params =
        match meth with
        | "GET" -> (List.assoc_opt "query" params, [])
        | _ -> (
            match header headers "content-type" with
            | Some ct
              when String.length ct >= 24
                   && String.sub ct 0 24 = "application/sparql-query" ->
                (Some body, [])
            | _ ->
                let _, form = parse_target ("?" ^ body) in
                (List.assoc_opt "query" form, form))
      in
      match query_text with
      | None | Some "" ->
          (400, "text/plain", "missing 'query' parameter\n")
      | Some src -> (
          let fmt = negotiate headers in
          let json = fmt = `Json in
          let open_objects = config.open_objects in
          let param name =
            match List.assoc_opt name params with
            | Some _ as v -> v
            | None -> List.assoc_opt name form_params
          in
          (* The analyzer's report and the profile's form check read the
             query as asked: one diagnostic parse of its own, made only
             when one of them is asked for. *)
          let parsed = lazy (Sparql.Parser.parse_any src) in
          let render_rows answer =
            match fmt with
            | `Json ->
                (200, "application/sparql-results+json", Amber.Results.to_json answer)
            | `Csv -> (200, "text/csv", Amber.Results.to_csv answer)
            | `Tsv -> (200, "text/tab-separated-values", Amber.Results.to_tsv answer)
          in
          (* One run answers every query form; the response follows
             the result's shape. Profile and analysis ride inside the
             results JSON; other formats (and CONSTRUCT's N-Triples)
             have no extension point, so they are not computed. *)
          let respond opts ~profile ~analyze =
            let profile =
              json && profile
              &&
              match Lazy.force parsed with
              | Sparql.Parser.Q_construct _ -> false
              | Sparql.Parser.Q_select _ | Sparql.Parser.Q_algebra _
              | Sparql.Parser.Q_ask _ ->
                  true
            in
            let r =
              Amber.Engine.run ~opts ~open_objects ?timeout:config.timeout
                ?limit:config.limit ~profile engine (`Text src)
            in
            let extend body =
              let body =
                Option.fold ~none:body ~some:(embed_profile body)
                  r.Amber.Engine.profile
              in
              if not (json && analyze) then body
              else
                match Lazy.force parsed with
                | Sparql.Parser.Q_select ast ->
                    embed_analysis body (Amber.Engine.analyze ~open_objects engine ast)
                | Sparql.Parser.Q_algebra _ | Sparql.Parser.Q_ask _
                | Sparql.Parser.Q_construct _ ->
                    body
            in
            match r.Amber.Engine.result with
            | Amber.Engine.Rows answer ->
                let status, ctype, body = render_rows answer in
                (status, ctype, extend body)
            | Amber.Engine.Boolean b ->
                ( 200,
                  "application/sparql-results+json",
                  extend (Amber.Results.ask_json b) )
            | Amber.Engine.Triples triples ->
                (200, "application/n-triples", Rdf.Ntriples.to_string triples)
          in
          (* A request's plan= / rewrite= / domains= override the
             server's options, and profile= / analyze= are off unless
             given; a malformed value is a 400, not a silent fallback —
             an operator probing one should learn of the typo. *)
          let request =
            let ( let* ) = Result.bind in
            let flag name = Amber.Engine.Opts.flag name ~default:false (param name) in
            let* opts =
              Amber.Engine.Opts.parse ?plan:(param "plan")
                ?rewrite:(param "rewrite") ?domains:(param "domains")
                config.opts
            in
            let* profile = flag "profile" in
            let* analyze = flag "analyze" in
            Ok (opts, profile, analyze)
          in
          match
            match request with
            | Error msg -> (400, "text/plain", msg ^ "\n")
            | Ok (opts, profile, analyze) -> respond opts ~profile ~analyze
          with
          | response -> response
          | exception Sparql.Parser.Error { line; col; message } ->
              ( 400,
                "text/plain",
                Printf.sprintf "SPARQL parse error at %d:%d: %s\n" line col message )
          | exception Amber.Engine.Unsupported msg ->
              (400, "text/plain", "unsupported query: " ^ msg ^ "\n")
          | exception Amber.Deadline.Expired ->
              Obs.Metrics.incr m_timeouts;
              (503, "text/plain", "query timed out\n")))
  | "POST", "/update" -> handle_update source ~body
  | _, ("/sparql" | "/update") -> (405, "text/plain", "method not allowed\n")
  | _ -> (404, "text/plain", "not found\n")

let handle_request config source ~meth ~target ~headers ~body =
  Obs.Metrics.incr m_requests;
  let (status, _, _) as response =
    try handle_request_inner config source ~meth ~target ~headers ~body
    with e ->
      (500, "text/plain", "internal error: " ^ Printexc.to_string e ^ "\n")
  in
  if status >= 400 then Obs.Metrics.incr m_errors;
  response

(* --- socket plumbing ------------------------------------------------ *)

let create_source ?(config = default_config) source =
  (* The server's flight-recorder policy is authoritative for the
     process-wide recorder every engine entry point records into. *)
  Obs.Query_log.configure ~sample_rate:config.log_sample
    ~slow_threshold:config.slow_query Obs.Query_log.default;
  Obs.Query_log.set_sink Obs.Query_log.default config.log_sink;
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
  Unix.listen socket 16;
  let port =
    match Unix.getsockname socket with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  { config; source; socket; port }

let create ?config engine = create_source ?config (Static engine)
let create_live ?config live = create_source ?config (Live live)

let boot config =
  match (config.live_dir, config.snapshot) with
  | Some dir, _ -> create_live ~config (Amber.Live_engine.open_dir dir)
  | None, Some path -> create ~config (Amber.Engine.load_snapshot path)
  | None, None ->
      invalid_arg "Endpoint.boot: config.snapshot and config.live_dir are None"

let bound_port t = t.port

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Content Too Large"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

(* What one request may make the server buffer: a head beyond
   [max_head_bytes] answers 431, a declared body beyond [max_body_bytes]
   answers 413 before any of it is read. *)
let max_head_bytes = 64 * 1024
let max_body_bytes = 16 * 1024 * 1024

type request =
  | Request of string * string * (string * string) list * string
      (** method, target, headers, body *)
  | Reject of int * string  (** status and message: answer, then close *)
  | Closed  (** the peer left before sending a complete head *)

(* A Content-Length value: decimal digits only, so that a sign, a hex
   prefix or an underscore (all accepted by [int_of_string]) is
   rejected, and short enough not to overflow. *)
let parse_content_length v =
  let n = String.length v in
  if n = 0 || n > 18 || not (String.for_all (fun c -> c >= '0' && c <= '9') v)
  then None
  else Some (int_of_string v)

let parse_headers head =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i ->
          Some
            ( String.sub line 0 i,
              String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
      | None -> None)
    head

(* Read a full request: head until CRLFCRLF, then Content-Length bytes.
   Each read scans only the bytes it added (plus the three before, for
   a terminator split across reads). *)
let read_request fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec find_terminator i =
    if i + 3 >= Buffer.length buf then None
    else if
      Buffer.nth buf i = '\r'
      && Buffer.nth buf (i + 1) = '\n'
      && Buffer.nth buf (i + 2) = '\r'
      && Buffer.nth buf (i + 3) = '\n'
    then Some (i + 4)
    else find_terminator (i + 1)
  in
  let rec read_head scanned =
    match find_terminator (max 0 (scanned - 3)) with
    | Some body_start -> `Head body_start
    | None when Buffer.length buf > max_head_bytes -> `Too_large
    | None ->
        let scanned = Buffer.length buf in
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then `Eof
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          read_head scanned
        end
  in
  match read_head 0 with
  | `Eof -> Closed
  | `Too_large -> Reject (431, "request head too large\n")
  | `Head body_start when body_start > max_head_bytes ->
      Reject (431, "request head too large\n")
  | `Head body_start -> (
      let lines =
        List.map String.trim
          (String.split_on_char '\n' (Buffer.sub buf 0 body_start))
      in
      match lines with
      | [] -> Closed
      | request_line :: header_lines -> (
          match String.split_on_char ' ' request_line with
          | meth :: target :: _ -> (
              let headers = parse_headers header_lines in
              match
                Option.fold ~none:(Some 0) ~some:parse_content_length
                  (header headers "content-length")
              with
              | None -> Reject (400, "bad Content-Length\n")
              | Some len when len > max_body_bytes ->
                  Reject (413, "request body too large\n")
              | Some len ->
                  let body = Buffer.create (min len 65536) in
                  Buffer.add_string body
                    (Buffer.sub buf body_start
                       (min len (Buffer.length buf - body_start)));
                  (* [false] when the peer closes before [len] bytes: a
                     cut-off body must not reach the handler as if whole
                     (half a POST /update would apply). *)
                  let rec fill () =
                    let missing = len - Buffer.length body in
                    missing <= 0
                    ||
                    let n =
                      Unix.read fd chunk 0 (min missing (Bytes.length chunk))
                    in
                    n > 0
                    && begin
                         Buffer.add_subbytes body chunk 0 n;
                         fill ()
                       end
                  in
                  if fill () then
                    Request (meth, target, headers, Buffer.contents body)
                  else Reject (400, "truncated request body\n"))
          | _ -> Reject (400, "malformed request line\n")))

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* The head is formatted alone and the body written from the string the
   handler returned: the body, often megabytes, is never copied. *)
let write_response fd status content_type body =
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
        close\r\n\r\n"
       status (status_text status) content_type (String.length body));
  write_all fd body

let handle_connection t fd =
  (* Head and body leave in two writes; without NODELAY the body's first
     segment could wait on the peer's delayed ACK of the head. *)
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  match read_request fd with
  | Closed -> ()
  | Reject (status, message) ->
      (* Every rejection is a 4xx; count it before the client can read it. *)
      Obs.Metrics.incr m_requests;
      Obs.Metrics.incr m_errors;
      write_response fd status "text/plain" message
  | Request (meth, target, headers, body) ->
      let status, content_type, response_body =
        handle_request t.config t.source ~meth ~target ~headers ~body
      in
      write_response fd status content_type response_body

let serve ?max_requests t =
  (* A client that resets mid-response must cost one failed write
     (EPIPE, caught below), not the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let served = ref 0 in
  let continue () =
    match max_requests with None -> true | Some n -> !served < n
  in
  while continue () do
    let fd, _ = Unix.accept t.socket in
    incr served;
    (try handle_connection t fd with _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  done

let stop t = try Unix.close t.socket with Unix.Unix_error _ -> ()
