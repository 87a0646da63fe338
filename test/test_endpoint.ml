(* SPARQL endpoint tests: pure request handling plus one real socket
   round trip served from a separate domain. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let engine = lazy (Amber.Engine.build Fixtures.paper_triples)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

let config = { Endpoint.default_config with timeout = Some 5.0 }

let handle ?(meth = "GET") ?(headers = []) ?(body = "") target =
  Endpoint.handle_request config
    (Endpoint.Static (Lazy.force engine))
    ~meth ~target ~headers ~body

let test_url_decode () =
  checks "plus is space" "a b" (Endpoint.url_decode "a+b");
  checks "percent" "a&b=c" (Endpoint.url_decode "a%26b%3Dc");
  checks "utf8 bytes" "\xc3\xa9" (Endpoint.url_decode "%C3%A9");
  checks "broken escape passes through" "%zz" (Endpoint.url_decode "%zz")

let encode s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
          Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

let simple_query =
  {|SELECT ?p WHERE { ?p <http://dbpedia.org/ontology/wasBornIn> ?c }|}

let test_get_query_json () =
  let status, ctype, body = handle ("/sparql?query=" ^ encode simple_query) in
  checki "200" 200 status;
  checks "json type" "application/sparql-results+json" ctype;
  checkb "amy in results" true (contains body "Amy_Winehouse");
  checkb "nolan in results" true (contains body "Christopher_Nolan")

let test_content_negotiation () =
  let _, ctype, body =
    handle ~headers:[ ("Accept", "text/csv") ] ("/sparql?query=" ^ encode simple_query)
  in
  checks "csv type" "text/csv" ctype;
  checkb "csv header row" true (contains body "p\r\n");
  let _, ctype, _ =
    handle
      ~headers:[ ("accept", "text/tab-separated-values") ]
      ("/sparql?query=" ^ encode simple_query)
  in
  checks "tsv type" "text/tab-separated-values" ctype

let test_post_forms () =
  let status, _, body =
    handle ~meth:"POST"
      ~headers:[ ("Content-Type", "application/x-www-form-urlencoded") ]
      ~body:("query=" ^ encode simple_query)
      "/sparql"
  in
  checki "urlencoded post" 200 status;
  checkb "has rows" true (contains body "Amy_Winehouse");
  let status, _, body =
    handle ~meth:"POST"
      ~headers:[ ("Content-Type", "application/sparql-query") ]
      ~body:simple_query "/sparql"
  in
  checki "raw post" 200 status;
  checkb "has rows too" true (contains body "Amy_Winehouse")

let test_extended_routing () =
  let src =
    {|SELECT ?p WHERE { { ?p <http://dbpedia.org/ontology/wasBornIn> ?c } UNION { ?p <http://dbpedia.org/ontology/diedIn> ?c } }|}
  in
  let status, _, body = handle ("/sparql?query=" ^ encode src) in
  checki "union accepted" 200 status;
  checkb "rows" true (contains body "Amy_Winehouse")

let test_errors () =
  let status, _, _ = handle "/sparql" in
  checki "missing query" 400 status;
  let status, _, _ = handle ("/sparql?query=" ^ encode "SELEC nope") in
  checki "parse error" 400 status;
  let status, _, _ = handle "/nowhere" in
  checki "not found" 404 status;
  let status, _, _ = handle ~meth:"DELETE" "/sparql" in
  checki "method not allowed" 405 status;
  let status, _, body = handle "/" in
  checki "service description" 200 status;
  checkb "mentions /sparql" true (contains body "/sparql")

let test_metrics_route () =
  (* Prime the counters with one query, then scrape. *)
  let _ = handle ("/sparql?query=" ^ encode simple_query) in
  let status, ctype, body = handle "/metrics" in
  checki "200" 200 status;
  checkb "prometheus content type" true (contains ctype "text/plain");
  checkb "query counter" true (contains body "amber_queries_total");
  checkb "latency histogram" true (contains body "amber_query_seconds_bucket");
  checkb "inf bucket" true (contains body "le=\"+Inf\"");
  checkb "request counter" true (contains body "amber_http_requests_total");
  checkb "index probes" true (contains body "amber_attribute_index_probes_total")

let test_profile_param () =
  let status, ctype, body =
    handle ("/sparql?profile=1&query=" ^ encode simple_query)
  in
  checki "200" 200 status;
  checks "still json" "application/sparql-results+json" ctype;
  checkb "rows intact" true (contains body "Amy_Winehouse");
  checkb "profile embedded" true (contains body "\"profile\":");
  checkb "phase tree present" true (contains body "\"phases\"");
  (* Non-JSON formats ignore the flag rather than corrupting output. *)
  let _, ctype, body =
    handle ~headers:[ ("Accept", "text/csv") ]
      ("/sparql?profile=1&query=" ^ encode simple_query)
  in
  checks "csv unaffected" "text/csv" ctype;
  checkb "no profile in csv" false (contains body "\"profile\":")

(* profile=, analyze= and compact= read the one on/off vocabulary of
   rewrite=: every spelling of "on" turns them on, and a malformed value
   is a 400 naming it, in rewrite='s message shape. *)
let test_flag_vocabulary () =
  let query flags = handle ("/sparql?" ^ flags ^ "&query=" ^ encode simple_query) in
  List.iter
    (fun v ->
      let status, _, body = query ("profile=" ^ v) in
      checki ("profile=" ^ v ^ " answers") 200 status;
      checkb ("profile=" ^ v ^ " embeds a profile") true (contains body "\"profile\":"))
    [ "on"; "1"; "true"; "yes"; "ON" ];
  List.iter
    (fun v ->
      let _, _, body = query ("profile=" ^ v) in
      checkb ("profile=" ^ v ^ " embeds none") false (contains body "\"profile\":"))
    [ "off"; "0"; "no" ];
  let _, _, body = query "analyze=on" in
  checkb "analyze=on embeds the analysis" true (contains body "\"analysis\":");
  List.iter
    (fun (flags, message) ->
      let status, ctype, body = query flags in
      checki (flags ^ " rejected") 400 status;
      checks (flags ^ " is plain text") "text/plain" ctype;
      checks (flags ^ " names the value") (message ^ "\n") body)
    [
      ("profile=lots", {|unknown profile "lots" (expected on or off)|});
      ("analyze=maybe", {|unknown analyze "maybe" (expected on or off)|});
      ("rewrite=lots", {|unknown rewrite "lots" (expected on or off)|});
    ];
  let live = Amber.Live_engine.of_engine (Lazy.force engine) in
  let update body =
    Endpoint.handle_request config (Endpoint.Live live) ~meth:"POST"
      ~target:"/update"
      ~headers:[ ("Content-Type", "application/x-www-form-urlencoded") ]
      ~body
  in
  let status, _, body = update "compact=yes" in
  checki "compact=yes accepted" 200 status;
  checkb "compact=yes compacts" true
    (Option.bind (Obs.Json.member "generation" (Obs.Json.parse body)) Obs.Json.to_float
    = Some 1.);
  let nt = "<http://ex/s> <http://ex/p> <http://ex/o> .\n" in
  let version () = Amber.Live_engine.version (Amber.Live_engine.pin live) in
  let before = version () in
  let status, _, body = update ("add=" ^ encode nt ^ "&compact=maybe") in
  checki "compact=maybe rejected" 400 status;
  checks "compact=maybe names the value"
    "unknown compact \"maybe\" (expected on or off)\n" body;
  checki "a rejected request writes nothing" before (version ())

let test_domains_param () =
  let _, _, expected = handle ("/sparql?query=" ^ encode simple_query) in
  (* The parallel path must be invisible in the response body. *)
  List.iter
    (fun d ->
      let status, ctype, body =
        handle
          (Printf.sprintf "/sparql?domains=%d&query=%s" d (encode simple_query))
      in
      checki "200" 200 status;
      checks "json type" "application/sparql-results+json" ctype;
      checkb
        (Printf.sprintf "domains=%d body identical to sequential" d)
        true (body = expected))
    [ 1; 2; 4 ];
  (* Out-of-range values are clamped, not rejected. *)
  let status, _, _ = handle ("/sparql?domains=99&query=" ^ encode simple_query) in
  checki "clamped, still 200" 200 status;
  (* A malformed value is a 400 naming it, like plan= and rewrite=. *)
  let status, _, body =
    handle ("/sparql?domains=lots&query=" ^ encode simple_query)
  in
  checki "garbage rejected, 400" 400 status;
  checkb "message names the value" true (contains body "\"lots\"");
  (* The profiled path annotates the match span with the domain count. *)
  let _, _, body =
    handle ("/sparql?profile=1&domains=2&query=" ^ encode simple_query)
  in
  checkb "profile carries domains annotation" true (contains body "domains")

let test_healthz () =
  let status, ctype, body = handle "/healthz" in
  checki "200" 200 status;
  checks "json type" "application/json" ctype;
  let json = Obs.Json.parse body in
  checkb "liveness ok" true
    (Option.bind (Obs.Json.member "status" json) Obs.Json.to_string
    = Some "ok");
  checkb "version advertised" true
    (Option.bind (Obs.Json.member "version" json) Obs.Json.to_string
    = Some Amber.Version.version);
  (* The build-info gauge carries the same version as a label. *)
  let _, _, metrics = handle "/metrics" in
  checkb "build info gauge" true
    (contains metrics
       (Printf.sprintf {|amber_build_info{version="%s"} 1|}
          Amber.Version.version))

let test_queries_route () =
  Obs.Query_log.configure ~sample_rate:1.0 ~slow_threshold:None
    Obs.Query_log.default;
  Obs.Query_log.clear Obs.Query_log.default;
  let _ = handle ("/sparql?query=" ^ encode simple_query) in
  let _ = handle ("/sparql?query=" ^ encode simple_query) in
  let status, ctype, body = handle "/queries" in
  checki "200" 200 status;
  checks "json type" "application/json" ctype;
  let records = Obs.Json.to_list (Obs.Json.parse body) in
  checki "both queries recorded" 2 (List.length records);
  let newest = List.hd records in
  let str k = Option.bind (Obs.Json.member k newest) Obs.Json.to_string in
  let num k = Option.bind (Obs.Json.member k newest) Obs.Json.to_float in
  checkb "status ok" true (str "status" = Some "ok");
  checkb "timing present" true
    (match num "seconds" with Some s -> s >= 0. | None -> false);
  checkb "rows counted" true (match num "rows" with Some r -> r > 0. | None -> false);
  checkb "gc delta embedded" true
    (match Obs.Json.member "gc" newest with
    | Some gc -> Obs.Json.member "allocated_bytes" gc <> None
    | None -> false);
  checkb "phase timings embedded" true
    (match Obs.Json.member "phases" newest with
    | Some (Obs.Json.Obj fields) -> List.mem_assoc "match" fields
    | _ -> false);
  (* Newest first, ids descending; ?n caps the count. *)
  let ids =
    List.filter_map
      (fun r -> Option.bind (Obs.Json.member "id" r) Obs.Json.to_float)
      records
  in
  checkb "newest first" true (ids = List.sort (fun a b -> compare b a) ids);
  let _, _, capped = handle "/queries?n=1" in
  checki "n caps" 1 (List.length (Obs.Json.to_list (Obs.Json.parse capped)))

(* One run per request: its profile tree and its flight record both
   start with the parse of the request text. *)
let test_parse_phase () =
  Obs.Query_log.configure ~sample_rate:1.0 ~slow_threshold:None
    Obs.Query_log.default;
  Obs.Query_log.clear Obs.Query_log.default;
  let status, _, body = handle ("/sparql?profile=1&query=" ^ encode simple_query) in
  checki "200" 200 status;
  let first_phase =
    Option.bind (Obs.Json.member "profile" (Obs.Json.parse body)) (fun p ->
        Option.bind (Obs.Json.member "phases" p) (fun tree ->
            match Option.map Obs.Json.to_list (Obs.Json.member "children" tree) with
            | Some (first :: _) -> Option.bind (Obs.Json.member "name" first) Obs.Json.to_string
            | _ -> None))
  in
  Alcotest.(check (option string)) "profile tree starts with parse" (Some "parse")
    first_phase;
  match Obs.Query_log.recent Obs.Query_log.default with
  | [ r ] ->
      checkb "record starts with parse" true
        (match r.Obs.Query_log.phases with ("parse", _) :: _ -> true | _ -> false)
  | records -> Alcotest.failf "expected one record, got %d" (List.length records)

(* CONSTRUCT answers N-Triples, which cannot carry a profile: asking for
   one must not run the profiled pipeline (its [candidates] phase probes
   the indexes for every query vertex). *)
let test_construct_unprofiled () =
  Obs.Query_log.configure ~sample_rate:1.0 ~slow_threshold:None
    Obs.Query_log.default;
  Obs.Query_log.clear Obs.Query_log.default;
  let construct =
    {|CONSTRUCT { ?c <http://ex/home> ?p } WHERE { ?p <http://dbpedia.org/ontology/wasBornIn> ?c }|}
  in
  let status, ctype, body = handle ("/sparql?profile=1&query=" ^ encode construct) in
  checki "200" 200 status;
  checks "n-triples" "application/n-triples" ctype;
  checkb "triples" true (contains body "<http://ex/home>");
  match Obs.Query_log.recent Obs.Query_log.default with
  | [ r ] ->
      checkb "record starts with parse" true
        (match r.Obs.Query_log.phases with ("parse", _) :: _ -> true | _ -> false);
      checkb "no candidates phase" false
        (List.mem_assoc "candidates" r.Obs.Query_log.phases)
  | records -> Alcotest.failf "expected one record, got %d" (List.length records)

let union_query =
  {|SELECT ?p WHERE { { ?p <http://dbpedia.org/ontology/wasBornIn> ?c } UNION { ?p <http://dbpedia.org/ontology/diedIn> ?c } }|}

let queries_total () =
  Obs.Metrics.counter_value
    (Obs.Metrics.counter Obs.Metrics.default "amber_queries_total")

(* An algebra query is one query: one flight record naming it, one
   count, under the server's plan — however many BGP leaves it has. *)
let test_union_one_record () =
  Obs.Query_log.configure ~sample_rate:1.0 ~slow_threshold:None
    Obs.Query_log.default;
  Obs.Query_log.clear Obs.Query_log.default;
  let before = queries_total () in
  let status, _, body =
    Endpoint.handle_request
      { config with opts = { config.opts with plan = Amber.Stats.Paper } }
      (Endpoint.Static (Lazy.force engine))
      ~meth:"GET" ~target:("/sparql?query=" ^ encode union_query) ~headers:[]
      ~body:""
  in
  checki "200" 200 status;
  checkb "rows" true (contains body "Amy_Winehouse");
  checki "one query counted" 1 (queries_total () - before);
  match Obs.Query_log.recent Obs.Query_log.default with
  | [ r ] ->
      checks "plan" "paper" r.Obs.Query_log.plan_mode;
      checks "the query asked"
        (match Sparql.Parser.parse_any union_query with
        | Sparql.Parser.Q_algebra q -> Sparql.Algebra.to_string q
        | _ -> Alcotest.fail "expected an algebra query")
        r.Obs.Query_log.query;
      checkb "names the union" true (contains r.Obs.Query_log.query "UNION")
  | records -> Alcotest.failf "expected one record, got %d" (List.length records)

(* A leaf proven empty empties that leaf, not the UNION: the query is
   answered, and neither recorded nor counted unsat. *)
let test_unsat_leaf_not_unsat () =
  Obs.Query_log.configure ~sample_rate:1.0 ~slow_threshold:None
    Obs.Query_log.default;
  Obs.Query_log.clear Obs.Query_log.default;
  let unsat =
    Obs.Metrics.counter Obs.Metrics.default "amber_analysis_unsat_total"
  in
  let unsat0 = Obs.Metrics.counter_value unsat in
  let src =
    {|SELECT ?p WHERE { { ?p <http://dbpedia.org/ontology/wasBornIn> ?c } UNION { ?p <http://dbpedia.org/ontology/diedIn> <http://nowhere/x> } }|}
  in
  let status, _, body = handle ("/sparql?query=" ^ encode src) in
  checki "200" 200 status;
  checkb "rows of the live leaf" true (contains body "Amy_Winehouse");
  checki "not counted unsat" 0 (Obs.Metrics.counter_value unsat - unsat0);
  match Obs.Query_log.recent Obs.Query_log.default with
  | [ r ] ->
      checks "status" "ok" (Obs.Query_log.status_slug r.Obs.Query_log.status);
      checkb "analysis not unsat" true (r.Obs.Query_log.analysis <> Some "unsat")
  | records -> Alcotest.failf "expected one record, got %d" (List.length records)

(* POST /update against a live source: writes land, deletions land,
   compaction is reachable over HTTP, and a static server refuses. *)
let test_update_route () =
  let live = Amber.Live_engine.of_engine (Lazy.force engine) in
  let handle_live ?(body = "") ?(meth = "POST") target =
    Endpoint.handle_request config (Endpoint.Live live) ~meth ~target
      ~headers:[ ("Content-Type", "application/x-www-form-urlencoded") ]
      ~body
  in
  let nt =
    "<http://ex/fresh> <http://dbpedia.org/ontology/wasBornIn> \
     <http://ex/city> .\n"
  in
  let status, ctype, body =
    handle_live ~body:("add=" ^ encode nt) "/update"
  in
  checki "update accepted" 200 status;
  checks "json response" "application/json" ctype;
  let json = Obs.Json.parse body in
  let num k = Option.bind (Obs.Json.member k json) Obs.Json.to_float in
  checkb "one triple added" true (num "added" = Some 1.);
  checkb "version bumped" true (num "version" = Some 1.);
  (* The write is immediately visible to the next query request. *)
  let status, _, rows = handle_live ~meth:"GET" ("/sparql?query=" ^ encode simple_query) in
  checki "query after update" 200 status;
  checkb "new subject visible" true (contains rows "http://ex/fresh");
  checkb "old rows intact" true (contains rows "Amy_Winehouse");
  (* Remove it again and compact in the same request. *)
  let status, _, body =
    handle_live ~body:("remove=" ^ encode nt ^ "&compact=1") "/update"
  in
  checki "removal accepted" 200 status;
  let json = Obs.Json.parse body in
  let num k = Option.bind (Obs.Json.member k json) Obs.Json.to_float in
  checkb "compaction bumped generation" true (num "generation" = Some 1.);
  checkb "delta drained" true
    (num "delta_adds" = Some 0. && num "delta_dels" = Some 0.);
  let _, _, rows = handle_live ~meth:"GET" ("/sparql?query=" ^ encode simple_query) in
  checkb "removed subject gone" false (contains rows "http://ex/fresh");
  (* Error paths: bad N-Triples, empty batch, wrong method, static server. *)
  let status, _, _ = handle_live ~body:"add=not%20ntriples" "/update" in
  checki "parse error rejected" 400 status;
  let status, _, _ = handle_live ~body:"" "/update" in
  checki "empty batch rejected" 400 status;
  let status, _, _ = handle_live ~meth:"GET" "/update" in
  checki "GET /update refused" 405 status;
  let status, _, body = handle ~meth:"POST" ~body:("add=" ^ encode nt) "/update" in
  checki "static server refuses" 405 status;
  checkb "explains why" true (contains body "static")

(* One full HTTP round trip over a real socket. *)
(* Every [_total] sample of a Prometheus page: (series with labels,
   value). *)
let total_samples page =
  List.filter_map
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i when line.[0] <> '#' ->
          let series = String.sub line 0 i in
          let name =
            match String.index_opt series '{' with
            | Some j -> String.sub series 0 j
            | None -> series
          in
          if String.ends_with ~suffix:"_total" name then
            Some
              ( series,
                float_of_string
                  (String.sub line (i + 1) (String.length line - i - 1)) )
          else None
      | _ -> None)
    (String.split_on_char '\n' page)

(* Counters scraped from a live endpoint never go backwards across
   /update: each published overlay starts with fresh LRUs, so the
   counters must be summed per query, not copied from the pinned
   engine. *)
let test_live_counters_monotone () =
  let live =
    Amber.Live_engine.of_engine (Amber.Engine.build Fixtures.paper_triples)
  in
  let handle_live ?(meth = "GET") ?(body = "") target =
    Endpoint.handle_request config (Endpoint.Live live) ~meth ~target
      ~headers:[ ("Content-Type", "application/x-www-form-urlencoded") ]
      ~body
  in
  let queries () =
    List.iter
      (fun q ->
        let status, _, _ = handle_live ("/sparql?query=" ^ encode q) in
        checki "query answered" 200 status)
      [
        simple_query;
        Printf.sprintf {|SELECT ?a WHERE { ?a <%s> ?b . ?b <%s> "MCA_Band" }|}
          (Fixtures.y "wasPartOf") (Fixtures.y "hasName");
        Printf.sprintf {|SELECT ?p WHERE { ?p <%s> <%s> }|}
          (Fixtures.y "wasBornIn") (Fixtures.x "London");
      ]
  in
  let scrape () =
    let status, _, page = handle_live "/metrics" in
    checki "metrics scraped" 200 status;
    total_samples page
  in
  queries ();
  queries ();
  let before = scrape () in
  List.iter
    (fun name ->
      checkb (name ^ " exported") true (List.mem_assoc name before))
    [
      "amber_attribute_index_probes_total";
      "amber_synopsis_index_probes_total";
      "amber_matcher_index_probes_total";
      "amber_engine_attribute_cache_hits_total";
      "amber_engine_synopsis_cache_hits_total";
    ];
  checkb "the repeated queries hit an LRU" true
    (List.assoc "amber_engine_attribute_cache_hits_total" before
     +. List.assoc "amber_engine_synopsis_cache_hits_total" before
    > 0.);
  let nt =
    Printf.sprintf "<%s> <%s> <%s> .\n" (Fixtures.x "Fresh")
      (Fixtures.y "wasBornIn") (Fixtures.x "London")
  in
  let status, _, _ = handle_live ~meth:"POST" ~body:("add=" ^ encode nt) "/update" in
  checki "update accepted" 200 status;
  queries ();
  let after = scrape () in
  List.iter
    (fun (series, v) ->
      match List.assoc_opt series after with
      | None -> Alcotest.failf "%s vanished after /update" series
      | Some v' ->
          if v' < v then
            Alcotest.failf "%s went backwards across /update: %g -> %g" series
              v v')
    before

let test_socket_roundtrip () =
  let server =
    Endpoint.create ~config:{ config with port = 0 } (Lazy.force engine)
  in
  let port = Endpoint.bound_port server in
  let server_domain = Domain.spawn (fun () -> Endpoint.serve ~max_requests:1 server) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let request =
    Printf.sprintf "GET /sparql?query=%s HTTP/1.1\r\nHost: localhost\r\nAccept: text/csv\r\n\r\n"
      (encode simple_query)
  in
  let _ = Unix.write fd (Bytes.of_string request) 0 (String.length request) in
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    end
  in
  drain ();
  Unix.close fd;
  Domain.join server_domain;
  Endpoint.stop server;
  let response = Buffer.contents buf in
  checkb "status line" true (contains response "HTTP/1.1 200 OK");
  checkb "content type" true (contains response "text/csv");
  checkb "payload" true (contains response "Amy_Winehouse")

(* Serve [n] connections on an ephemeral port from another domain,
   while [f port] plays the clients. *)
let with_server ?(engine = Lazy.force engine) ?live n f =
  let config = { config with port = 0 } in
  let server =
    match live with
    | Some live -> Endpoint.create_live ~config live
    | None -> Endpoint.create ~config engine
  in
  let port = Endpoint.bound_port server in
  let server_domain = Domain.spawn (fun () -> Endpoint.serve ~max_requests:n server) in
  match f port with
  | v ->
      Domain.join server_domain;
      Endpoint.stop server;
      v
  | exception e ->
      (* Closing the socket need not wake a blocked accept: leave the
         server domain behind rather than hang on it. *)
      Endpoint.stop server;
      raise e

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Read the response until the server closes. *)
let read_response fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  drain ();
  Unix.close fd;
  Buffer.contents buf

(* Send [request] (the server may stop reading early) and read the
   response. *)
let exchange port request =
  let fd = connect port in
  (try ignore (Unix.write_substring fd request 0 (String.length request))
   with Unix.Unix_error _ -> ());
  read_response fd

let status_of response =
  match String.split_on_char ' ' response with
  | _ :: code :: _ -> int_of_string_opt code
  | _ -> None

let good_request =
  Printf.sprintf "GET /sparql?query=%s HTTP/1.1\r\nHost: localhost\r\n\r\n"
    (encode simple_query)

let test_bad_content_length () =
  let post length =
    Printf.sprintf
      "POST /sparql HTTP/1.1\r\nHost: localhost\r\n\
       Content-Type: application/sparql-query\r\nContent-Length: %s\r\n\r\n"
      length
  in
  let cases =
    [ ("-5", 400); ("abc", 400); ("0x10", 400); ("", 400); ("99999999999", 413) ]
  in
  with_server (List.length cases + 1) (fun port ->
      List.iter
        (fun (length, expected) ->
          Alcotest.(check (option int))
            (Printf.sprintf "Content-Length %S" length)
            (Some expected)
            (status_of (exchange port (post length))))
        cases;
      let response = exchange port good_request in
      Alcotest.(check (option int)) "still serving" (Some 200) (status_of response);
      checkb "payload" true (contains response "Amy_Winehouse"))

let test_oversized_head () =
  with_server 2 (fun port ->
      let junk = "GET / HTTP/1.1\r\nX-Junk: " ^ String.make (70 * 1024) 'a' in
      Alcotest.(check (option int)) "head cap" (Some 431) (status_of (exchange port junk));
      Alcotest.(check (option int))
        "still serving" (Some 200)
        (status_of (exchange port good_request)))

(* 200 subjects with long IRIs, one predicate: a two-pattern query over
   it answers in megabytes. *)
let wide_iri s = Printf.sprintf "http://example.org/a-rather-long-resource-name/%s" s

let wide_engine =
  lazy
    (Amber.Engine.build
       (List.init 200 (fun i ->
            Rdf.Triple.spo (wide_iri (Printf.sprintf "s%d" i)) (wide_iri "p")
              (Fixtures.iri (wide_iri (Printf.sprintf "o%d" i))))))

let get_request query =
  Printf.sprintf "GET /sparql?query=%s HTTP/1.1\r\nHost: localhost\r\n\r\n"
    (encode query)

(* A body of more than 1 MB crosses the socket as the in-process
   serializer wrote it, framed by an exact Content-Length. *)
let test_large_body () =
  let engine = Lazy.force wide_engine in
  let query =
    Printf.sprintf "SELECT * WHERE { ?a <%s> ?b . ?c <%s> ?d } LIMIT 4000"
      (wide_iri "p") (wide_iri "p")
  in
  let expected = Amber.Results.to_json (Fixtures.select engine query) in
  checkb "answer over 1 MB" true (String.length expected >= 1_000_000);
  let response = with_server ~engine 1 (fun port -> exchange port (get_request query)) in
  let split =
    let rec find i =
      if i + 4 > String.length response then Alcotest.fail "no end of head"
      else if String.sub response i 4 = "\r\n\r\n" then i
      else find (i + 1)
    in
    find 0
  in
  let head = String.sub response 0 split in
  let body = String.sub response (split + 4) (String.length response - split - 4) in
  checkb "status line" true (String.starts_with ~prefix:"HTTP/1.1 200 OK\r\n" head);
  checkb "Content-Length is the body's length" true
    (contains head (Printf.sprintf "\r\nContent-Length: %d\r\n" (String.length body)));
  checkb "body equals in-process to_json" true (body = expected)

(* A handler that raises answers 500 Internal Server Error, in process
   and over the socket alike, and counts as an HTTP error: here a
   compaction into a live directory that has been removed. *)
let test_internal_error () =
  let dir = Filename.temp_file "amber_gone" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let live = Amber.Live_engine.of_engine ~dir (Lazy.force engine) in
  Test_delta.rm_rf dir;
  let errors = Obs.Metrics.counter Obs.Metrics.default "amber_http_errors_total" in
  let before = Obs.Metrics.counter_value errors in
  let form = [ ("Content-Type", "application/x-www-form-urlencoded") ] in
  let status, ctype, body =
    Endpoint.handle_request config (Endpoint.Live live) ~meth:"POST"
      ~target:"/update" ~headers:form ~body:"compact=1"
  in
  checki "in-process status" 500 status;
  checks "plain text" "text/plain" ctype;
  checkb "names the failure" true (contains body "internal error");
  checki "counted once" 1 (Obs.Metrics.counter_value errors - before);
  let response =
    with_server ~live 1 (fun port ->
        exchange port
          "POST /update HTTP/1.1\r\nHost: localhost\r\n\
           Content-Type: application/x-www-form-urlencoded\r\n\
           Content-Length: 9\r\n\r\ncompact=1")
  in
  checkb "socket status line" true
    (String.starts_with ~prefix:"HTTP/1.1 500 Internal Server Error\r\n" response);
  checki "counted again" 2 (Obs.Metrics.counter_value errors - before)

(* A body cut short by the client closing its side must not reach the
   handler as if complete: here half of a two-triple update. Nothing is
   applied, the answer is 400 and counted as a request and an error, and
   the next request is served. *)
let test_truncated_body () =
  let requests = Obs.Metrics.counter Obs.Metrics.default "amber_http_requests_total" in
  let errors = Obs.Metrics.counter Obs.Metrics.default "amber_http_errors_total" in
  let requests0 = Obs.Metrics.counter_value requests in
  let errors0 = Obs.Metrics.counter_value errors in
  let live = Amber.Live_engine.of_engine (Lazy.force engine) in
  let triples () =
    Amber.Database.triple_count
      (Amber.Engine.db (Amber.Live_engine.engine (Amber.Live_engine.pin live)))
  in
  let before = triples () in
  let line i =
    Printf.sprintf
      "<http://ex/cut%d> <http://dbpedia.org/ontology/wasBornIn> \
       <http://ex/city> .\n"
      i
  in
  let body = "add=" ^ encode (line 1 ^ line 2) in
  let sent = "add=" ^ encode (line 1) in
  let request =
    Printf.sprintf
      "POST /update HTTP/1.1\r\nHost: localhost\r\n\
       Content-Type: application/x-www-form-urlencoded\r\n\
       Content-Length: %d\r\n\r\n%s"
      (String.length body) sent
  in
  with_server ~live 2 (fun port ->
      let fd = connect port in
      ignore (Unix.write_substring fd request 0 (String.length request));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let response = read_response fd in
      Alcotest.(check (option int)) "truncated body" (Some 400) (status_of response);
      checkb "says why" true (contains response "truncated request body");
      checki "nothing applied" before (triples ());
      checki "rejection counted as a request" 1
        (Obs.Metrics.counter_value requests - requests0);
      checki "rejection counted as an error" 1
        (Obs.Metrics.counter_value errors - errors0);
      Alcotest.(check (option int))
        "still serving" (Some 200)
        (status_of (exchange port good_request)))

(* Clients that leave while a large answer is being written must not
   take the server down. One resets (SO_LINGER 0) once the response is
   under way: the server's write fails with ECONNRESET. One closes
   normally before reading anything: the server writes into a
   half-closed connection, the peer answers with a reset, and the next
   write raises SIGPIPE — which, unless ignored, kills this process. *)
let test_client_gone_mid_response () =
  let engine = Lazy.force wide_engine in
  (* About 10 MB of JSON: more than the socket buffers hold. *)
  let big =
    get_request
      (Printf.sprintf "SELECT * WHERE { ?a <%s> ?b . ?c <%s> ?d }" (wide_iri "p")
         (wide_iri "p"))
  in
  with_server ~engine 3 (fun port ->
      let fd = connect port in
      ignore (Unix.write_substring fd big 0 (String.length big));
      let chunk = Bytes.create 4096 in
      checkb "response started" true (Unix.read fd chunk 0 (Bytes.length chunk) > 0);
      Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
      Unix.close fd;
      let fd = connect port in
      ignore (Unix.write_substring fd big 0 (String.length big));
      Unix.close fd;
      let response =
        exchange port
          (get_request
             (Printf.sprintf "SELECT ?b WHERE { <%s> <%s> ?b }" (wide_iri "s7")
                (wide_iri "p")))
      in
      Alcotest.(check (option int)) "next request answered" (Some 200) (status_of response);
      checkb "payload" true (contains response (wide_iri "o7")))

let suite =
  [
    ( "endpoint",
      [
        Alcotest.test_case "url decode" `Quick test_url_decode;
        Alcotest.test_case "GET json" `Quick test_get_query_json;
        Alcotest.test_case "content negotiation" `Quick test_content_negotiation;
        Alcotest.test_case "POST forms" `Quick test_post_forms;
        Alcotest.test_case "extended routing" `Quick test_extended_routing;
        Alcotest.test_case "errors" `Quick test_errors;
        Alcotest.test_case "metrics route" `Quick test_metrics_route;
        Alcotest.test_case "profile param" `Quick test_profile_param;
        Alcotest.test_case "domains param" `Quick test_domains_param;
        Alcotest.test_case "flag vocabulary" `Quick test_flag_vocabulary;
        Alcotest.test_case "healthz" `Quick test_healthz;
        Alcotest.test_case "queries route" `Quick test_queries_route;
        Alcotest.test_case "parse phase recorded" `Quick test_parse_phase;
        Alcotest.test_case "construct is not profiled" `Quick
          test_construct_unprofiled;
        Alcotest.test_case "union is one query" `Quick test_union_one_record;
        Alcotest.test_case "unsat leaf is not unsat" `Quick
          test_unsat_leaf_not_unsat;
        Alcotest.test_case "update route" `Quick test_update_route;
        Alcotest.test_case "live counters never go backwards" `Quick
          test_live_counters_monotone;
        Alcotest.test_case "socket roundtrip" `Quick test_socket_roundtrip;
        Alcotest.test_case "bad content-length" `Quick test_bad_content_length;
        Alcotest.test_case "oversized head" `Quick test_oversized_head;
        Alcotest.test_case "truncated body" `Quick test_truncated_body;
        Alcotest.test_case "client gone mid-response" `Quick
          test_client_gone_mid_response;
        Alcotest.test_case "large body over the socket" `Quick test_large_body;
        Alcotest.test_case "handler exception answers 500" `Quick test_internal_error;
      ] );
  ]
