(* Observability layer: metrics registry, histogram bucketing,
   Prometheus/JSON rendering, tracing spans, and the per-query profile
   produced by [Engine.run ~profile:true]. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

let test_counters () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "queries_total" ~help:"queries served" in
  checki "starts at zero" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Obs.Metrics.incr c;
  Obs.Metrics.add c 3;
  checki "incr and add" 5 (Obs.Metrics.counter_value c);
  (* Registration is idempotent: same name, same cell. *)
  let c' = Obs.Metrics.counter r "queries_total" in
  Obs.Metrics.incr c';
  checki "same cell" 6 (Obs.Metrics.counter_value c);
  Obs.Metrics.set c 42;
  checki "set overwrites" 42 (Obs.Metrics.counter_value c);
  (* A name registered as a counter cannot come back as a histogram. *)
  (match Obs.Metrics.histogram r "queries_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type clash should raise");
  Obs.Metrics.reset r;
  checki "reset zeroes" 0 (Obs.Metrics.counter_value c)

let test_log_buckets () =
  let b = Obs.Metrics.log_buckets ~lo:0.001 ~ratio:10.0 ~count:3 in
  checki "count" 3 (Array.length b);
  checkf "first" 0.001 b.(0);
  checkf "second" 0.01 b.(1);
  checkf "third" 0.1 b.(2);
  let d = Obs.Metrics.default_latency_buckets in
  checki "default ladder size" 18 (Array.length d);
  checkf "default lo" 1e-5 d.(0);
  checkb "sorted ascending" true
    (Array.for_all (fun x -> x > 0.0) d
    && Array.for_all2 (fun a b -> a < b) (Array.sub d 0 17) (Array.sub d 1 17))

let test_histogram_bucketing () =
  let r = Obs.Metrics.create () in
  let h =
    Obs.Metrics.histogram r "latency" ~buckets:[| 0.1; 1.0; 10.0 |]
      ~help:"test histogram"
  in
  (* One observation per region: <=0.1, <=1, <=10, overflow. Boundary
     values land in the bucket they equal (le is inclusive). *)
  List.iter (Obs.Metrics.observe h) [ 0.05; 0.1; 0.5; 7.0; 99.0 ];
  checki "count" 5 (Obs.Metrics.histogram_count h);
  checkf "sum" 106.65 (Obs.Metrics.histogram_sum h);
  let buckets = Obs.Metrics.bucket_counts h in
  checki "bounds plus +Inf" 4 (Array.length buckets);
  let le, n = buckets.(0) in
  checkf "first bound" 0.1 le;
  checki "0.05 and 0.1 in first bucket" 2 n;
  let _, n1 = buckets.(1) in
  checki "cumulative through 1.0" 3 n1;
  let _, n2 = buckets.(2) in
  checki "cumulative through 10.0" 4 n2;
  let inf_le, total = buckets.(3) in
  checkb "last bound is +Inf" true (inf_le = infinity);
  checki "total" 5 total;
  (* Idempotent lookup keeps the original bucket ladder. *)
  let h' = Obs.Metrics.histogram r "latency" in
  Obs.Metrics.observe h' 0.2;
  checki "shared cell" 6 (Obs.Metrics.histogram_count h)

let test_render_prometheus () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "amber_queries_total" ~help:"queries" in
  Obs.Metrics.add c 7;
  let h = Obs.Metrics.histogram r "amber_query_seconds" ~buckets:[| 0.5 |] in
  Obs.Metrics.observe h 0.25;
  Obs.Metrics.observe h 2.0;
  let text = Obs.Metrics.render_prometheus r in
  checkb "help line" true (contains text "# HELP amber_queries_total queries");
  checkb "counter type" true (contains text "# TYPE amber_queries_total counter");
  checkb "counter sample" true (contains text "amber_queries_total 7");
  checkb "histogram type" true (contains text "# TYPE amber_query_seconds histogram");
  checkb "finite bucket" true (contains text "amber_query_seconds_bucket{le=\"0.5\"} 1");
  checkb "inf bucket" true (contains text "amber_query_seconds_bucket{le=\"+Inf\"} 2");
  checkb "count series" true (contains text "amber_query_seconds_count 2");
  checkb "sum series" true (contains text "amber_query_seconds_sum 2.25")

let test_render_json () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "hits" in
  Obs.Metrics.add c 3;
  let h = Obs.Metrics.histogram r "lat" ~buckets:[| 1.0 |] in
  Obs.Metrics.observe h 0.5;
  let json = Obs.Metrics.render_json r in
  checkb "counter entry" true (contains json "\"hits\":{\"type\":\"counter\",\"value\":3}");
  checkb "histogram type tag" true (contains json "\"type\":\"histogram\"");
  checkb "bucket list" true (contains json "\"buckets\":");
  checkb "object shaped" true
    (String.length json > 1 && json.[0] = '{' && json.[String.length json - 1] = '}')

let test_labeled_metrics () =
  let r = Obs.Metrics.create () in
  let get = Obs.Metrics.counter r "http_reqs" ~labels:[ ("method", "GET") ] ~help:"reqs" in
  let post = Obs.Metrics.counter r "http_reqs" ~labels:[ ("method", "POST") ] in
  Obs.Metrics.add get 2;
  Obs.Metrics.incr post;
  (* Distinct label sets are distinct cells; idempotent per combination. *)
  Obs.Metrics.incr (Obs.Metrics.counter r "http_reqs" ~labels:[ ("method", "GET") ]);
  checki "get cell" 3 (Obs.Metrics.counter_value get);
  checki "post cell" 1 (Obs.Metrics.counter_value post);
  let h =
    Obs.Metrics.histogram r "lat" ~labels:[ ("path", "/q") ] ~buckets:[| 1.0 |]
  in
  Obs.Metrics.observe h 0.5;
  Obs.Metrics.observe h 5.0;
  let text = Obs.Metrics.render_prometheus r in
  checkb "GET sample" true (contains text {|http_reqs{method="GET"} 3|});
  checkb "POST sample" true (contains text {|http_reqs{method="POST"} 1|});
  (* One family header for both label combinations. *)
  let occurrences needle =
    let rec count i acc =
      if i + String.length needle > String.length text then acc
      else if String.sub text i (String.length needle) = needle then
        count (i + 1) (acc + 1)
      else count (i + 1) acc
    in
    count 0 0
  in
  checki "single TYPE header" 1 (occurrences "# TYPE http_reqs counter");
  (* Histogram labels merge with le on bucket samples. *)
  checkb "labeled finite bucket" true
    (contains text {|lat_bucket{path="/q",le="1"} 1|});
  checkb "labeled inf bucket" true
    (contains text {|lat_bucket{path="/q",le="+Inf"} 2|});
  checkb "labeled sum" true (contains text {|lat_sum{path="/q"}|});
  checkb "labeled count" true (contains text {|lat_count{path="/q"} 2|})

(* Four domains observe one histogram, share labelled series looked up
   on every call, and register series of their own, while the calling
   domain renders: counts and sums come out exact (0.25 and 1.0 add
   without rounding) and no series is lost or doubled. *)
let test_metrics_from_domains () =
  let r = Obs.Metrics.create () in
  let domains = 4 and rounds = 2000 and shared_series = 50 and own_series = 200 in
  let hist ?labels () = Obs.Metrics.histogram r "work" ?labels ~buckets:[| 0.5 |] in
  let shared = hist () in
  let stop = Atomic.make false in
  let worker k () =
    for i = 0 to rounds - 1 do
      Obs.Metrics.observe shared 0.25;
      Obs.Metrics.observe
        (hist ~labels:[ ("i", string_of_int (i mod shared_series)) ] ())
        1.0;
      if i < own_series then
        Obs.Metrics.incr
          (Obs.Metrics.counter r "owned"
             ~labels:[ ("d", string_of_int k); ("i", string_of_int i) ])
    done
  in
  let renderer =
    Domain.spawn (fun () ->
        let renders = ref 0 in
        while not (Atomic.get stop) do
          ignore (Obs.Metrics.render_prometheus r);
          incr renders
        done;
        !renders)
  in
  List.iter Domain.join (List.init domains (fun k -> Domain.spawn (worker k)));
  Atomic.set stop true;
  checkb "rendered meanwhile" true (Domain.join renderer > 0);
  checki "shared count" (domains * rounds) (Obs.Metrics.histogram_count shared);
  checkf "shared sum" (0.25 *. float_of_int (domains * rounds))
    (Obs.Metrics.histogram_sum shared);
  checki "shared bucket" (domains * rounds) (snd (Obs.Metrics.bucket_counts shared).(0));
  for i = 0 to shared_series - 1 do
    let h = hist ~labels:[ ("i", string_of_int i) ] () in
    checki "labelled count" (domains * rounds / shared_series) (Obs.Metrics.histogram_count h);
    checkf "labelled sum" (float_of_int (domains * rounds / shared_series))
      (Obs.Metrics.histogram_sum h)
  done;
  let text = Obs.Metrics.render_prometheus r in
  let lines = String.split_on_char '\n' text in
  let samples prefix =
    List.length (List.filter (String.starts_with ~prefix) lines)
  in
  checki "every owned series, once" (domains * own_series) (samples "owned{");
  checki "every labelled histogram, once" (shared_series + 1) (samples "work_count");
  for k = 0 to domains - 1 do
    for i = 0 to own_series - 1 do
      checkb "owned sample" true
        (contains text (Printf.sprintf {|owned{d="%d",i="%d"} 1|} k i))
    done
  done

let test_label_escaping () =
  let r = Obs.Metrics.create () in
  let c =
    Obs.Metrics.counter r "odd" ~labels:[ ("v", "a\"b\\c\nd") ]
  in
  Obs.Metrics.incr c;
  let text = Obs.Metrics.render_prometheus r in
  (* Prometheus escaping: quote, backslash and newline in label values. *)
  checkb "escaped value" true (contains text {|odd{v="a\"b\\c\nd"} 1|});
  checkb "no raw newline in sample" false (contains text "c\nd")

let test_json_render_roundtrip () =
  (* The JSON renderer's output must survive the strict parser — that's
     the well-formedness gate CI relies on. *)
  let r = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter r "hits") 3;
  let h =
    Obs.Metrics.histogram r "lat" ~labels:[ ("path", "/q") ] ~buckets:[| 0.5; 1.0 |]
  in
  Obs.Metrics.observe h 0.2;
  Obs.Metrics.observe h 9.0;
  let json = Obs.Json.parse (Obs.Metrics.render_json r) in
  (match Obs.Json.member "hits" json with
  | Some hits ->
      checkb "counter value" true
        (Option.bind (Obs.Json.member "value" hits) Obs.Json.to_float = Some 3.)
  | None -> Alcotest.fail "hits entry missing");
  (match Obs.Json.member {|lat{path="/q"}|} json with
  | Some lat ->
      checkb "histogram type" true
        (Option.bind (Obs.Json.member "type" lat) Obs.Json.to_string
        = Some "histogram");
      let buckets =
        Obs.Json.to_list
          (Option.value ~default:Obs.Json.Null (Obs.Json.member "buckets" lat))
      in
      checki "two bounds plus +Inf" 3 (List.length buckets);
      let last = List.nth buckets 2 in
      checkb "inf bucket as string" true
        (Option.bind (Obs.Json.member "le" last) Obs.Json.to_string
        = Some "+Inf");
      checkb "inf bucket counts all" true
        (Option.bind (Obs.Json.member "count" last) Obs.Json.to_float = Some 2.)
  | None -> Alcotest.fail "keyed histogram entry missing")

let test_json_parser () =
  let open Obs.Json in
  checkb "num" true (parse "42" = Num 42.);
  checkb "negative exponent" true (parse "-1.5e2" = Num (-150.));
  checkb "escapes" true (parse {|"a\"b\\c\nd"|} = Str "a\"b\\c\nd");
  checkb "unicode escape" true (parse {|"é"|} = Str "\xc3\xa9");
  checkb "nested" true
    (parse {|{"a":[1,true,null],"b":{"c":"d"}}|}
    = Obj
        [
          ("a", Arr [ Num 1.; Bool true; Null ]);
          ("b", Obj [ ("c", Str "d") ]);
        ]);
  let malformed s =
    match parse s with
    | exception Malformed _ -> true
    | _ -> false
  in
  checkb "trailing garbage" true (malformed "{} x");
  checkb "bare word" true (malformed "nope");
  checkb "unterminated string" true (malformed {|"abc|});
  checkb "raw control char" true (malformed "\"a\nb\"");
  checkb "parse_opt on junk" true (parse_opt "[1,)" = None);
  (* print → parse is the identity on the value. *)
  let v =
    Obj
      [
        ("s", Str "q\"uote\\and\ncontrol");
        ("n", Num 0.125);
        ("i", Num 1234567.);
        ("l", Arr [ Null; Bool false ]);
      ]
  in
  checkb "roundtrip" true (parse (to_text v) = v)

let test_span_tree () =
  let (result, root) =
    Obs.Span.root ~name:"query" (fun () ->
        checkb "root active" true (Obs.Span.active ());
        let x =
          Obs.Span.with_ ~name:"parse" (fun () ->
              Obs.Span.annotate "triples" "3";
              41)
        in
        Obs.Span.with_ ~name:"match" (fun () ->
            ignore (Obs.Span.with_ ~name:"component" (fun () -> ())));
        x + 1)
  in
  checki "thunk result" 42 result;
  checkb "inactive after close" false (Obs.Span.active ());
  checks "root name" "query" (Obs.Span.name root);
  checkb "root duration" true (Obs.Span.duration root >= 0.0);
  let kids = Obs.Span.children root in
  checki "two children" 2 (List.length kids);
  checks "order preserved" "parse" (Obs.Span.name (List.hd kids));
  (match Obs.Span.find root "component" with
  | Some s -> checks "nested find" "component" (Obs.Span.name s)
  | None -> Alcotest.fail "find should reach grandchildren");
  (match Obs.Span.find root "parse" with
  | Some s -> checkb "annotation kept" true (List.mem_assoc "triples" (Obs.Span.meta s))
  | None -> Alcotest.fail "find parse");
  let json = Obs.Span.to_json root in
  checkb "json name" true (contains json "\"name\":\"query\"");
  checkb "json children" true (contains json "\"children\":[");
  let rendered = Format.asprintf "%a" Obs.Span.pp root in
  checkb "pp mentions ms" true (contains rendered "ms")

let test_span_inactive_is_passthrough () =
  (* Without a root, with_ must run the thunk untimed and annotate must
     be a no-op — the "near-free when disabled" contract. *)
  checkb "no root" false (Obs.Span.active ());
  checki "passthrough" 7 (Obs.Span.with_ ~name:"anything" (fun () -> 7));
  Obs.Span.annotate "k" "v";
  checkb "still inactive" false (Obs.Span.active ())

let test_span_exception () =
  let saw = ref None in
  (try
     ignore
       (Obs.Span.root ~name:"r" (fun () ->
            Obs.Span.with_ ~name:"boom" (fun () -> failwith "bang")))
   with Failure msg -> saw := Some msg);
  checkb "exception propagates" true (!saw = Some "bang");
  checkb "stack unwound" false (Obs.Span.active ())

let test_span_domain_isolation () =
  (* Collector stacks live in Domain.DLS: a root open on this domain is
     invisible to a spawned domain, which collects its own subtree for a
     later graft — the parallel engine's tracing discipline. *)
  let _, root =
    Obs.Span.root ~name:"parent" (fun () ->
        Obs.Span.with_ ~name:"match" (fun () ->
            let worker =
              Domain.spawn (fun () ->
                  let was_active = Obs.Span.active () in
                  let (), sub =
                    Obs.Span.collect ~name:"chunk" (fun () ->
                        Obs.Span.annotate "seeds" "7")
                  in
                  (was_active, sub))
            in
            let was_active, sub = Domain.join worker in
            checkb "other domain starts inactive" false was_active;
            Obs.Span.graft sub))
  in
  (match Obs.Span.find root "chunk" with
  | Some chunk ->
      checkb "worker domain id recorded" true
        (Obs.Span.domain chunk <> Obs.Span.domain root);
      checkb "annotation survived the graft" true
        (List.mem_assoc "seeds" (Obs.Span.meta chunk))
  | None -> Alcotest.fail "grafted chunk missing from parent tree");
  checkb "parent stack restored" false (Obs.Span.active ())

(* Chrome trace-event schema: the shape Perfetto / chrome://tracing
   require of every event this exporter emits. *)
let check_chrome_trace text =
  let json = Obs.Json.parse text in
  let events =
    Obs.Json.to_list
      (Option.value ~default:Obs.Json.Null
         (Obs.Json.member "traceEvents" json))
  in
  checkb "displayTimeUnit" true
    (Option.bind (Obs.Json.member "displayTimeUnit" json) Obs.Json.to_string
    = Some "ms");
  checkb "has events" true (events <> []);
  List.iter
    (fun ev ->
      let str k = Option.bind (Obs.Json.member k ev) Obs.Json.to_string in
      let num k = Option.bind (Obs.Json.member k ev) Obs.Json.to_float in
      checkb "name" true (str "name" <> None);
      checkb "cat" true (str "cat" = Some "amber");
      checkb "complete event" true (str "ph" = Some "X");
      checkb "ts" true (match num "ts" with Some t -> t >= 0. | None -> false);
      checkb "dur" true (match num "dur" with Some d -> d >= 0. | None -> false);
      checkb "pid" true (num "pid" <> None);
      checkb "tid" true (num "tid" <> None))
    events;
  events

let test_chrome_export () =
  let _, root =
    Obs.Span.root ~name:"query" (fun () ->
        Obs.Span.with_ ~name:"parse" (fun () -> Obs.Span.annotate "triples" "3");
        Obs.Span.with_ ~name:"match" (fun () -> ()))
  in
  let events = check_chrome_trace (Obs.Span.to_chrome_json root) in
  checki "one event per span" 3 (List.length events);
  (* The root opens at ts 0; annotations ride along as args. *)
  let names =
    List.filter_map (fun ev -> Option.bind (Obs.Json.member "name" ev) Obs.Json.to_string) events
  in
  checkb "all spans exported" true
    (List.for_all (fun n -> List.mem n names) [ "query"; "parse"; "match" ]);
  checkb "args carry annotations" true
    (List.exists
       (fun ev ->
         match Obs.Json.member "args" ev with
         | Some args ->
             Option.bind (Obs.Json.member "triples" args) Obs.Json.to_string
             = Some "3"
         | None -> false)
       events)

let test_run_profile () =
  let e = Amber.Engine.build Fixtures.paper_triples in
  let r =
    Amber.Engine.run ~profile:true e (`Text Fixtures.paper_query_text)
  in
  let answer = Fixtures.rows_of r and p = Option.get r.Amber.Engine.profile in
  checkb "query answers" true (List.length answer.Amber.Engine.rows > 0);
  checki "rows recorded" (List.length answer.Amber.Engine.rows) p.Amber.Profile.rows;
  checkb "not truncated" false p.Amber.Profile.truncated;
  checkb "core order chosen" true (p.Amber.Profile.core_order <> []);
  checkb "vertices reported" true (p.Amber.Profile.vertices <> []);
  List.iter
    (fun v ->
      checkb
        ("refined <= structural for " ^ v.Amber.Profile.variable)
        true
        (v.Amber.Profile.refined <= v.Amber.Profile.structural))
    p.Amber.Profile.vertices;
  checkb "solutions counted" true (p.Amber.Profile.stats.Amber.Matcher.solutions > 0);
  let span = p.Amber.Profile.span in
  checks "root span" "query" (Obs.Span.name span);
  List.iter
    (fun phase ->
      checkb ("phase " ^ phase) true (Obs.Span.find span phase <> None))
    [ "parse"; "decompose"; "candidates"; "match"; "enumerate" ];
  let json = Amber.Profile.to_json p in
  checkb "json phases" true (contains json "\"phases\"");
  checkb "json vertices" true (contains json "\"vertices\"");
  let report = Format.asprintf "%a" Amber.Profile.pp p in
  checkb "report shows phases" true (contains report "match");
  checkb "report shows candidates" true (contains report "candidates")

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "log buckets" `Quick test_log_buckets;
        Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
        Alcotest.test_case "prometheus rendering" `Quick test_render_prometheus;
        Alcotest.test_case "json rendering" `Quick test_render_json;
        Alcotest.test_case "labeled metrics" `Quick test_labeled_metrics;
        Alcotest.test_case "label escaping" `Quick test_label_escaping;
        Alcotest.test_case "metrics from 4 domains at once" `Quick
          test_metrics_from_domains;
        Alcotest.test_case "json render roundtrip" `Quick test_json_render_roundtrip;
        Alcotest.test_case "json parser" `Quick test_json_parser;
        Alcotest.test_case "span tree" `Quick test_span_tree;
        Alcotest.test_case "span domain isolation" `Quick test_span_domain_isolation;
        Alcotest.test_case "chrome export" `Quick test_chrome_export;
        Alcotest.test_case "span passthrough" `Quick test_span_inactive_is_passthrough;
        Alcotest.test_case "span exception" `Quick test_span_exception;
        Alcotest.test_case "query profile" `Quick test_run_profile;
      ] );
  ]
