(* ASK and CONSTRUCT query forms. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let x res = "http://dbpedia.org/resource/" ^ res
let y prop = "http://dbpedia.org/ontology/" ^ prop

let engine = lazy (Amber.Engine.build Fixtures.paper_triples)

let parse_any src = Sparql.Parser.parse_any src

let ask e ast =
  match (Amber.Engine.run e (`Parsed (Sparql.Parser.Q_ask ast))).Amber.Engine.result with
  | Amber.Engine.Boolean b -> b
  | Amber.Engine.Rows _ | Amber.Engine.Triples _ -> Alcotest.fail "expected a boolean"

let construct e src =
  match (Amber.Engine.run e (`Text src)).Amber.Engine.result with
  | Amber.Engine.Triples triples -> triples
  | Amber.Engine.Rows _ | Amber.Engine.Boolean _ -> Alcotest.fail "expected triples"

let test_parse_dispatch () =
  (match parse_any "SELECT ?x WHERE { ?x <http://p> ?y }" with
  | Sparql.Parser.Q_select _ -> ()
  | _ -> Alcotest.fail "expected select");
  (match parse_any "ASK { ?x <http://p> ?y }" with
  | Sparql.Parser.Q_ask _ -> ()
  | _ -> Alcotest.fail "expected ask");
  (match parse_any "ASK WHERE { ?x <http://p> ?y }" with
  | Sparql.Parser.Q_ask _ -> ()
  | _ -> Alcotest.fail "expected ask with WHERE");
  (match
     parse_any
       "PREFIX ex: <http://e/> CONSTRUCT { ?x ex:p ?y } WHERE { ?x ex:q ?y }"
   with
  | Sparql.Parser.Q_construct ([ _ ], ast) ->
      checki "one where pattern" 1 (List.length ast.Sparql.Ast.where)
  | _ -> Alcotest.fail "expected construct")

let test_parse_errors () =
  let bad src =
    match parse_any src with
    | exception Sparql.Parser.Error _ -> true
    | _ -> false
  in
  checkb "construct without where" true (bad "CONSTRUCT { ?x <http://p> ?y }");
  checkb "ask trailing garbage" true (bad "ASK { ?x <http://p> ?y } LIMIT 2")

let test_ask () =
  let e = Lazy.force engine in
  let ask src = ask e (Sparql.Parser.parse src) in
  checkb "positive" true
    (ask
       (Printf.sprintf "SELECT * WHERE { <%s> <%s> <%s> }" (x "London")
          (y "isPartOf") (x "England")));
  checkb "negative" false
    (ask
       (Printf.sprintf "SELECT * WHERE { ?a <%s> ?b . ?b <%s> ?a }"
          (y "wasMarriedTo") (y "wasMarriedTo")));
  checkb "unknown predicate is false" false
    (ask "SELECT * WHERE { ?a <http://nope> ?b }")

let test_construct_basics () =
  let e = Lazy.force engine in
  let triples =
    construct e
      (Printf.sprintf
         "CONSTRUCT { ?c <http://ex/home> ?p } WHERE { ?p <%s> ?c . ?p <%s> ?c }"
         (y "wasBornIn") (y "diedIn"))
  in
  checki "one triple" 1 (List.length triples);
  let t = List.hd triples in
  checkb "subject is london" true
    (Rdf.Term.equal t.Rdf.Triple.subject (Rdf.Term.iri (x "London")))

let test_construct_dedup_and_invalid () =
  let e = Lazy.force engine in
  (* ?c repeats across solutions -> the constant-shaped output triple
     must be emitted once; a literal subject must be skipped. *)
  let triples =
    construct e
      (Printf.sprintf
         {|CONSTRUCT { ?c <http://ex/seen> <http://ex/yes> . ?ghost <http://ex/x> ?c }
           WHERE { ?p <%s> ?c }|}
         (y "wasBornIn"))
  in
  (* Two solutions (Amy, Nolan) but one distinct ?c = London; the
     ?ghost pattern never instantiates. *)
  checki "dedup + skip unbound" 1 (List.length triples)

let test_construct_roundtrip () =
  (* CONSTRUCT output is a valid tripleset: load it into a new engine. *)
  let e = Lazy.force engine in
  let derived =
    construct e
      (Printf.sprintf
         "CONSTRUCT { ?p <http://ex/locatedEvent> ?c } WHERE { ?p <%s> ?c }"
         (y "wasBornIn"))
  in
  let e2 = Amber.Engine.build derived in
  let a =
    Fixtures.select e2 "SELECT * WHERE { ?p <http://ex/locatedEvent> ?c }"
  in
  checki "derived graph queryable" (List.length derived)
    (List.length a.Amber.Engine.rows)

(* Each form is recorded in its own syntax, and the record re-parses to
   the query that ran. *)
let test_flight_text () =
  let e = Lazy.force engine in
  Obs.Query_log.configure ~sample_rate:1.0 ~slow_threshold:None
    Obs.Query_log.default;
  let recorded src =
    Obs.Query_log.clear Obs.Query_log.default;
    ignore (Amber.Engine.run e (`Text src));
    match Obs.Query_log.recent Obs.Query_log.default with
    | [ r ] -> parse_any r.Obs.Query_log.query
    | records -> Alcotest.failf "expected one record, got %d" (List.length records)
  in
  let ask = Printf.sprintf "ASK { ?p <%s> ?c }" (y "wasBornIn") in
  checkb "ask" true (recorded ask = parse_any ask);
  let construct =
    Printf.sprintf
      "CONSTRUCT { ?c <http://ex/home> ?p . ?p <http://ex/t> ?c } WHERE { ?p <%s> ?c } LIMIT 1"
      (y "wasBornIn")
  in
  checkb "construct" true (recorded construct = parse_any construct)

let test_endpoint_forms () =
  let config = { Endpoint.default_config with timeout = Some 5.0 } in
  let handle target =
    Endpoint.handle_request config
      (Endpoint.Static (Lazy.force engine))
      ~meth:"GET" ~target ~headers:[] ~body:""
  in
  let encode s =
    let buf = Buffer.create (String.length s * 2) in
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Buffer.add_char buf c
        | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents buf
  in
  let status, ctype, body =
    handle
      ("/sparql?query="
      ^ encode
          (Printf.sprintf "ASK WHERE { ?p <%s> ?c }" (y "wasBornIn")))
  in
  checki "ask 200" 200 status;
  checkb "ask json" true (ctype = "application/sparql-results+json");
  checkb "boolean true" true (body = {|{"head":{},"boolean":true}|});
  let status, ctype, body =
    handle
      ("/sparql?query="
      ^ encode
          (Printf.sprintf
             "CONSTRUCT { ?p <http://ex/t> ?c } WHERE { ?p <%s> ?c }"
             (y "wasBornIn")))
  in
  checki "construct 200" 200 status;
  checkb "ntriples type" true (ctype = "application/n-triples");
  checkb "parses back" true
    (List.length (Rdf.Ntriples.parse_string body) = 2)

let suite =
  [
    ( "query-forms",
      [
        Alcotest.test_case "parse dispatch" `Quick test_parse_dispatch;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "ask" `Quick test_ask;
        Alcotest.test_case "construct basics" `Quick test_construct_basics;
        Alcotest.test_case "construct dedup/invalid" `Quick
          test_construct_dedup_and_invalid;
        Alcotest.test_case "construct roundtrip" `Quick test_construct_roundtrip;
        Alcotest.test_case "endpoint forms" `Quick test_endpoint_forms;
        Alcotest.test_case "flight record names the form" `Quick test_flight_text;
      ] );
  ]
