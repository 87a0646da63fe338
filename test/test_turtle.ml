(* Turtle reader tests. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let parse = Rdf.Turtle.parse_string

let test_basic_statement () =
  let ts = parse "<http://s> <http://p> <http://o> ." in
  checki "one triple" 1 (List.length ts);
  checks "subject" "<http://s>"
    (Rdf.Term.to_string (List.hd ts).Rdf.Triple.subject)

let test_prefix_forms () =
  let ts =
    parse
      {|@prefix ex: <http://example.org/> .
        PREFIX foo: <http://foo.org/>
        ex:a foo:b ex:c .|}
  in
  match ts with
  | [ { Rdf.Triple.subject = Rdf.Term.Iri s; predicate = Rdf.Term.Iri p; obj = Rdf.Term.Iri o } ] ->
      checks "subject expanded" "http://example.org/a" s;
      checks "predicate expanded" "http://foo.org/b" p;
      checks "object expanded" "http://example.org/c" o
  | _ -> Alcotest.fail "unexpected parse"

let test_empty_prefix () =
  let ts = parse {|@prefix : <http://d/> . :x :y :z .|} in
  checki "one triple" 1 (List.length ts);
  checks "default prefix" "<http://d/x>"
    (Rdf.Term.to_string (List.hd ts).Rdf.Triple.subject)

let test_semicolon_comma () =
  let ts =
    parse
      {|@prefix ex: <http://e/> .
        ex:s ex:p1 ex:o1 , ex:o2 ;
             ex:p2 ex:o3 ;
             .|}
  in
  checki "three triples" 3 (List.length ts)

let test_a_keyword () =
  let ts = parse {|@prefix ex: <http://e/> . ex:s a ex:C .|} in
  checks "a expands" "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    (Rdf.Term.to_string (List.hd ts).Rdf.Triple.predicate)

let test_literals () =
  let ts =
    parse
      {|@prefix ex: <http://e/> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        ex:s ex:str "hello" ;
             ex:lang "bonjour"@fr ;
             ex:typed "12"^^xsd:byte ;
             ex:int 42 ;
             ex:dec -3.5 ;
             ex:flag true .|}
  in
  checki "six triples" 6 (List.length ts);
  let objs =
    List.map
      (fun t ->
        match t.Rdf.Triple.obj with
        | Rdf.Term.Literal l -> l
        | _ -> Alcotest.fail "expected literal")
      ts
  in
  let nth i = List.nth objs i in
  checkb "plain" true ((nth 0).Rdf.Term.datatype = None);
  checkb "lang" true ((nth 1).lang = Some "fr");
  checks "typed" "http://www.w3.org/2001/XMLSchema#byte" (Option.get (nth 2).datatype);
  checks "integer" "42" (nth 3).value;
  checks "decimal" "-3.5" (nth 4).value;
  checks "boolean dt" "http://www.w3.org/2001/XMLSchema#boolean"
    (Option.get (nth 5).datatype)

let test_blank_nodes () =
  let ts =
    parse
      {|@prefix ex: <http://e/> .
        _:b ex:p ex:o .
        ex:s ex:q [ ex:r ex:t ; ex:u "v" ] .|}
  in
  (* 1 labelled + (2 inside the anon node) + 1 linking triple. *)
  checki "four triples" 4 (List.length ts);
  let anon_links =
    List.filter
      (fun t -> Rdf.Term.is_bnode t.Rdf.Triple.obj)
      ts
  in
  checki "one link to the anon node" 1 (List.length anon_links)

let test_base () =
  let ts = parse {|@base <http://base/> . <rel> <http://p> <other> .|} in
  match ts with
  | [ { Rdf.Triple.subject = Rdf.Term.Iri s; obj = Rdf.Term.Iri o; _ } ] ->
      checks "subject resolved" "http://base/rel" s;
      checks "object resolved" "http://base/other" o
  | _ -> Alcotest.fail "unexpected parse"

let test_comments () =
  let ts =
    parse "# leading comment\n<http://s> <http://p> <http://o> . # trailing\n"
  in
  checki "one triple" 1 (List.length ts)

let test_errors () =
  let bad src =
    match parse src with
    | exception Rdf.Turtle.Parse_error _ -> true
    | _ -> false
  in
  checkb "unbound prefix" true (bad "zz:a <http://p> <http://o> .");
  checkb "missing dot" true (bad "<http://s> <http://p> <http://o>");
  checkb "collection" true (bad "<http://s> <http://p> (1 2) .");
  checkb "triple quotes" true (bad {|<http://s> <http://p> """long""" .|});
  checkb "unknown directive" true (bad "@frobnicate <http://x> .");
  checkb "bare word" true (bad "<http://s> <http://p> banana .");
  (* Regression: a numeric literal in predicate position must be a
     Parse_error, not an escaped Triple.Invalid (found by fuzzing). *)
  checkb "literal predicate" true (bad "<http://s> 4 <http://o> .");
  checkb "literal predicate after semicolon" true
    (bad {|@prefix ex: <http://e/> . ex:a ex:p ex:b ;4ex:q "v" .|});
  checkb "bnode predicate" true (bad "<http://s> _:b <http://o> .")

let test_agreement_with_ntriples () =
  (* The paper fixture, serialized as N-Triples, is also valid Turtle. *)
  let nt = Rdf.Ntriples.to_string Fixtures.paper_triples in
  let via_turtle = parse nt in
  checkb "same triples" true
    (List.for_all2 Rdf.Triple.equal Fixtures.paper_triples via_turtle)

let test_engine_integration () =
  (* Load a Turtle document straight into AMbER. *)
  let ttl =
    {|@prefix ex: <http://e/> .
      ex:alice ex:knows ex:bob , ex:carol .
      ex:bob ex:knows ex:carol ;
             ex:age 33 .|}
  in
  let engine = Amber.Engine.build (parse ttl) in
  let a =
    Fixtures.select engine
      {|PREFIX ex: <http://e/>
        SELECT ?x WHERE { ex:alice ex:knows ?x . ?x ex:knows ex:carol . }|}
  in
  checki "bob found" 1 (List.length a.Amber.Engine.rows)

(* One escape decoder serves all three readers: "café" written with
   \u and \U escapes in a Turtle file, an N-Triples file and a SPARQL
   query is one literal, and the query finds its row. Every ECHAR
   decodes the same way too, and a malformed escape is an error that
   names its line (and, in a query, its column). *)
let test_escapes_agree () =
  let write ext text =
    let path = Filename.temp_file "escapes" ext in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let ttl =
    write ".ttl"
      {|@prefix ex: <http://ex/> .
ex:a ex:name "caf\u00E9" .
ex:b ex:note "t\tb\bn\nr\rf\f \"q\" \'s\' \\" .
|}
  in
  let nt =
    write ".nt"
      {|<http://ex/a> <http://ex/name> "caf\U000000e9" .
<http://ex/b> <http://ex/note> "t\tb\bn\nr\rf\f \"q\" \'s\' \\" .
|}
  in
  let from_ttl = Rdf.Turtle.parse_file ttl and from_nt = Rdf.Ntriples.parse_file nt in
  Sys.remove ttl;
  Sys.remove nt;
  let cafe = Rdf.Term.literal "caf\xC3\xA9" in
  checkb "decoded to UTF-8" true
    (List.exists (fun (t : Rdf.Triple.t) -> Rdf.Term.equal t.obj cafe) from_nt);
  checkb "ECHARs decoded" true
    (List.exists
       (fun (t : Rdf.Triple.t) ->
         Rdf.Term.equal t.obj (Rdf.Term.literal "t\tb\bn\nr\rf\012 \"q\" 's' \\"))
       from_nt);
  checkb "turtle = n-triples" true
    (List.sort Rdf.Triple.compare from_ttl = List.sort Rdf.Triple.compare from_nt);
  let answer =
    Fixtures.select (Amber.Engine.build from_ttl)
      {|SELECT ?s WHERE { ?s <http://ex/name> "caf\u00e9" }|}
  in
  checkb "query finds the row" true
    (answer.Amber.Engine.rows = [ [ Some (Rdf.Term.iri "http://ex/a") ] ]);
  (match parse "<http://s> <http://p> \"ok\" .\n<http://s> <http://p> \"\\u00G9\" ." with
  | exception Rdf.Turtle.Parse_error { line; _ } -> checki "turtle error line" 2 line
  | _ -> Alcotest.fail "bad hex digit accepted");
  (match Rdf.Ntriples.parse_line "<http://s> <http://p> \"\\uD800\" ." with
  | exception Rdf.Ntriples.Parse_error _ -> ()
  | _ -> Alcotest.fail "surrogate code point accepted");
  match Sparql.Parser.parse "SELECT * WHERE {\n  ?s <http://p> \"\\q\" }" with
  | exception Sparql.Parser.Error { line; col; _ } ->
      Alcotest.(check (pair int int)) "query error at the backslash" (2, 18) (line, col)
  | _ -> Alcotest.fail "unknown escape accepted"

let suite =
  [
    ( "rdf.turtle",
      [
        Alcotest.test_case "basic" `Quick test_basic_statement;
        Alcotest.test_case "prefix forms" `Quick test_prefix_forms;
        Alcotest.test_case "empty prefix" `Quick test_empty_prefix;
        Alcotest.test_case "semicolon/comma" `Quick test_semicolon_comma;
        Alcotest.test_case "a keyword" `Quick test_a_keyword;
        Alcotest.test_case "literal forms" `Quick test_literals;
        Alcotest.test_case "blank nodes" `Quick test_blank_nodes;
        Alcotest.test_case "base" `Quick test_base;
        Alcotest.test_case "comments" `Quick test_comments;
        Alcotest.test_case "errors" `Quick test_errors;
        Alcotest.test_case "ntriples compatibility" `Quick test_agreement_with_ntriples;
        Alcotest.test_case "engine integration" `Quick test_engine_integration;
        Alcotest.test_case "escapes agree" `Quick test_escapes_agree;
      ] );
  ]
