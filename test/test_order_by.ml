(* ORDER BY / OFFSET tests: parsing, term ordering semantics, and
   agreement across the engines (ordered comparison, not set). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let x res = "http://dbpedia.org/resource/" ^ res
let y prop = "http://dbpedia.org/ontology/" ^ prop

let engine = lazy (Amber.Engine.build Fixtures.paper_triples)

(* --- parsing ------------------------------------------------------- *)

let test_parse_modifiers () =
  let q =
    Sparql.Parser.parse
      "SELECT ?a WHERE { ?a <http://p> ?b } ORDER BY ?a DESC(?b) ASC(?a) LIMIT 5 OFFSET 3"
  in
  checkb "keys" true
    (q.Sparql.Ast.order_by
    = [ ("a", Sparql.Ast.Asc); ("b", Sparql.Ast.Desc); ("a", Sparql.Ast.Asc) ]);
  Alcotest.(check (option int)) "limit" (Some 5) q.limit;
  Alcotest.(check (option int)) "offset" (Some 3) q.offset;
  (* OFFSET before LIMIT also accepted. *)
  let q2 =
    Sparql.Parser.parse "SELECT ?a WHERE { ?a <http://p> ?b } OFFSET 1 LIMIT 2"
  in
  Alcotest.(check (option int)) "offset first" (Some 1) q2.offset;
  Alcotest.(check (option int)) "then limit" (Some 2) q2.limit

let test_parse_errors () =
  let bad src =
    match Sparql.Parser.parse_result src with Error _ -> true | Ok _ -> false
  in
  checkb "ORDER without BY" true (bad "SELECT ?a WHERE { ?a <http://p> ?b } ORDER ?a");
  checkb "empty key list" true (bad "SELECT ?a WHERE { ?a <http://p> ?b } ORDER BY LIMIT 2");
  checkb "DESC without parens" true
    (bad "SELECT ?a WHERE { ?a <http://p> ?b } ORDER BY DESC ?a")

let test_pp_roundtrip () =
  let q =
    Sparql.Parser.parse
      "SELECT ?a WHERE { ?a <http://p> ?b } ORDER BY DESC(?a) LIMIT 4 OFFSET 2"
  in
  let q2 = Sparql.Parser.parse (Sparql.Ast.to_string q) in
  checkb "modifiers survive printing" true
    (q2.Sparql.Ast.order_by = q.Sparql.Ast.order_by
    && q2.limit = q.limit && q2.offset = q.offset)

(* --- term ordering --------------------------------------------------- *)

let test_order_compare () =
  let lt a b = Rdf.Term.order_compare a b < 0 in
  checkb "bnode < iri" true (lt (Rdf.Term.bnode "z") (Rdf.Term.iri "http://a"));
  checkb "iri < literal" true (lt (Rdf.Term.iri "http://z") (Rdf.Term.literal "a"));
  checkb "numeric literals numeric" true
    (lt (Rdf.Term.literal "9") (Rdf.Term.literal "10"));
  checkb "strings lexicographic" true
    (lt (Rdf.Term.literal "10a") (Rdf.Term.literal "9a"))

(* --- engine behaviour ------------------------------------------------- *)

let ordered_rows src =
  (Fixtures.select (Lazy.force engine) src).Amber.Engine.rows

let first_iri row =
  match row with
  | Some (Rdf.Term.Iri i) :: _ -> i
  | _ -> Alcotest.fail "expected an IRI in column 1"

let test_engine_order_asc_desc () =
  let src dir =
    Printf.sprintf {|SELECT ?p ?c WHERE { ?p <%s> ?c } ORDER BY %s|}
      (y "livedIn")
      (match dir with `Asc -> "?p" | `Desc -> "DESC(?p)")
  in
  let asc = List.map first_iri (ordered_rows (src `Asc)) in
  let desc = List.map first_iri (ordered_rows (src `Desc)) in
  checki "three rows" 3 (List.length asc);
  checkb "ascending sorted" true (asc = List.sort compare asc);
  checkb "desc is reverse of asc" true (desc = List.rev asc)

let test_engine_offset_limit () =
  let base =
    Printf.sprintf {|SELECT ?p WHERE { ?p <%s> ?c } ORDER BY ?p|} (y "livedIn")
  in
  let all = List.map first_iri (ordered_rows base) in
  let page =
    List.map first_iri (ordered_rows (base ^ " LIMIT 1 OFFSET 1"))
  in
  checkb "second page" true (page = [ List.nth all 1 ]);
  (* offset past the end *)
  checki "offset beyond end" 0 (List.length (ordered_rows (base ^ " OFFSET 9")));
  (* offset without order *)
  let no_order =
    Printf.sprintf {|SELECT ?p WHERE { ?p <%s> ?c } OFFSET 2|} (y "livedIn")
  in
  checki "plain offset drops rows" 1 (List.length (ordered_rows no_order))

let test_engines_agree_on_order () =
  let src =
    Printf.sprintf
      {|SELECT ?p ?c WHERE { ?p <%s> ?c } ORDER BY DESC(?c) ?p LIMIT 3|}
      (y "wasBornIn")
  in
  let ast = Fixtures.parse_query src in
  let amber_rows =
    (Amber.Engine.query (Lazy.force engine) ast).Amber.Engine.rows
  in
  let run (type e) (module E : Baselines.Engine_sig.S with type t = e) =
    let store = E.load Fixtures.paper_triples in
    (E.query store ast).Baselines.Answer.rows
  in
  List.iter
    (fun rows -> checkb "identical ordered rows" true (rows = amber_rows))
    [
      run (module Baselines.Triple_store);
      run (module Baselines.Column_store);
      run (module Baselines.Nested_loop);
      run (module Baselines.Sig_store);
    ]

let test_extended_order () =
  let a =
    Fixtures.select (Lazy.force engine)
      (Printf.sprintf
         {|SELECT ?p WHERE {
             { ?p <%s> <%s> } UNION { ?p <%s> <%s> }
           } ORDER BY ?p OFFSET 1 LIMIT 2|}
         (y "wasBornIn") (x "London") (y "livedIn") (x "United_States"))
  in
  let names = List.map first_iri a.Amber.Engine.rows in
  checkb "sorted page" true (names = List.sort compare names);
  checki "two rows" 2 (List.length names)

let test_order_with_unbound () =
  (* Selected-but-unbound variables sort lowest and do not crash. *)
  let a =
    Fixtures.select (Lazy.force engine)
      (Printf.sprintf {|SELECT ?ghost ?p WHERE { ?p <%s> ?c } ORDER BY ?ghost ?p|}
         (y "livedIn"))
  in
  checki "rows survive" 3 (List.length a.Amber.Engine.rows)

let suite =
  [
    ( "sparql.order_by",
      [
        Alcotest.test_case "parse modifiers" `Quick test_parse_modifiers;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip;
        Alcotest.test_case "term order" `Quick test_order_compare;
      ] );
    ( "amber.order_by",
      [
        Alcotest.test_case "asc/desc" `Quick test_engine_order_asc_desc;
        Alcotest.test_case "offset+limit" `Quick test_engine_offset_limit;
        Alcotest.test_case "engines agree" `Quick test_engines_agree_on_order;
        Alcotest.test_case "extended" `Quick test_extended_order;
        Alcotest.test_case "unbound keys" `Quick test_order_with_unbound;
      ] );
  ]
