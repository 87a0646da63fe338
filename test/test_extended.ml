(* Tests for the extended SPARQL algebra (UNION / OPTIONAL / FILTER). *)

module Reference = Baselines.Reference_eval

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let x res = "http://dbpedia.org/resource/" ^ res
let y prop = "http://dbpedia.org/ontology/" ^ prop

let engine = lazy (Amber.Engine.build Fixtures.paper_triples)

(* Every SELECT through the algebra path: [Q_algebra] as parsed, a basic
   one lifted. *)
let run ?open_objects src =
  Fixtures.rows_of
    (Amber.Engine.run ?open_objects (Lazy.force engine)
       (`Parsed (Sparql.Parser.Q_algebra (Fixtures.algebra_query src))))

(* --- parsing ---------------------------------------------------------- *)

let test_parse_algebra_shapes () =
  let q = Fixtures.algebra_query in
  (match (q "SELECT * WHERE { { ?a <http://p> ?b } UNION { ?a <http://q> ?b } }").pattern with
  | Sparql.Algebra.Union (Sparql.Algebra.Bgp [ _ ], Sparql.Algebra.Bgp [ _ ]) -> ()
  | _ -> Alcotest.fail "expected a union of two BGPs");
  (match (q "SELECT * WHERE { ?a <http://p> ?b OPTIONAL { ?b <http://q> ?c } }").pattern with
  | Sparql.Algebra.Optional (Sparql.Algebra.Bgp [ _ ], Sparql.Algebra.Bgp [ _ ]) -> ()
  | _ -> Alcotest.fail "expected optional");
  (match (q "SELECT * WHERE { ?a <http://p> ?b . FILTER(?b != <http://x>) }").pattern with
  | Sparql.Algebra.Filter (Sparql.Algebra.E_neq _, Sparql.Algebra.Bgp [ _ ]) -> ()
  | _ -> Alcotest.fail "expected filter over bgp");
  (* Filters scope over the whole group regardless of position. *)
  match
    (q "SELECT * WHERE { FILTER(?b > 3) ?a <http://p> ?b . ?b <http://q> ?c }").pattern
  with
  | Sparql.Algebra.Filter (Sparql.Algebra.E_gt _, Sparql.Algebra.Bgp [ _; _ ]) -> ()
  | _ -> Alcotest.fail "expected filter wrapping the group"

let test_parse_expr_precedence () =
  match
    (Fixtures.algebra_query
       "SELECT * WHERE { ?a <http://p> ?b FILTER(?b = 1 || ?b = 2 && !BOUND(?c)) }")
      .pattern
  with
  | Sparql.Algebra.Filter
      ( Sparql.Algebra.E_or
          ( Sparql.Algebra.E_eq _,
            Sparql.Algebra.E_and (Sparql.Algebra.E_eq _, Sparql.Algebra.E_not _) ),
        _ ) ->
      ()
  | _ -> Alcotest.fail "|| must bind looser than &&"

let test_parse_errors () =
  let bad src =
    match Sparql.Parser.parse_any src with
    | exception Sparql.Parser.Error _ -> true
    | _ -> false
  in
  checkb "dangling union" true (bad "SELECT * WHERE { { ?a <http://p> ?b } UNION }");
  checkb "filter without parens" true (bad "SELECT * WHERE { FILTER ?a <http://p> ?b }");
  checkb "unclosed group" true (bad "SELECT * WHERE { ?a <http://p> ?b");
  checkb "bad operator" true (bad "SELECT * WHERE { ?a <http://p> ?b FILTER(?b & 1) }")

(* --- evaluation -------------------------------------------------------- *)

let test_basic_equivalence () =
  (* Without algebra operators the extended evaluator matches the basic
     engine. *)
  let src = Fixtures.paper_query_text in
  let basic = Fixtures.select (Lazy.force engine) src in
  let ext = run src in
  checkb "same rows" true
    (Reference.canonical_rows basic.Amber.Engine.rows
    = Reference.canonical_rows ext.Amber.Engine.rows)

let test_union () =
  let a =
    run
      (Printf.sprintf
         {|SELECT ?p WHERE {
             { ?p <%s> <%s> } UNION { ?p <%s> <%s> }
           }|}
         (y "wasBornIn") (x "London") (y "livedIn") (x "United_States"))
  in
  (* Born in London: Nolan, Amy. Lived in US: Amy, Blake — 4 rows. *)
  checki "union is a bag" 4 (List.length a.Amber.Engine.rows)

let test_union_three_way () =
  let a =
    run
      (Printf.sprintf
         {|SELECT ?p WHERE {
             { ?p <%s> <%s> } UNION { ?p <%s> <%s> } UNION { ?p <%s> <%s> }
           }|}
         (y "wasBornIn") (x "London") (y "diedIn") (x "London") (y "livedIn")
         (x "England"))
  in
  checki "three branches" 4 (List.length a.Amber.Engine.rows)

let test_optional_bound_and_unbound () =
  let a =
    run
      (Printf.sprintf
         {|SELECT ?p ?spouse WHERE {
             ?p <%s> <%s> .
             OPTIONAL { ?p <%s> ?spouse }
           }|}
         (y "wasBornIn") (x "London") (y "wasMarriedTo"))
  in
  checki "both birth rows survive" 2 (List.length a.Amber.Engine.rows);
  let bound, unbound =
    List.partition
      (fun row -> match row with [ _; Some _ ] -> true | _ -> false)
      a.Amber.Engine.rows
  in
  checki "amy has a spouse" 1 (List.length bound);
  checki "nolan survives unextended" 1 (List.length unbound)

let test_optional_with_filter_bound () =
  (* People born in London with no recorded marriage. *)
  let a =
    run
      (Printf.sprintf
         {|SELECT ?p WHERE {
             ?p <%s> <%s> .
             OPTIONAL { ?p <%s> ?spouse }
             FILTER(!BOUND(?spouse))
           }|}
         (y "wasBornIn") (x "London") (y "wasMarriedTo"))
  in
  (match a.Amber.Engine.rows with
  | [ [ Some (Rdf.Term.Iri iri) ] ] ->
      Alcotest.(check string) "nolan" (x "Christopher_Nolan") iri
  | _ -> Alcotest.fail "expected exactly nolan")

let test_filter_equality () =
  let a =
    run
      (Printf.sprintf
         {|SELECT ?a ?b WHERE { ?a <%s> ?c . ?b <%s> ?c . FILTER(?a != ?b) }|}
         (y "livedIn") (y "livedIn"))
  in
  (* livedIn pairs sharing a place: (Amy, Blake) both in US, both
     orders. *)
  checki "two distinct-pair rows" 2 (List.length a.Amber.Engine.rows)

let test_filter_numeric () =
  let src cmp =
    Printf.sprintf {|SELECT ?s WHERE { ?s <%s> ?c . FILTER(?c %s) }|}
      (y "hasCapacityOf") cmp
  in
  let count cmp =
    List.length (run ~open_objects:true (src cmp)).Amber.Engine.rows
  in
  checki ">= 90000 keeps wembley" 1 (count ">= 90000");
  checki "> 90000 drops it" 0 (count "> 90000");
  checki "< 100000 keeps it" 1 (count "< 100000");
  checki "= 90000 keeps it" 1 (count "= 90000")

let test_filter_regex () =
  let a =
    run
      (Printf.sprintf
         {|SELECT ?p WHERE { ?p <%s> ?c . FILTER(REGEX(?p, "Amy")) }|}
         (y "wasBornIn"))
  in
  checki "regex on IRI" 1 (List.length a.Amber.Engine.rows)

let test_filter_type_error_is_false () =
  (* Comparing an unbound variable never matches, instead of raising. *)
  let a =
    run
      (Printf.sprintf
         {|SELECT ?p WHERE { ?p <%s> ?c . FILTER(?ghost = 1) }|} (y "wasBornIn"))
  in
  checki "unbound comparison eliminates all" 0 (List.length a.Amber.Engine.rows)

let test_join_of_groups () =
  let a =
    run
      (Printf.sprintf
         {|SELECT ?p ?band WHERE {
             { ?p <%s> <%s> } { ?p <%s> ?band }
           }|}
         (y "diedIn") (x "London") (y "wasPartOf"))
  in
  checki "join across groups" 1 (List.length a.Amber.Engine.rows)

let test_limit_and_distinct () =
  let a =
    run
      (Printf.sprintf
         {|SELECT DISTINCT ?p WHERE {
             { ?p <%s> <%s> } UNION { ?p <%s> <%s> }
           } LIMIT 10|}
         (y "wasBornIn") (x "London") (y "diedIn") (x "London"))
  in
  (* Nolan, Amy (born), Amy (died) → distinct = 2. *)
  checki "distinct over union" 2 (List.length a.Amber.Engine.rows);
  let b =
    run
      (Printf.sprintf
         {|SELECT ?p WHERE {
             { ?p <%s> <%s> } UNION { ?p <%s> <%s> }
           } LIMIT 2|}
         (y "wasBornIn") (x "London") (y "diedIn") (x "London"))
  in
  checki "limit applies" 2 (List.length b.Amber.Engine.rows);
  checkb "truncated flag" true b.Amber.Engine.truncated

let test_timeout () =
  let big = Datagen.Lubm.generate ~universities:1 () in
  let e = Amber.Engine.build big in
  let src =
    "SELECT * WHERE { { ?a <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t } \
     UNION { ?b <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t } }"
  in
  match
    Amber.Engine.run ~timeout:0.0 e
      (`Parsed (Sparql.Parser.Q_algebra (Fixtures.algebra_query src)))
  with
  | exception Amber.Deadline.Expired -> ()
  | _ -> Alcotest.fail "expected Deadline.Expired"

let suite =
  [
    ( "sparql.algebra",
      [
        Alcotest.test_case "pattern shapes" `Quick test_parse_algebra_shapes;
        Alcotest.test_case "expression precedence" `Quick test_parse_expr_precedence;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
      ] );
    ( "amber.extended",
      [
        Alcotest.test_case "basic equivalence" `Quick test_basic_equivalence;
        Alcotest.test_case "union" `Quick test_union;
        Alcotest.test_case "three-way union" `Quick test_union_three_way;
        Alcotest.test_case "optional" `Quick test_optional_bound_and_unbound;
        Alcotest.test_case "optional + !bound" `Quick test_optional_with_filter_bound;
        Alcotest.test_case "filter equality" `Quick test_filter_equality;
        Alcotest.test_case "filter numeric" `Quick test_filter_numeric;
        Alcotest.test_case "filter regex" `Quick test_filter_regex;
        Alcotest.test_case "filter type error" `Quick test_filter_type_error_is_false;
        Alcotest.test_case "group join" `Quick test_join_of_groups;
        Alcotest.test_case "limit and distinct" `Quick test_limit_and_distinct;
        Alcotest.test_case "timeout" `Quick test_timeout;
      ] );
  ]
