(* Static analyzer tests: one unit test per diagnostic kind on the
   paper's running example, engine wiring (unsat short-circuit), and
   a QCheck soundness property — every unsatisfiability proof is checked
   against the brute-force oracle, which must agree the answer set is
   empty. *)

let check_str = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let x res = "http://dbpedia.org/resource/" ^ res
let y prop = "http://dbpedia.org/ontology/" ^ prop

let engine = lazy (Amber.Engine.build Fixtures.paper_triples)

let analyze src =
  Amber.Engine.analyze (Lazy.force engine) (Fixtures.parse_query src)

(* The first unsat proof's stable kind slug, or "satisfiable". *)
let proof_kind report =
  match Amber.Analysis.unsat_proof report with
  | Some p -> Amber.Analysis.kind (Amber.Analysis.Unsat p)
  | None -> "satisfiable"

let warning_kinds report =
  List.map
    (fun w -> Amber.Analysis.kind (Amber.Analysis.Warning w))
    (Amber.Analysis.warnings report)

let hint_kinds report =
  List.map
    (fun h -> Amber.Analysis.kind (Amber.Analysis.Hint h))
    (Amber.Analysis.hints report)

(* --- unsatisfiability proofs ------------------------------------------ *)

let test_unknown_predicate () =
  check_str "unknown predicate" "unknown-predicate"
    (proof_kind
       (analyze
          (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b }|} (y "noSuch"))))

let test_predicate_never_links () =
  (* hasName only ever carries literals; demanding it between two
     resources is provably empty. *)
  check_str "attribute predicate used as an edge" "predicate-never-links"
    (proof_kind
       (analyze
          (Printf.sprintf {|SELECT * WHERE { ?a <%s> <%s> }|} (y "hasName")
             (x "England"))))

let test_out_of_fragment_downgrade () =
  (* Same predicate, but the object is a variable that could bind a
     literal: not provably empty under full BGP semantics, so the
     analyzer must only warn. *)
  let r =
    analyze (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?n }|} (y "hasName"))
  in
  check_str "no unsat proof" "satisfiable" (proof_kind r);
  checkb "out-of-fragment warning" true
    (List.mem "out-of-fragment" (warning_kinds r))

let test_unknown_iri () =
  let r =
    analyze
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> <%s> }|} (y "livedIn")
         (x "Nowhere"))
  in
  check_str "unknown object iri" "unknown-iri" (proof_kind r);
  (match Amber.Analysis.unsat_proof r with
  | Some (Amber.Analysis.Unknown_iri { position = `Object; _ }) -> ()
  | _ -> Alcotest.fail "expected object position");
  let r =
    analyze
      (Printf.sprintf {|SELECT * WHERE { <%s> <%s> ?a }|} (x "Nowhere")
         (y "livedIn"))
  in
  match Amber.Analysis.unsat_proof r with
  | Some (Amber.Analysis.Unknown_iri { position = `Subject; _ }) -> ()
  | _ -> Alcotest.fail "expected subject position"

let test_unknown_literal () =
  check_str "unknown (predicate, literal) pair" "unknown-literal"
    (proof_kind
       (analyze
          (Printf.sprintf {|SELECT * WHERE { ?a <%s> "No_Such_Band" }|}
             (y "hasName"))))

let test_ground_pattern_absent () =
  (* Every component exists, but Amy lived in the United States, not
     England. *)
  check_str "ground pattern absent" "ground-pattern-absent"
    (proof_kind
       (analyze
          (Printf.sprintf {|SELECT * WHERE { <%s> <%s> <%s> . <%s> <%s> ?w }|}
             (x "Amy_Winehouse") (y "livedIn") (x "England")
             (x "Amy_Winehouse") (y "wasBornIn"))))

let test_conflicting_literals () =
  (* Both (hasTag, "a") and (hasTag, "b") exist, on different vertices:
     demanding both on one vertex conflicts. *)
  let e =
    Amber.Engine.build
      [
        Rdf.Triple.spo "http://d/e1" "http://d/hasTag" (Rdf.Term.literal "a");
        Rdf.Triple.spo "http://d/e2" "http://d/hasTag" (Rdf.Term.literal "b");
        Rdf.Triple.spo "http://d/e1" "http://d/p" (Rdf.Term.iri "http://d/e2");
      ]
  in
  let r =
    Amber.Engine.analyze e
      (Fixtures.parse_query
         {|SELECT * WHERE { ?v <http://d/hasTag> "a" . ?v <http://d/hasTag> "b" }|})
  in
  check_str "conflicting equality constraints" "conflicting-literals"
    (proof_kind r)

let test_empty_attribute_intersection () =
  (* MCA_Band names the band, 90000 sizes the stadium: no vertex has
     both. *)
  check_str "empty attribute intersection" "empty-attribute-intersection"
    (proof_kind
       (analyze
          (Printf.sprintf
             {|SELECT * WHERE { ?v <%s> "MCA_Band" . ?v <%s> "90000" }|}
             (y "hasName") (y "hasCapacityOf"))))

let test_signature_infeasible () =
  (* Six distinct outgoing edge types; no data vertex has more than
     five (Amy Winehouse). Lemma 1 at compile time. *)
  check_str "signature exceeds synopsis maxima" "signature-infeasible"
    (proof_kind
       (analyze
          (Printf.sprintf
             {|SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?c . ?a <%s> ?d .
                                ?a <%s> ?e . ?a <%s> ?f . ?a <%s> ?g }|}
             (y "wasBornIn") (y "diedIn") (y "wasPartOf") (y "livedIn")
             (y "wasMarriedTo") (y "isPartOf"))))

let test_multi_edge_too_wide () =
  (* Three parallel predicates between one pair; the widest data
     multi-edge (Amy -> London) carries two. *)
  check_str "query multi-edge wider than any data multi-edge"
    "multi-edge-too-wide"
    (proof_kind
       (analyze
          (Printf.sprintf
             {|SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?b . ?a <%s> ?b }|}
             (y "wasBornIn") (y "diedIn") (y "livedIn"))))

let test_iri_constraint_infeasible () =
  (* hasCapital only ever points at London; nothing links to
     WembleyStadium that way. *)
  check_str "no neighbour of the constant satisfies the edge"
    "iri-constraint-infeasible"
    (proof_kind
       (analyze
          (Printf.sprintf {|SELECT * WHERE { ?a <%s> <%s> }|} (y "hasCapital")
             (x "WembleyStadium"))))

(* --- warnings and hints ------------------------------------------------ *)

let test_disconnected_components () =
  let r =
    analyze
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?c <%s> ?d }|}
         (y "livedIn") (y "wasBornIn"))
  in
  checkb "disconnected warning" true
    (List.mem "disconnected-components" (warning_kinds r))

let test_unprojected_satellite () =
  let r =
    analyze
      (Printf.sprintf {|SELECT ?a WHERE { ?a <%s> ?b . ?a <%s> ?c }|}
         (y "wasBornIn") (y "livedIn"))
  in
  checkb "unprojected satellite" true
    (List.mem "unprojected-satellite" (warning_kinds r))

let test_unbound_select_variable () =
  let r =
    analyze
      (Printf.sprintf {|SELECT ?z WHERE { ?a <%s> ?b }|} (y "livedIn"))
  in
  checkb "unbound select variable" true
    (List.mem "unbound-select-variable" (warning_kinds r))

let test_duplicate_pattern () =
  let r =
    analyze
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?b }|}
         (y "livedIn") (y "livedIn"))
  in
  checkb "duplicate warning" true
    (List.mem "duplicate-pattern" (warning_kinds r));
  checkb "drop hint" true (List.mem "drop-duplicate-pattern" (hint_kinds r))

let test_order_by_unbound_and_limit_zero () =
  let r =
    analyze
      (Printf.sprintf
         {|SELECT ?a WHERE { ?a <%s> ?b } ORDER BY ?nope LIMIT 0|}
         (y "livedIn"))
  in
  checkb "order-by hint" true (List.mem "order-by-unbound" (hint_kinds r));
  checkb "limit-zero hint" true (List.mem "limit-zero" (hint_kinds r))

let test_clean_report () =
  let r = analyze Fixtures.paper_query_text in
  check_str "paper query is satisfiable" "satisfiable" (proof_kind r);
  checki "no warnings" 0 (List.length (Amber.Analysis.warnings r))

let test_json_shape () =
  let r =
    analyze (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b }|} (y "noSuch"))
  in
  let json = Amber.Analysis.report_to_json r in
  let contains sub =
    let n = String.length sub and h = String.length json in
    let rec loop i = i + n <= h && (String.sub json i n = sub || loop (i + 1)) in
    loop 0
  in
  checkb "unsat flag" true (contains {|"unsat":true|});
  checkb "kind slug" true (contains {|"kind":"unknown-predicate"|});
  checkb "severity" true (contains {|"severity":"error"|})

(* --- engine wiring ----------------------------------------------------- *)

let test_unsat_short_circuit () =
  let e = Lazy.force engine in
  let ast =
    Fixtures.parse_query
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?a <%s> <%s> }|}
         (y "livedIn") (y "hasCapital") (x "WembleyStadium"))
  in
  check_str "proven unsat" "iri-constraint-infeasible"
    (proof_kind (Amber.Engine.analyze e ast));
  let screened = Amber.Engine.query e ast in
  checki "screened answer is empty" 0 (List.length screened.Amber.Engine.rows);
  Alcotest.(check (list string))
    "projected variables" (Sparql.Ast.selected_variables ast)
    screened.Amber.Engine.variables;
  checkb "not truncated" false screened.Amber.Engine.truncated

let test_profile_carries_report () =
  let e = Lazy.force engine in
  let ast =
    Fixtures.parse_query
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b }|} (y "noSuch"))
  in
  let r = Amber.Engine.run ~profile:true e (`Parsed (Sparql.Parser.Q_select ast)) in
  checki "no rows" 0 (List.length (Fixtures.rows_of r).Amber.Engine.rows);
  check_str "proof in profile" "unknown-predicate"
    (proof_kind (Option.get r.Amber.Engine.profile).Amber.Profile.analysis)

(* --- QCheck soundness against the oracle ------------------------------- *)

(* Same graph family as the differential harness (disjoint edge/literal
   predicate sorts), kept separate so the two suites evolve
   independently. *)
let random_triples seed =
  let rng = Datagen.Prng.create (0xa11a + seed) in
  let n = 8 + Datagen.Prng.int rng 12 in
  let e i = Printf.sprintf "http://d/e%d" i in
  let p i = Printf.sprintf "http://d/p%d" i in
  let lp i = Printf.sprintf "http://d/lp%d" i in
  let triples = ref [] in
  for _ = 1 to 25 + Datagen.Prng.int rng 40 do
    triples :=
      Rdf.Triple.spo
        (e (Datagen.Prng.int rng n))
        (p (Datagen.Prng.int rng 4))
        (Rdf.Term.iri (e (Datagen.Prng.int rng n)))
      :: !triples
  done;
  for v = 0 to n - 1 do
    if Datagen.Prng.bool rng 0.5 then
      triples :=
        Rdf.Triple.spo (e v)
          (lp (Datagen.Prng.int rng 2))
          (Rdf.Term.literal (Printf.sprintf "w%d" (Datagen.Prng.int rng 3)))
        :: !triples
  done;
  !triples

(* Mutations that often (not always) make a query unsatisfiable; the
   property only uses UNSAT verdicts, so harmless mutations just shrink
   coverage, never soundness. *)
let mutate rng ast =
  match ast.Sparql.Ast.where with
  | [] -> ast
  | patterns ->
      let i = Datagen.Prng.int rng (List.length patterns) in
      let lit_w9 =
        match Rdf.Term.literal "w9" with
        | Rdf.Term.Literal l -> l
        | _ -> assert false
      in
      let mutated =
        List.mapi
          (fun j (pat : Sparql.Ast.triple_pattern) ->
            if j <> i then pat
            else
              match Datagen.Prng.int rng 3 with
              | 0 -> { pat with predicate = Sparql.Ast.Iri "http://d/p9" }
              | 1 -> { pat with obj = Sparql.Ast.Lit lit_w9 }
              | _ -> { pat with obj = Sparql.Ast.Iri "http://d/e999" })
          patterns
      in
      { ast with Sparql.Ast.where = mutated }

let queries_for seed triples =
  let rng = Datagen.Prng.create (0xbee + seed) in
  let corpus = Datagen.Workload.corpus triples in
  let base =
    Datagen.Workload.generate ~seed corpus ~shape:Datagen.Workload.Star ~size:3
      ~count:2
    @ Datagen.Workload.generate ~seed:(seed + 500) corpus
        ~shape:Datagen.Workload.Complex ~size:4 ~count:2
  in
  List.map
    (fun ast -> if Datagen.Prng.bool rng 0.6 then mutate rng ast else ast)
    base

let unsat_verdicts = ref 0

let check_soundness seed triples ast =
  let e = Amber.Engine.build triples in
  let report = Amber.Engine.analyze e ast in
  match Amber.Analysis.unsat_proof report with
  | None -> true
  | Some proof ->
      incr unsat_verdicts;
      let oracle = Baselines.Reference_eval.canonical_answer triples ast in
      let answer = Amber.Engine.query e ast in
      if oracle <> [] then
        QCheck.Test.fail_reportf
          "seed %d: UNSAT proof but the oracle finds %d row(s).@.proof: %s@.%s"
          seed (List.length oracle)
          (Amber.Analysis.proof_to_string proof)
          (Sparql.Ast.to_string ast)
      else if answer.Amber.Engine.rows <> [] then
        QCheck.Test.fail_reportf
          "seed %d: UNSAT proof but the engine returns %d row(s) on:@.%s" seed
          (List.length answer.Amber.Engine.rows)
          (Sparql.Ast.to_string ast)
      else true

let prop_soundness =
  QCheck.Test.make ~name:"UNSAT proofs imply zero oracle rows" ~count:60
    (QCheck.make
       ~print:(fun seed ->
         let triples = random_triples seed in
         Printf.sprintf "seed %d (%d triples):\n%s" seed (List.length triples)
           (String.concat "\n"
              (List.map Sparql.Ast.to_string (queries_for seed triples))))
       ~shrink:QCheck.Shrink.int
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let triples = random_triples seed in
      List.for_all (check_soundness seed triples) (queries_for seed triples))

(* Guards the property against vacuity: with 60 seeds and a 60% mutation
   rate the analyzer must have proven a healthy number of queries
   empty. *)
let test_unsat_coverage () =
  Alcotest.(check bool)
    (Printf.sprintf "soundness property exercised %d UNSAT proofs (>= 20)"
       !unsat_verdicts)
    true
    (!unsat_verdicts >= 20)

let suite =
  [
    ( "amber.analysis",
      [
        Alcotest.test_case "unknown predicate" `Quick test_unknown_predicate;
        Alcotest.test_case "predicate never links" `Quick
          test_predicate_never_links;
        Alcotest.test_case "out-of-fragment downgrade" `Quick
          test_out_of_fragment_downgrade;
        Alcotest.test_case "unknown iri" `Quick test_unknown_iri;
        Alcotest.test_case "unknown literal" `Quick test_unknown_literal;
        Alcotest.test_case "ground pattern absent" `Quick
          test_ground_pattern_absent;
        Alcotest.test_case "conflicting literals" `Quick
          test_conflicting_literals;
        Alcotest.test_case "empty attribute intersection" `Quick
          test_empty_attribute_intersection;
        Alcotest.test_case "signature infeasible" `Quick
          test_signature_infeasible;
        Alcotest.test_case "multi-edge too wide" `Quick
          test_multi_edge_too_wide;
        Alcotest.test_case "iri constraint infeasible" `Quick
          test_iri_constraint_infeasible;
        Alcotest.test_case "disconnected components" `Quick
          test_disconnected_components;
        Alcotest.test_case "unprojected satellite" `Quick
          test_unprojected_satellite;
        Alcotest.test_case "unbound select variable" `Quick
          test_unbound_select_variable;
        Alcotest.test_case "duplicate pattern" `Quick test_duplicate_pattern;
        Alcotest.test_case "order-by / limit hints" `Quick
          test_order_by_unbound_and_limit_zero;
        Alcotest.test_case "clean report" `Quick test_clean_report;
        Alcotest.test_case "json shape" `Quick test_json_shape;
        Alcotest.test_case "unsat short-circuit" `Quick
          test_unsat_short_circuit;
        Alcotest.test_case "profile carries report" `Quick
          test_profile_carries_report;
      ] );
    ( "amber.analysis.soundness",
      [
        QCheck_alcotest.to_alcotest prop_soundness;
        Alcotest.test_case "unsat coverage >= 20" `Quick test_unsat_coverage;
      ] );
  ]
