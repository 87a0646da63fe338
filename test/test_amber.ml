(* Tests for the AMbER core: database transformation, indexes, query
   graph construction, decomposition, matching, engine answers. *)

module Reference = Baselines.Reference_eval

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let check_arr = Alcotest.(check (array int))

let x res = "http://dbpedia.org/resource/" ^ res
let y prop = "http://dbpedia.org/ontology/" ^ prop

let db () = Amber.Database.of_triples Fixtures.paper_triples
let engine () = Amber.Engine.build Fixtures.paper_triples
let default_opts = Amber.Engine.Opts.default

let vertex d name =
  Option.get (Amber.Database.vertex_of_term d (Rdf.Term.iri (x name)))

(* --- Database ------------------------------------------------------- *)

let test_database_stats () =
  let d = db () in
  checki "9 vertices" 9 (Amber.Database.vertex_count d);
  checki "9 edge types" 9 (Amber.Database.edge_type_count d);
  checki "3 attributes" 3 (Amber.Database.attribute_count d);
  checki "16 triples" 16 (Amber.Database.triple_count d);
  let g = Amber.Database.graph d in
  checki "13 atomic edges" 13 (Mgraph.Multigraph.triple_edge_count g);
  (* Amy->London carries {wasBornIn, diedIn}: 12 multi-edges. *)
  checki "12 multi-edges" 12 (Mgraph.Multigraph.multi_edge_count g)

let test_database_mappings () =
  let d = db () in
  let v = vertex d "London" in
  checks "inverse vertex" ("<" ^ x "London" ^ ">")
    (Rdf.Term.to_string (Amber.Database.term_of_vertex d v));
  checkb "edge type known" true
    (Amber.Database.edge_type_of_iri d (y "isPartOf") <> None);
  checkb "literal pred has no edge type" true
    (Amber.Database.edge_type_of_iri d (y "hasName") = None);
  let attr =
    Amber.Database.attribute_of d ~pred:(y "hasName")
      ~lit:{ Rdf.Term.value = "MCA_Band"; datatype = None; lang = None }
  in
  checkb "attribute known" true (attr <> None);
  let pred, lit = Amber.Database.attribute_data d (Option.get attr) in
  checks "attribute pred" (y "hasName") pred;
  checks "attribute literal" "MCA_Band" lit.Rdf.Term.value

let test_database_attributes_fold () =
  let d = db () in
  let g = Amber.Database.graph d in
  let wembley = vertex d "WembleyStadium" in
  checki "wembley attr count" 1 (Array.length (Mgraph.Multigraph.attributes g wembley));
  let band = vertex d "Music_Band" in
  checki "band attr count" 2 (Array.length (Mgraph.Multigraph.attributes g band));
  let lits =
    Amber.Database.literals_of d ~vertex:band ~pred:(y "hasName")
  in
  checki "hasName literal" 1 (List.length lits)

let test_database_bnodes () =
  let triples =
    [
      Rdf.Triple.make (Rdf.Term.bnode "b0") (Rdf.Term.iri "http://p")
        (Rdf.Term.iri "http://o");
    ]
  in
  let d = Amber.Database.of_triples triples in
  let v = Option.get (Amber.Database.vertex_of_term d (Rdf.Term.bnode "b0")) in
  checkb "bnode roundtrip" true
    (Rdf.Term.equal (Amber.Database.term_of_vertex d v) (Rdf.Term.bnode "b0"))

(* --- Attribute index ------------------------------------------------ *)

let test_attribute_index () =
  let d = db () in
  let idx = Amber.Attribute_index.build d in
  checki "three inverted lists" 3 (Amber.Attribute_index.attribute_count idx);
  let a1 =
    Option.get
      (Amber.Database.attribute_of d ~pred:(y "hasName")
         ~lit:{ Rdf.Term.value = "MCA_Band"; datatype = None; lang = None })
  in
  let a2 =
    Option.get
      (Amber.Database.attribute_of d ~pred:(y "foundedIn")
         ~lit:{ Rdf.Term.value = "1994"; datatype = None; lang = None })
  in
  check_arr "hasName list" [| vertex d "Music_Band" |]
    (Mgraph.Posting.to_array (Amber.Attribute_index.vertices_with idx a1));
  check_arr "common candidates (paper u5)" [| vertex d "Music_Band" |]
    (Mgraph.Posting.to_array
       (Amber.Attribute_index.candidates idx
          (Mgraph.Sorted_ints.of_list [ a1; a2 ])))

(* --- Synopsis index -------------------------------------------------- *)

(* The synopsis index answers exactly the vertices whose synopsis, as
   recomputed from the graph ([Mgraph.Synopsis.of_vertex]), dominates
   the query — a brute force independent of the stored synopses — on a
   frozen index, on a delta overlay of it, and on an overlay of that
   overlay which deletes edges of both layers. *)
let test_synopsis_index_modes_agree () =
  let check_against_graph label idx graph =
    let n = Mgraph.Multigraph.vertex_count graph in
    let recomputed = Array.init n (Mgraph.Synopsis.of_vertex graph) in
    let brute query =
      let out = ref [] in
      for v = n - 1 downto 0 do
        if Mgraph.Synopsis.dominates ~data:recomputed.(v) ~query then
          out := v :: !out
      done;
      Array.of_list !out
    in
    let fixed =
      List.map Mgraph.Synopsis.of_signature
        [
          Mgraph.Signature.make ~incoming:[] ~outgoing:[ [| 2 |] ];
          Mgraph.Signature.make ~incoming:[ [| 2; 5 |] ] ~outgoing:[];
          Mgraph.Signature.make ~incoming:[] ~outgoing:[];
          Mgraph.Signature.make ~incoming:[ [| 1 |]; [| 7 |] ] ~outgoing:[ [| 0 |] ];
        ]
    in
    checki (label ^ ": vertex count") n (Amber.Synopsis_index.vertex_count idx);
    (* Every vertex's own synopsis as a query: at least that vertex. *)
    List.iter
      (fun query ->
        let got = Amber.Synopsis_index.candidates idx query in
        check_arr (label ^ ": scan = brute force over the graph") (brute query) got;
        Array.iteri
          (fun v data ->
            checkb (label ^ ": dominates = brute force")
              (Mgraph.Synopsis.dominates ~data ~query)
              (Amber.Synopsis_index.dominates idx v query))
          recomputed)
      (fixed @ Array.to_list recomputed)
  in
  let is_overlay idx =
    match Amber.Synopsis_index.packed idx with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let d = db () in
  check_against_graph "base" (Amber.Synopsis_index.build d) (Amber.Database.graph d);
  let live = Amber.Live_engine.of_engine (Amber.Engine.build Fixtures.paper_triples) in
  let check_epoch label ep =
    let e = Amber.Live_engine.engine ep in
    let idx = Amber.Engine.synopsis_index e in
    checkb (label ^ ": the update built an overlay") true (is_overlay idx);
    check_against_graph label idx (Amber.Database.graph (Amber.Engine.db e))
  in
  let added = Rdf.Triple.spo (x "London") (y "diedIn") (Rdf.Term.iri (x "New_Band")) in
  check_epoch "overlay"
    (Amber.Live_engine.update live
       ~adds:
         [
           Rdf.Triple.spo (x "New_Band") (y "wasBornIn") (Rdf.Term.iri (x "London"));
           added;
         ]
       ~dels:[]);
  check_epoch "overlay of an overlay"
    (Amber.Live_engine.update live
       ~adds:[]
       ~dels:
         [
           added;
           Rdf.Triple.spo (x "Amy_Winehouse") (y "wasBornIn") (Rdf.Term.iri (x "London"));
           Rdf.Triple.spo (x "London") (y "isPartOf") (Rdf.Term.iri (x "England"));
         ])

let test_synopsis_index_prunes () =
  let d = db () in
  let idx = Amber.Synopsis_index.build d in
  (* Incoming {wasBornIn=2, diedIn=5} as one multi-edge: only London. *)
  let cands =
    Amber.Synopsis_index.candidates_of_signature idx
      (Mgraph.Signature.make ~incoming:[ [| 2; 5 |] ] ~outgoing:[])
  in
  check_arr "only london" [| vertex d "London" |] cands

(* --- Neighbourhood index --------------------------------------------- *)

let test_neighbourhood_index () =
  let d = db () in
  let idx = Amber.Neighbourhood_index.build d in
  let london = vertex d "London" in
  (* Paper's example: who wasBornIn London? *)
  let born =
    Amber.Neighbourhood_index.neighbours idx london Mgraph.Multigraph.In [| 2 |]
  in
  check_arr "born in london"
    (Mgraph.Sorted_ints.of_list
       [ vertex d "Christopher_Nolan"; vertex d "Amy_Winehouse" ])
    (Mgraph.Posting.to_array born);
  (* Multi-edge superset: wasBornIn AND diedIn. *)
  let both =
    Amber.Neighbourhood_index.neighbours idx london Mgraph.Multigraph.In [| 2; 5 |]
  in
  check_arr "born and died" [| vertex d "Amy_Winehouse" |]
    (Mgraph.Posting.to_array both);
  let out =
    Amber.Neighbourhood_index.neighbours idx london Mgraph.Multigraph.Out [| 0 |]
  in
  check_arr "london isPartOf" [| vertex d "England" |]
    (Mgraph.Posting.to_array out)

(* --- Query graph ------------------------------------------------------ *)

let build_q ?open_objects src =
  match Amber.Query_graph.build ?open_objects (db ()) (Fixtures.parse_query src) with
  | Amber.Query_graph.Query q -> q
  | Amber.Query_graph.Unsatisfiable { proof; _ } ->
      Alcotest.failf "unexpectedly unsat: %s"
        (Amber.Analysis.proof_to_string proof)

let test_query_graph_paper () =
  let q = build_q Fixtures.paper_query_text in
  checki "7 variable vertices" 7 (Amber.Query_graph.vertex_count q);
  let u name = Option.get (Amber.Query_graph.vertex_of_var q name) in
  (* Degrees per the paper's decomposition (Fig. 4). *)
  checki "deg X1" 5 (Amber.Query_graph.degree q (u "X1"));
  checki "deg X3" 4 (Amber.Query_graph.degree q (u "X3"));
  checki "deg X5" 2 (Amber.Query_graph.degree q (u "X5"));
  checki "deg X0" 1 (Amber.Query_graph.degree q (u "X0"));
  checki "deg X2" 1 (Amber.Query_graph.degree q (u "X2"));
  checki "deg X4" 1 (Amber.Query_graph.degree q (u "X4"));
  checki "deg X6" 1 (Amber.Query_graph.degree q (u "X6"));
  (* X3 -> X1 multi-edge carries {wasBornIn, diedIn}. *)
  (match Amber.Query_graph.multi_edges_between q (u "X3") (u "X1") with
  | [ (Mgraph.Multigraph.Out, types) ] -> check_arr "X3->X1 types" [| 2; 5 |] types
  | _ -> Alcotest.fail "expected single Out multi-edge");
  (* X1 <-> X2 has edges both ways. *)
  checki "X1/X2 two directions" 2
    (List.length (Amber.Query_graph.multi_edges_between q (u "X1") (u "X2")));
  (* X5 carries the two attributes, X4 one. *)
  checki "X5 attrs" 2 (Array.length q.Amber.Query_graph.attrs.(u "X5"));
  checki "X4 attrs" 1 (Array.length q.Amber.Query_graph.attrs.(u "X4"));
  (* X3 has the United_States IRI constraint. *)
  (match q.Amber.Query_graph.iris.(u "X3") with
  | [ { Amber.Query_graph.dir = Mgraph.Multigraph.Out; types; data_vertex } ] ->
      check_arr "livedIn constraint" [| 3 |] types;
      checki "target is US" (vertex (db ()) "United_States") data_vertex
  | _ -> Alcotest.fail "expected one IRI constraint on X3")

let test_query_graph_unsat () =
  let unsat src =
    match Amber.Query_graph.build (db ()) (Fixtures.parse_query src) with
    | Amber.Query_graph.Unsatisfiable _ -> true
    | Amber.Query_graph.Query _ -> false
  in
  checkb "unknown predicate" true
    (unsat "SELECT * WHERE { ?a <http://nope> ?b }");
  checkb "unknown literal" true
    (unsat
       (Printf.sprintf {|SELECT * WHERE { ?a <%s> "no-such-band" }|} (y "hasName")));
  checkb "unknown iri" true
    (unsat
       (Printf.sprintf {|SELECT * WHERE { ?a <%s> <http://nowhere> }|} (y "livedIn")));
  checkb "failed ground pattern" true
    (unsat
       (Printf.sprintf {|SELECT * WHERE { <%s> <%s> <%s> }|} (x "England")
          (y "isPartOf") (x "London")));
  checkb "holding ground pattern" false
    (unsat
       (Printf.sprintf {|SELECT * WHERE { <%s> <%s> <%s> }|} (x "London")
          (y "isPartOf") (x "England")))

let test_query_graph_unsupported () =
  let raises src =
    match Amber.Query_graph.build (db ()) (Fixtures.parse_query src) with
    | exception Amber.Query_graph.Unsupported _ -> true
    | _ -> false
  in
  checkb "variable predicate" true (raises "SELECT * WHERE { ?a ?p ?b }")

let test_query_graph_self_loop () =
  let q =
    build_q (Printf.sprintf "SELECT * WHERE { ?a <%s> ?a }" (y "isPartOf"))
  in
  let u = Option.get (Amber.Query_graph.vertex_of_var q "a") in
  check_arr "self loop recorded" [| 0 |] q.Amber.Query_graph.self_loops.(u);
  let s = Amber.Query_graph.signature q u in
  checki "loop on both sides" 2
    (List.length s.Mgraph.Signature.incoming + List.length s.Mgraph.Signature.outgoing)

let test_query_graph_open_objects () =
  let src = Printf.sprintf "SELECT * WHERE { ?b <%s> ?n }" (y "hasName") in
  (* Faithful mode: hasName never links two vertices -> unsatisfiable. *)
  (match Amber.Query_graph.build (db ()) (Fixtures.parse_query src) with
  | Amber.Query_graph.Unsatisfiable _ -> ()
  | _ -> Alcotest.fail "expected unsat in faithful mode");
  (* Extension: the pattern is lifted. *)
  let q = build_q ~open_objects:true src in
  checki "one open object" 1 (List.length q.Amber.Query_graph.opens);
  checki "only the subject is a graph vertex" 1 (Amber.Query_graph.vertex_count q)

(* --- Decompose -------------------------------------------------------- *)

let test_decompose_paper () =
  let q = build_q Fixtures.paper_query_text in
  let plan = Amber.Decompose.plan q in
  let u name = Option.get (Amber.Query_graph.vertex_of_var q name) in
  let is_core name = plan.Amber.Decompose.is_core.(u name) in
  checkb "X1 core" true (is_core "X1");
  checkb "X3 core" true (is_core "X3");
  checkb "X5 core" true (is_core "X5");
  checkb "X0 satellite" false (is_core "X0");
  checkb "X2 satellite" false (is_core "X2");
  checkb "X4 satellite" false (is_core "X4");
  checkb "X6 satellite" false (is_core "X6");
  checki "one component" 1 (Array.length plan.Amber.Decompose.components);
  let order = plan.Amber.Decompose.components.(0).Amber.Decompose.core_order in
  (* r1(X1)=3 satellites; X1 first. X3 adjacent with r1=1; then X5. *)
  check_arr "paper ordering" [| u "X1"; u "X3"; u "X5" |] order;
  checki "X1 satellites" 3 (List.length plan.Amber.Decompose.satellites_of.(u "X1"));
  checki "X3 satellites" 1 (List.length plan.Amber.Decompose.satellites_of.(u "X3"));
  checki "X6 anchored to X3" (u "X3") plan.Amber.Decompose.anchor_of.(u "X6")

let test_decompose_single_edge () =
  let q = build_q (Printf.sprintf "SELECT * WHERE { ?a <%s> ?b }" (y "isPartOf")) in
  let plan = Amber.Decompose.plan q in
  let cores =
    Array.to_list plan.Amber.Decompose.is_core
    |> List.filter (fun b -> b)
    |> List.length
  in
  checki "exactly one promoted core" 1 cores

let test_decompose_components () =
  let q =
    build_q
      (Printf.sprintf
         "SELECT * WHERE { ?a <%s> ?b . ?c <%s> ?d . ?c <%s> ?e }" (y "isPartOf")
         (y "wasBornIn") (y "livedIn"))
  in
  let plan = Amber.Decompose.plan q in
  checki "two components" 2 (Array.length plan.Amber.Decompose.components)

let test_decompose_strategies () =
  let q = build_q Fixtures.paper_query_text in
  List.iter
    (fun strategy ->
      let plan = Amber.Decompose.plan ~strategy q in
      let order = plan.Amber.Decompose.components.(0).Amber.Decompose.core_order in
      checki "all cores ordered" 3 (Array.length order))
    [ Amber.Decompose.Paper; Amber.Decompose.By_degree; Amber.Decompose.Arbitrary ]

(* --- Engine: answers --------------------------------------------------- *)

let answer_set src =
  let a = Fixtures.select (engine ()) src in
  Reference.canonical_rows
    (List.map (fun row -> row) a.Amber.Engine.rows)

let reference_set src =
  Reference.canonical_answer Fixtures.paper_triples (Fixtures.parse_query src)

let check_against_reference name src =
  Alcotest.(check (list (list string))) name (reference_set src) (answer_set src)

let test_engine_paper_query () =
  let a = Fixtures.select (engine ()) Fixtures.paper_query_text in
  (* X0 ∈ {Amy, Nolan}; everything else is pinned. *)
  checki "two embeddings" 2 (List.length a.Amber.Engine.rows);
  check_against_reference "matches reference" Fixtures.paper_query_text

let test_engine_star_query () =
  check_against_reference "star"
    (Printf.sprintf
       {|SELECT * WHERE { ?p <%s> ?c . ?p <%s> ?c2 . ?p <%s> ?b }|}
       (y "wasBornIn") (y "diedIn") (y "wasPartOf"))

let test_engine_homomorphism_no_injectivity () =
  (* ?c and ?c2 may map to the same data vertex (London twice). *)
  check_against_reference "non-injective"
    (Printf.sprintf {|SELECT * WHERE { ?p <%s> ?c . ?p <%s> ?c2 }|}
       (y "wasBornIn") (y "diedIn"))

let test_engine_ground_query () =
  let a =
    Fixtures.select (engine ())
      (Printf.sprintf {|SELECT * WHERE { <%s> <%s> <%s> }|} (x "London")
         (y "isPartOf") (x "England"))
  in
  checki "one empty row" 1 (List.length a.Amber.Engine.rows)

let test_engine_cycle_query () =
  check_against_reference "2-cycle"
    (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?b <%s> ?a }|}
       (y "isPartOf") (y "hasCapital"))

let test_engine_attribute_query () =
  check_against_reference "attributes pin X5"
    (Printf.sprintf
       {|SELECT * WHERE { ?band <%s> "MCA_Band" . ?band <%s> "1994" . ?band <%s> ?city }|}
       (y "hasName") (y "foundedIn") (y "wasFormedIn"))

let test_engine_iri_constraint_query () =
  check_against_reference "IRI constraint"
    (Printf.sprintf {|SELECT * WHERE { ?p <%s> <%s> . ?p <%s> ?spouse }|}
       (y "livedIn") (x "United_States") (y "wasMarriedTo"))

let test_engine_distinct_and_limit () =
  let src =
    Printf.sprintf {|SELECT DISTINCT ?c WHERE { ?p <%s> ?c . ?p <%s> ?c2 }|}
      (y "wasBornIn") (y "diedIn")
  in
  let a = Fixtures.select (engine ()) src in
  checki "distinct collapses" 1 (List.length a.Amber.Engine.rows);
  let src_l =
    Printf.sprintf {|SELECT ?p WHERE { ?p <%s> ?c } LIMIT 1|} (y "wasBornIn")
  in
  let a = Fixtures.select (engine ()) src_l in
  checki "limit 1" 1 (List.length a.Amber.Engine.rows);
  checkb "marked truncated" true a.Amber.Engine.truncated

let test_engine_disconnected_query () =
  check_against_reference "cartesian of components"
    (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?c <%s> ?d }|}
       (y "hasStadium") (y "wasMarriedTo"))

let test_engine_selected_var_not_in_where () =
  let a =
    Fixtures.select (engine ())
      (Printf.sprintf {|SELECT ?ghost WHERE { ?a <%s> ?b }|} (y "hasStadium"))
  in
  checkb "unbound column" true
    (List.for_all (fun row -> row = [ None ]) a.Amber.Engine.rows)

let test_engine_empty_answer () =
  let a =
    Fixtures.select (engine ())
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?b <%s> ?a }|}
         (y "wasMarriedTo") (y "wasMarriedTo"))
  in
  checki "no symmetric marriage" 0 (List.length a.Amber.Engine.rows)

let test_engine_self_loop_query () =
  (* No self loops in the data: empty. And on a graph with one, matches. *)
  let a =
    Fixtures.select (engine ())
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?a }|} (y "isPartOf"))
  in
  checki "no loops in paper data" 0 (List.length a.Amber.Engine.rows);
  let loop_engine =
    Amber.Engine.build
      (Rdf.Triple.spo "http://n" "http://p" (Rdf.Term.iri "http://n")
      :: Fixtures.paper_triples)
  in
  let a =
    Fixtures.select loop_engine
      {|SELECT * WHERE { ?a <http://p> ?a }|}
  in
  checki "loop found" 1 (List.length a.Amber.Engine.rows)

let test_engine_open_objects () =
  let src =
    Printf.sprintf {|SELECT ?n WHERE { ?band <%s> "1994" . ?band <%s> ?n }|}
      (y "foundedIn") (y "hasName")
  in
  (* Faithful mode: no binding for a literal-only predicate. *)
  let a = Fixtures.select (engine ()) src in
  checki "faithful: empty" 0 (List.length a.Amber.Engine.rows);
  (* Extension: the literal binding appears. *)
  let a = Fixtures.select ~open_objects:true (engine ()) src in
  (match a.Amber.Engine.rows with
  | [ [ Some (Rdf.Term.Literal { value; _ }) ] ] -> checks "name" "MCA_Band" value
  | _ -> Alcotest.fail "expected one literal binding");
  (* Extension on a predicate with IRI objects returns those too. *)
  let src_iri =
    Printf.sprintf {|SELECT ?w WHERE { ?p <%s> <%s> . ?p <%s> ?w }|}
      (y "diedIn") (x "London") (y "livedIn")
  in
  let a = Fixtures.select ~open_objects:true (engine ()) src_iri in
  checki "IRI binding via open object" 1 (List.length a.Amber.Engine.rows)

let test_engine_timeout () =
  (* A deadline in the past must raise. *)
  let big = Datagen.Lubm.generate ~universities:1 () in
  let e = Amber.Engine.build big in
  let star =
    "SELECT * WHERE { ?a <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t . \
     ?b <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t . ?c \
     <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t }"
  in
  match Fixtures.select ~timeout:0.0 e star with
  | exception Amber.Deadline.Expired -> ()
  | _ -> Alcotest.fail "expected Deadline.Expired"

let test_engine_count_embeddings () =
  let e = engine () in
  let count src = Amber.Engine.count_embeddings e (Fixtures.parse_query src) in
  checki "paper query count" 2 (count Fixtures.paper_query_text);
  checki "unsat count" 0 (count "SELECT * WHERE { ?a <http://nope> ?b }");
  let star =
    Printf.sprintf {|SELECT * WHERE { ?p <%s> ?c . ?p <%s> ?c2 }|} (y "wasBornIn")
      (y "diedIn")
  in
  checki "star count equals rows" 1 (count star)

let test_engine_ordering_strategies_agree () =
  List.iter
    (fun strategy ->
      let a =
        Amber.Engine.query
          ~opts:{ default_opts with order = Some strategy }
          (engine ())
          (Fixtures.parse_query Fixtures.paper_query_text)
      in
      checki "same row count" 2 (List.length a.Amber.Engine.rows))
    [ Amber.Decompose.Paper; Amber.Decompose.By_degree; Amber.Decompose.Arbitrary ]

let test_engine_satellites_ablation () =
  (* Disabling the core/satellite decomposition must not change answers. *)
  List.iter
    (fun src ->
      let with_sats = answer_set src in
      let a =
        Amber.Engine.query
          ~opts:{ default_opts with satellites = false }
          (engine ()) (Fixtures.parse_query src)
      in
      checkb "ablation agrees" true
        (Reference.canonical_rows a.Amber.Engine.rows = with_sats))
    [
      Fixtures.paper_query_text;
      Printf.sprintf {|SELECT * WHERE { ?p <%s> ?c . ?p <%s> ?c2 . ?p <%s> ?b }|}
        (y "wasBornIn") (y "diedIn") (y "wasPartOf");
      Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?b <%s> ?a }|} (y "isPartOf")
        (y "hasCapital");
    ]

let test_engine_explain () =
  let e = engine () in
  (* Pin the paper's plan over the verbatim clause: the rewriter would
     constant-fold the literal satellites (?X4, ?X5 are data-forced)
     and legitimately change the core; it has its own suite. *)
  (match
     Amber.Engine.explain
       ~opts:{ default_opts with plan = Amber.Stats.Paper; rewrite = false }
       e
       (Fixtures.parse_query Fixtures.paper_query_text)
   with
  | Amber.Engine.Plan
      { plan_mode = "paper"; components = [ steps ]; open_objects = []; _ } ->
      let vars = List.map (fun s -> s.Amber.Engine.variable) steps in
      checkb "paper core order" true (vars = [ "X1"; "X3"; "X5" ]);
      let first = List.hd steps in
      checki "X1 anchors three satellites" 3
        (List.length first.Amber.Engine.satellite_vars);
      (match first.Amber.Engine.initial_candidates with
      | Some n -> checkb "some but few initial candidates" true (n >= 1 && n <= 3)
      | None -> Alcotest.fail "expected |C_init| on the first step");
      checkb "later steps have no C_init" true
        (List.for_all
           (fun s -> s.Amber.Engine.initial_candidates = None)
           (List.tl steps))
  | _ -> Alcotest.fail "expected a one-component plan");
  (match Amber.Engine.explain e (Fixtures.parse_query "SELECT * WHERE { ?a <http://nope> ?b }") with
  | Amber.Engine.Unsat _ -> ()
  | _ -> Alcotest.fail "expected Unsat");
  (* pp smoke test *)
  let text =
    Format.asprintf "%a" Amber.Engine.pp_explanation
      (Amber.Engine.explain e (Fixtures.parse_query Fixtures.paper_query_text))
  in
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
    loop 0
  in
  checkb "pp mentions X1" true (contains text "?X1")

let test_engine_parallel () =
  let e = engine () in
  (* Identical answers, rows and order, across domain counts. *)
  List.iter
    (fun src ->
      let ast = Fixtures.parse_query src in
      let sequential = Amber.Engine.query e ast in
      List.iter
        (fun domains ->
          let parallel =
            Amber.Engine.query ~opts:{ default_opts with domains } e ast
          in
          checkb
            (Printf.sprintf "parallel=%d matches sequential" domains)
            true
            (parallel.Amber.Engine.rows = sequential.Amber.Engine.rows))
        [ 1; 2; 4 ])
    [
      Fixtures.paper_query_text;
      Printf.sprintf {|SELECT * WHERE { ?p <%s> ?c . ?p <%s> ?c2 }|} (y "wasBornIn")
        (y "diedIn");
      Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?c <%s> ?d }|} (y "hasStadium")
        (y "wasMarriedTo");
      "SELECT * WHERE { ?a <http://nope> ?b }";
    ];
  (* A larger dataset run with several domains, against the adapter. *)
  let triples = Datagen.Lubm.generate ~universities:1 () in
  let big = Amber.Engine.build triples in
  let ub l = "http://swat.lehigh.edu/onto/univ-bench.owl#" ^ l in
  let ast =
    Fixtures.parse_query
      (Printf.sprintf
         "SELECT * WHERE { ?s <%s> ?prof . ?prof <%s> ?dept . ?s <%s> ?dept }"
         (ub "advisor") (ub "worksFor") (ub "memberOf"))
  in
  let seq = Amber.Engine.query big ast in
  let par = Amber.Engine.query ~opts:{ default_opts with domains = 4 } big ast in
  checkb "lubm parallel agrees" true (par.Amber.Engine.rows = seq.Amber.Engine.rows);
  (* Timeout propagates. *)
  match
    Amber.Engine.query ~opts:{ default_opts with domains = 2 } ~timeout:0.0 big ast
  with
  | exception Amber.Deadline.Expired -> ()
  | _ -> Alcotest.fail "expected Deadline.Expired"

let test_engine_stats () =
  let e = engine () in
  (* The counters below assume the paper's decomposition of the verbatim
     clause; the rewriter would constant-fold ?X4/?X5 first. *)
  let a, stats =
    Amber.Engine.query_with_stats ~opts:{ default_opts with rewrite = false } e
      (Fixtures.parse_query Fixtures.paper_query_text)
  in
  checki "two rows" 2 (List.length a.Amber.Engine.rows);
  (* One core solution (London/Amy/Music_Band), satellites Cartesian. *)
  checki "one core solution" 1 stats.Amber.Matcher.solutions;
  checkb "index probed" true (stats.Amber.Matcher.index_probes > 0);
  checkb "candidates scanned" true (stats.Amber.Matcher.candidates_scanned >= 1);
  (* Unsatisfiable query: all counters zero. *)
  let _, empty_stats =
    Amber.Engine.query_with_stats e
      (Fixtures.parse_query "SELECT * WHERE { ?a <http://nope> ?b }")
  in
  checki "no probes on unsat" 0 empty_stats.Amber.Matcher.index_probes;
  checki "no solutions on unsat" 0 empty_stats.Amber.Matcher.solutions

(* The one options vocabulary of the CLI and the endpoint: every
   accepted spelling, the domains clamp, and every rejection with its
   text. *)
let test_opts_parse () =
  let module O = Amber.Engine.Opts in
  let d = O.default in
  let accepts =
    [
      ("plan=paper", O.parse ~plan:"paper" d, { d with plan = Amber.Stats.Paper });
      ( "plan=adaptive",
        O.parse ~plan:"adaptive" { d with plan = Amber.Stats.Paper },
        d );
      ( "plan=forced:attrs",
        O.parse ~plan:"forced:attrs" d,
        { d with plan = Amber.Stats.(Forced Attrs) } );
      ( "plan=forced:scan",
        O.parse ~plan:"forced:scan" d,
        { d with plan = Amber.Stats.(Forced Scan) } );
      ("domains=4", O.parse ~domains:"4" d, { d with domains = 4 });
      ("domains=8", O.parse ~domains:"8" d, { d with domains = 8 });
      ("domains=99 clamps", O.parse ~domains:"99" d, { d with domains = 8 });
      ("domains=0 clamps", O.parse ~domains:"0" d, { d with domains = 1 });
      ("domains=-3 clamps", O.parse ~domains:"-3" d, { d with domains = 1 });
      ( "nothing given keeps the base",
        O.parse { d with domains = 3 },
        { d with domains = 3 } );
      ( "all three at once",
        O.parse ~plan:"paper" ~rewrite:"off" ~domains:"2" d,
        { d with plan = Amber.Stats.Paper; rewrite = false; domains = 2 } );
    ]
    @ List.map
        (fun (v, b) ->
          ( "rewrite=" ^ v,
            O.parse ~rewrite:v { d with rewrite = not b },
            { d with rewrite = b } ))
        [
          ("on", true); ("true", true); ("1", true); ("yes", true); ("ON", true);
          ("off", false); ("false", false); ("0", false); ("no", false); ("Off", false);
        ]
  in
  List.iter (fun (label, got, want) -> checkb label true (got = Ok want)) accepts;
  let plan_error v =
    Printf.sprintf
      "unknown plan %S (expected paper, adaptive or forced:<attrs|scan>)" v
  in
  let rewrite_error v = Printf.sprintf "unknown rewrite %S (expected on or off)" v in
  let domains_error v =
    Printf.sprintf "unknown domains %S (expected an integer, clamped to 1..8)" v
  in
  List.iter
    (fun (got, want) ->
      Alcotest.(check (result reject string)) want (Error want)
        (Result.map ignore got))
    [
      (O.parse ~plan:"bogus" d, plan_error "bogus");
      (O.parse ~plan:"forced:" d, plan_error "forced:");
      (O.parse ~plan:"forced:bogus" d, plan_error "forced:bogus");
      (O.parse ~plan:"" d, plan_error "");
      (O.parse ~rewrite:"maybe" d, rewrite_error "maybe");
      (O.parse ~rewrite:"" d, rewrite_error "");
      (O.parse ~domains:"lots" d, domains_error "lots");
      (O.parse ~domains:"2.5" d, domains_error "2.5");
      (O.parse ~domains:"" d, domains_error "");
      (O.parse ~plan:"paper" ~domains:"lots" d, domains_error "lots");
    ]

(* Seeding by the synopsis scan under the cardinality-driven order
   answers like the paper plan (r1/r2 order), on one engine. *)
let test_engine_scan_seeding_agrees () =
  let e = engine () in
  let rows plan =
    (Fixtures.select ~opts:{ default_opts with plan } e Fixtures.paper_query_text)
      .Amber.Engine.rows
  in
  let scan = rows Amber.Stats.(Forced Scan) in
  checki "scan seeding: two embeddings" 2 (List.length scan);
  checkb "scan seeding = paper plan" true (scan = rows Amber.Stats.Paper);
  checkb "plan slugs round-trip" true
    (List.for_all
       (fun m -> Amber.Stats.(mode_of_string (mode_to_string m)) = Some m)
       Amber.Stats.[ Paper; Adaptive; Forced Attrs; Forced Scan ]);
  checkb "forced:rtree is an unknown plan" true
    (Amber.Stats.mode_of_string "forced:rtree" = None)

let suite =
  [
    ( "amber.database",
      [
        Alcotest.test_case "stats" `Quick test_database_stats;
        Alcotest.test_case "mappings" `Quick test_database_mappings;
        Alcotest.test_case "attributes" `Quick test_database_attributes_fold;
        Alcotest.test_case "bnodes" `Quick test_database_bnodes;
      ] );
    ( "amber.indexes",
      [
        Alcotest.test_case "attribute index" `Quick test_attribute_index;
        Alcotest.test_case "synopsis modes agree" `Quick test_synopsis_index_modes_agree;
        Alcotest.test_case "synopsis prunes" `Quick test_synopsis_index_prunes;
        Alcotest.test_case "neighbourhood index" `Quick test_neighbourhood_index;
      ] );
    ( "amber.query_graph",
      [
        Alcotest.test_case "paper query" `Quick test_query_graph_paper;
        Alcotest.test_case "unsatisfiable" `Quick test_query_graph_unsat;
        Alcotest.test_case "unsupported" `Quick test_query_graph_unsupported;
        Alcotest.test_case "self loop" `Quick test_query_graph_self_loop;
        Alcotest.test_case "open objects" `Quick test_query_graph_open_objects;
      ] );
    ( "amber.decompose",
      [
        Alcotest.test_case "paper decomposition" `Quick test_decompose_paper;
        Alcotest.test_case "single edge" `Quick test_decompose_single_edge;
        Alcotest.test_case "components" `Quick test_decompose_components;
        Alcotest.test_case "strategies" `Quick test_decompose_strategies;
      ] );
    ( "amber.engine",
      [
        Alcotest.test_case "paper query" `Quick test_engine_paper_query;
        Alcotest.test_case "star" `Quick test_engine_star_query;
        Alcotest.test_case "homomorphism" `Quick test_engine_homomorphism_no_injectivity;
        Alcotest.test_case "ground" `Quick test_engine_ground_query;
        Alcotest.test_case "cycle" `Quick test_engine_cycle_query;
        Alcotest.test_case "attributes" `Quick test_engine_attribute_query;
        Alcotest.test_case "iri constraint" `Quick test_engine_iri_constraint_query;
        Alcotest.test_case "distinct and limit" `Quick test_engine_distinct_and_limit;
        Alcotest.test_case "disconnected" `Quick test_engine_disconnected_query;
        Alcotest.test_case "unbound selected var" `Quick test_engine_selected_var_not_in_where;
        Alcotest.test_case "empty answer" `Quick test_engine_empty_answer;
        Alcotest.test_case "self loop" `Quick test_engine_self_loop_query;
        Alcotest.test_case "open objects" `Quick test_engine_open_objects;
        Alcotest.test_case "timeout" `Quick test_engine_timeout;
        Alcotest.test_case "count embeddings" `Quick test_engine_count_embeddings;
        Alcotest.test_case "ordering strategies" `Quick test_engine_ordering_strategies_agree;
        Alcotest.test_case "satellites ablation" `Quick test_engine_satellites_ablation;
        Alcotest.test_case "explain" `Quick test_engine_explain;
        Alcotest.test_case "parallel query" `Quick test_engine_parallel;
        Alcotest.test_case "search statistics" `Quick test_engine_stats;
        Alcotest.test_case "synopsis scan mode" `Quick test_engine_scan_seeding_agrees;
        Alcotest.test_case "options vocabulary" `Quick test_opts_parse;
      ] );
  ]
