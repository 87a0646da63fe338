(* Semantic query rewriter tests: one unit test per pass on the paper's
   running example, adversarial no-op cases where a removal would change
   answers, engine wiring (binding re-attachment, profile/explain
   carriage, the ?rewrite toggle end to end), and JSON slug stability. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_str = Alcotest.(check string)

let x res = "http://dbpedia.org/resource/" ^ res
let y prop = "http://dbpedia.org/ontology/" ^ prop

let engine = lazy (Amber.Engine.build Fixtures.paper_triples)

let apply ?(open_objects = false) src =
  let e = Lazy.force engine in
  Amber.Rewrite.apply ~open_objects ~db:(Amber.Engine.db e)
    ~attribute:(Amber.Engine.attribute_index e)
    ~stats:(lazy (Amber.Engine.statistics e))
    (Fixtures.parse_query src)

let slugs_of (o : Amber.Rewrite.outcome) = Amber.Rewrite.slugs o.steps
let where_len (o : Amber.Rewrite.outcome) = List.length o.ast.Sparql.Ast.where

let canonical ~rewrite ast =
  Baselines.Reference_eval.canonical_rows
    (Amber.Engine.query ~opts:{ Amber.Engine.Opts.default with rewrite }
       (Lazy.force engine) ast)
      .Amber.Engine.rows

(* Rewriting must be invisible in the canonical answer set — asserted by
   every test below on top of its structural expectations. *)
let check_identity src =
  let ast = Fixtures.parse_query src in
  Alcotest.(check (list (list string)))
    "rewrite on/off answers agree"
    (canonical ~rewrite:false ast)
    (canonical ~rewrite:true ast)

(* --- the passes -------------------------------------------------------- *)

let test_duplicate_removed () =
  let src =
    Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?b }|} (y "livedIn")
      (y "livedIn")
  in
  let o = apply src in
  checkb "duplicate-pattern step" true
    (List.mem "duplicate-pattern" (slugs_of o));
  checki "one pattern left" 1 (where_len o);
  check_identity src

let test_core_minimization_fires () =
  (* ?b and ?c are unprotected under DISTINCT ?a; folding ?c into ?b
     maps the clause into itself minus the second pattern. *)
  let src =
    Printf.sprintf {|SELECT DISTINCT ?a WHERE { ?a <%s> ?b . ?a <%s> ?c }|}
      (y "livedIn") (y "livedIn")
  in
  let o = apply src in
  checkb "core-minimization step" true
    (List.mem "core-minimization" (slugs_of o));
  checki "one pattern left" 1 (where_len o);
  check_identity src

let test_minimization_needs_distinct () =
  (* Same clause without DISTINCT: removal would change embedding
     multiplicities, so the pass must not run. *)
  let src =
    Printf.sprintf {|SELECT ?a WHERE { ?a <%s> ?b . ?a <%s> ?c }|}
      (y "livedIn") (y "livedIn")
  in
  let o = apply src in
  checkb "no core-minimization" false
    (List.mem "core-minimization" (slugs_of o));
  checki "both patterns survive" 2 (where_len o)

let test_select_star_protects_everything () =
  let src =
    Printf.sprintf {|SELECT DISTINCT * WHERE { ?a <%s> ?b . ?a <%s> ?c }|}
      (y "livedIn") (y "livedIn")
  in
  let o = apply src in
  checkb "no core-minimization" false
    (List.mem "core-minimization" (slugs_of o));
  checki "both patterns survive" 2 (where_len o)

let test_constant_propagation () =
  (* Only London isPartOf England, so ?m is data-forced. *)
  let src =
    Printf.sprintf {|SELECT ?m ?p WHERE { ?m <%s> <%s> . ?p <%s> ?m }|}
      (y "isPartOf") (x "England") (y "wasBornIn")
  in
  let o = apply src in
  checkb "constant-propagation step" true
    (List.mem "constant-propagation" (slugs_of o));
  checkb "?m bound to London" true
    (List.assoc_opt "m" o.bindings = Some (Rdf.Term.iri (x "London")));
  checkb "?m gone from the clause" true
    (not (List.mem "m" (Sparql.Ast.variables o.ast)));
  check_identity src

let test_constant_propagation_literal () =
  (* The (hasName, "MCA_Band") posting has exactly one vertex. *)
  let src =
    Printf.sprintf {|SELECT ?v ?w WHERE { ?v <%s> "MCA_Band" . ?v <%s> ?w }|}
      (y "hasName") (y "wasFormedIn")
  in
  let o = apply src in
  checkb "constant-propagation step" true
    (List.mem "constant-propagation" (slugs_of o));
  checkb "?v bound to Music_Band" true
    (List.assoc_opt "v" o.bindings = Some (Rdf.Term.iri (x "Music_Band")));
  check_identity src

let test_open_objects_skips_adjacency_singleton () =
  (* <England> hasCapital ?c is forced in the faithful model. With open
     objects the rewriter runs hint-only: literal bindings there are
     selected by clause shape (occurrence counts, ground vs variable
     subject), so mutating the clause could change answers. (A second
     variable keeps the clause from going fully ground, which would
     veto the substitution in the faithful case.) *)
  let src =
    Printf.sprintf {|SELECT ?c ?s WHERE { <%s> <%s> ?c . ?c <%s> ?s }|}
      (x "England") (y "hasCapital") (y "hasStadium")
  in
  checkb "faithful model propagates" true
    (List.mem "constant-propagation" (slugs_of (apply src)));
  let o = apply ~open_objects:true src in
  checkb "open objects must not" false
    (List.mem "constant-propagation" (slugs_of o));
  checki "open objects leaves the clause untouched" 2 (where_len o)

let test_cartesian_hint () =
  let src =
    Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?c <%s> ?d }|}
      (y "livedIn") (y "wasBornIn")
  in
  let o = apply src in
  checkb "cartesian-product step" true
    (List.mem "cartesian-product" (slugs_of o));
  checki "clause untouched" 2 (where_len o);
  (match
     List.find_map
       (fun (s : Amber.Rewrite.step) ->
         match s.Amber_rewrite.kind with
         | Amber_rewrite.Cartesian_product { components; estimated_rows } ->
             Some (components, estimated_rows)
         | _ -> None)
       o.steps
   with
  | Some (components, estimated) ->
      checki "two components" 2 components;
      checkb "blow-up estimate present" true (estimated <> None)
  | None -> Alcotest.fail "expected a cartesian-product step");
  check_identity src

(* --- adversarial no-ops ------------------------------------------------ *)

let no_op src =
  let o = apply src in
  checki "no steps" 0 (List.length o.steps);
  checki "clause untouched"
    (List.length (Fixtures.parse_query src).Sparql.Ast.where)
    (where_len o)

let test_cyclic_nothing_removable () =
  (* A 3-cycle with one protected vertex: no self-homomorphism fixing
     ?a maps the cycle into any 2-pattern subset. *)
  let knows = "http://xmlns.com/foaf/0.1/knows" in
  let e = Amber.Engine.build Fixtures.social_triples in
  let ast =
    Fixtures.parse_query
      (Printf.sprintf
         {|SELECT DISTINCT ?a WHERE { ?a <%s> ?b . ?b <%s> ?c . ?c <%s> ?a }|}
         knows knows knows)
  in
  let o =
    Amber.Rewrite.apply ~db:(Amber.Engine.db e)
      ~attribute:(Amber.Engine.attribute_index e)
      ~stats:(lazy (Amber.Engine.statistics e))
      ast
  in
  checki "no steps" 0 (List.length o.steps);
  checki "cycle intact" 3 (List.length o.ast.Sparql.Ast.where)

let test_projected_variables_survive () =
  (* Folding ?b or ?c would erase a projected variable. *)
  no_op
    (Printf.sprintf
       {|SELECT DISTINCT ?a ?b ?c WHERE { ?a <%s> ?b . ?a <%s> ?c }|}
       (y "livedIn") (y "livedIn"))

let test_order_by_key_survives () =
  (* ?c is not projected but keys the sort, so it is protected: the
     only legal fold sends ?b into ?c, never the other way round. *)
  let src =
    Printf.sprintf
      {|SELECT DISTINCT ?a WHERE { ?a <%s> ?b . ?a <%s> ?c } ORDER BY ?c|}
      (y "livedIn") (y "livedIn")
  in
  let o = apply src in
  checkb "?c survives the fold" true
    (List.mem "c" (Sparql.Ast.variables o.ast));
  let ast = Fixtures.parse_query src in
  let e = Lazy.force engine in
  checkb "row order identical with and without the rewrite" true
    ((Amber.Engine.query e ast).Amber.Engine.rows
    = (Amber.Engine.query ~opts:{ Amber.Engine.Opts.default with rewrite = false } e ast)
        .Amber.Engine.rows)

let test_multi_edge_no_op () =
  (* A width-2 multi-edge: both patterns constrain the same vertex pair
     through different predicates, so neither folds into the other. *)
  no_op
    (Printf.sprintf {|SELECT DISTINCT ?a WHERE { ?a <%s> ?b . ?a <%s> ?b }|}
       (y "wasBornIn") (y "diedIn"))

(* --- engine wiring ----------------------------------------------------- *)

let test_binding_reattached () =
  (* Constant propagation removes ?m from the clause; the projected rows
     must still carry its forced value in the right column. *)
  let ast =
    Fixtures.parse_query
      (Printf.sprintf {|SELECT ?p ?m WHERE { ?m <%s> <%s> . ?p <%s> ?m }|}
         (y "isPartOf") (x "England") (y "wasBornIn"))
  in
  let a = Amber.Engine.query (Lazy.force engine) ast in
  checkb "some rows" true (a.Amber.Engine.rows <> []);
  List.iter
    (fun row ->
      match row with
      | [ Some _; Some m ] ->
          checkb "?m column is London" true (m = Rdf.Term.iri (x "London"))
      | _ -> Alcotest.fail "expected two bound columns")
    a.Amber.Engine.rows;
  Alcotest.(check (list (list string)))
    "identical to the unrewritten run"
    (canonical ~rewrite:false ast)
    (canonical ~rewrite:true ast)

let test_profile_carries_steps () =
  let ast =
    Fixtures.parse_query
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?b }|}
         (y "livedIn") (y "livedIn"))
  in
  let profile ?(rewrite = true) () =
    Option.get
      (Amber.Engine.run ~opts:{ Amber.Engine.Opts.default with rewrite } ~profile:true
         (Lazy.force engine) (`Parsed (Sparql.Parser.Q_select ast)))
        .Amber.Engine.profile
  in
  checkb "profile lists the duplicate removal" true
    (List.mem "duplicate-pattern"
       (Amber.Rewrite.slugs (profile ()).Amber.Profile.rewrites));
  checki "rewrite=off profiles no steps" 0
    (List.length (profile ~rewrite:false ()).Amber.Profile.rewrites)

let test_explain_carries_steps () =
  let ast =
    Fixtures.parse_query
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?b }|}
         (y "livedIn") (y "livedIn"))
  in
  (match Amber.Engine.explain (Lazy.force engine) ast with
  | Amber.Engine.Plan { rewrites; _ } ->
      checkb "explain lists the duplicate removal" true
        (List.mem "duplicate-pattern" (Amber.Rewrite.slugs rewrites))
  | Amber.Engine.Unsat _ -> Alcotest.fail "expected a plan");
  match
    Amber.Engine.explain
      ~opts:{ Amber.Engine.Opts.default with rewrite = false }
      (Lazy.force engine) ast
  with
  | Amber.Engine.Plan { rewrites; _ } ->
      checki "rewrite=off explains no steps" 0 (List.length rewrites)
  | Amber.Engine.Unsat _ -> Alcotest.fail "expected a plan"

let test_endpoint_toggle () =
  let config = { Endpoint.default_config with timeout = Some 5.0 } in
  let handle target =
    Endpoint.handle_request config
      (Endpoint.Static (Lazy.force engine))
      ~meth:"GET" ~target ~headers:[] ~body:""
  in
  let encode s =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> String.make 1 c
           | c -> Printf.sprintf "%%%02X" (Char.code c))
         (List.init (String.length s) (String.get s)))
  in
  let q =
    encode
      (Printf.sprintf {|SELECT ?p WHERE { ?p <%s> ?c . ?p <%s> ?c }|}
         (y "wasBornIn") (y "wasBornIn"))
  in
  let s_on, _, b_on = handle ("/sparql?query=" ^ q ^ "&rewrite=on") in
  let s_off, _, b_off = handle ("/sparql?query=" ^ q ^ "&rewrite=off") in
  checki "rewrite=on answers" 200 s_on;
  checki "rewrite=off answers" 200 s_off;
  check_str "identical bodies" b_on b_off;
  let s_bad, _, b_bad = handle ("/sparql?query=" ^ q ^ "&rewrite=maybe") in
  checki "unknown value is a 400" 400 s_bad;
  checkb "names the bad value" true
    (let n = String.length "maybe" and h = String.length b_bad in
     let rec loop i =
       i + n <= h && (String.sub b_bad i n = "maybe" || loop (i + 1))
     in
     loop 0)

let test_metric_bumped () =
  let c =
    Obs.Metrics.counter
      ~labels:[ ("kind", "duplicate-pattern") ]
      Obs.Metrics.default "amber_rewrite_steps_total"
  in
  let before = Obs.Metrics.counter_value c in
  ignore
    (apply
       (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?b }|}
          (y "livedIn") (y "livedIn")));
  checkb "counter advanced" true (Obs.Metrics.counter_value c > before)

(* --- renderings -------------------------------------------------------- *)

let test_json_slugs_stable () =
  check_str "duplicate slug" "duplicate-pattern"
    (Amber.Rewrite.kind_slug
       (Amber_rewrite.Duplicate_pattern { first = 0; dup = 1 }));
  check_str "minimization slug" "core-minimization"
    (Amber.Rewrite.kind_slug
       (Amber_rewrite.Core_minimization { removed = 1; folded = [] }));
  check_str "propagation slug" "constant-propagation"
    (Amber.Rewrite.kind_slug
       (Amber_rewrite.Constant_propagation { variable = "v"; value = "<u>" }));
  check_str "cartesian slug" "cartesian-product"
    (Amber.Rewrite.kind_slug
       (Amber_rewrite.Cartesian_product
          { components = 2; estimated_rows = None }));
  let o =
    apply
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?b }|}
         (y "livedIn") (y "livedIn"))
  in
  let json = Amber.Rewrite.steps_to_json o.steps in
  let contains sub =
    let n = String.length sub and h = String.length json in
    let rec loop i = i + n <= h && (String.sub json i n = sub || loop (i + 1)) in
    loop 0
  in
  checkb "kind field" true (contains {|"kind":"duplicate-pattern"|});
  checkb "span text" true (contains {|"pattern":|})

(* Both singleton-style certificates walk a constant's neighbour list in
   place: the rewriter's unique neighbour through one edge type, and the
   analyzer's IRI-constraint probe (some neighbour carries every type).
   Check them, and the walk under them, against a reference built from
   [Multigraph.adjacency]: every IRI vertex, both directions, single and
   multi-type constraints, on the packed fixture graph and on a delta
   overlay that patches a vertex with a new multi-type edge. *)
let test_certificates_match_adjacency () =
  let module M = Mgraph.Multigraph in
  let mismatches = ref [] in
  let expect what ok = if not ok then mismatches := what :: !mismatches in
  let check_engine label e =
    let db = Amber.Engine.db e in
    let g = Amber.Database.graph db in
    let iri_of u =
      match Amber.Database.term_of_vertex db u with
      | Rdf.Term.Iri i -> Some i
      | _ -> None
    in
    let through dir v types =
      Array.to_list (M.adjacency g dir v)
      |> List.filter_map (fun (u, tys) ->
             if Mgraph.Sorted_ints.subset types tys then Some u else None)
    in
    let walked dir v types =
      let acc = ref [] in
      M.iter_neighbours_with g dir v types (fun u -> acc := u :: !acc);
      List.rev !acc
    in
    let edge_types = List.init (Amber.Database.edge_type_count db) Fun.id in
    let type_sets =
      [||] :: List.map (fun t -> [| t |]) edge_types
      @ List.concat_map
          (fun a -> List.filter_map (fun b -> if a < b then Some [| a; b |] else None) edge_types)
          edge_types
    in
    for v = 0 to M.vertex_count g - 1 do
      List.iter
        (fun dir ->
          List.iter
            (fun types ->
              expect
                (Printf.sprintf "%s: walk of %d" label v)
                (walked dir v types = through dir v types))
            type_sets)
        [ M.Out; M.In ]
    done;
    let apply ast =
      Amber.Rewrite.apply ~db ~attribute:(Amber.Engine.attribute_index e)
        ~stats:(lazy (Amber.Engine.statistics e))
        ast
    in
    let iri_constraint_proved ast =
      match Amber.Query_graph.build db ast with
      | Amber.Query_graph.Unsatisfiable _ -> None
      | Amber.Query_graph.Query q ->
          Some
            (List.exists
               (fun (item : Amber.Analysis.item) ->
                 match item.diag with
                 | Amber.Analysis.Unsat (Amber.Analysis.Iri_constraint_infeasible _) ->
                     true
                 | _ -> false)
               (Amber.Analysis.screen db ~attribute:(Amber.Engine.attribute_index e)
                  ~synopsis:(Amber.Engine.synopsis_index e) q ast))
    in
    let var = Sparql.Ast.Var "x" in
    let checked = ref 0 and forced_seen = ref 0 and proved_seen = ref 0 in
    for v = 0 to M.vertex_count g - 1 do
      Option.iter
        (fun c ->
          List.iter
            (fun (dir, pattern) ->
              (* [?x p <c>] reads the in-list of [c], [<c> p ?x] the out-list. *)
              List.iter
                (fun types ->
                  let preds = List.map (Amber.Database.iri_of_edge_type db) (Array.to_list types) in
                  let patterns =
                    List.map (fun p -> pattern (Sparql.Ast.Iri p) (Sparql.Ast.Iri c)) preds
                  in
                  let ast = Sparql.Ast.make (Sparql.Ast.Select_vars [ "x" ]) patterns in
                  let reference = through dir v types in
                  (if Array.length types = 1 then
                     let forced =
                       match reference with
                       | [ u ] -> Option.map Rdf.Term.iri (iri_of u)
                       | _ -> None
                     in
                     (* The rewriter leaves a clause's last variable to the
                        matcher, so give it a second, unrelated one. *)
                     let keep =
                       Sparql.Ast.pattern (Sparql.Ast.Var "w") (Sparql.Ast.Iri (List.hd preds))
                         (Sparql.Ast.Var "z")
                     in
                     let bindings =
                       (apply (Sparql.Ast.make Sparql.Ast.Select_all (keep :: patterns)))
                         .Amber.Rewrite.bindings
                     in
                     if forced <> None then incr forced_seen;
                     expect (label ^ ": unique neighbour of " ^ c)
                       (List.assoc_opt "x" bindings = forced));
                  Option.iter
                    (fun proved ->
                      incr checked;
                      if proved then incr proved_seen;
                      expect (label ^ ": iri constraint on " ^ c) (proved = (reference = [])))
                    (iri_constraint_proved ast))
                (List.filter (fun t -> Array.length t > 0) type_sets))
            [
              (M.In, fun p o -> Sparql.Ast.pattern var p o);
              (M.Out, fun p s -> Sparql.Ast.pattern s p var);
            ])
        (iri_of v)
    done;
    expect (label ^ ": both outcomes seen")
      (!forced_seen > 0 && !proved_seen > 0 && !proved_seen < !checked)
  in
  let base = Amber.Engine.build Fixtures.paper_triples in
  check_engine "packed" base;
  let spo s p o = Rdf.Triple.spo (x s) (y p) (Rdf.Term.iri (x o)) in
  let overlay =
    Amber.Delta.compile base
      (Amber.Delta.apply Amber.Delta.empty
         ~adds:
           [
             spo "Blake_Fielder-Civil" "wasBornIn" "United_States";
             spo "Blake_Fielder-Civil" "diedIn" "United_States";
             spo "Mark_Ronson" "livedIn" "London";
           ]
         ~dels:[ spo "Amy_Winehouse" "diedIn" "London" ])
  in
  checkb "overlay graph" true (M.is_overlay (Amber.Database.graph (Amber.Engine.db overlay)));
  check_engine "overlay" overlay;
  Alcotest.(check (list string)) "mismatches" [] (List.rev !mismatches)

let suite =
  [
    ( "amber.rewrite",
      [
        Alcotest.test_case "duplicate removed" `Quick test_duplicate_removed;
        Alcotest.test_case "core minimization fires" `Quick
          test_core_minimization_fires;
        Alcotest.test_case "minimization needs DISTINCT" `Quick
          test_minimization_needs_distinct;
        Alcotest.test_case "SELECT * protects everything" `Quick
          test_select_star_protects_everything;
        Alcotest.test_case "constant propagation (iri)" `Quick
          test_constant_propagation;
        Alcotest.test_case "constant propagation (literal)" `Quick
          test_constant_propagation_literal;
        Alcotest.test_case "open objects skip adjacency singleton" `Quick
          test_open_objects_skips_adjacency_singleton;
        Alcotest.test_case "cartesian hint" `Quick test_cartesian_hint;
        Alcotest.test_case "certificates = adjacency" `Quick
          test_certificates_match_adjacency;
        Alcotest.test_case "cyclic BGP: nothing removable" `Quick
          test_cyclic_nothing_removable;
        Alcotest.test_case "projected variables survive" `Quick
          test_projected_variables_survive;
        Alcotest.test_case "order-by key survives" `Quick
          test_order_by_key_survives;
        Alcotest.test_case "multi-edge no-op" `Quick test_multi_edge_no_op;
        Alcotest.test_case "forced binding re-attached" `Quick
          test_binding_reattached;
        Alcotest.test_case "profile carries steps" `Quick
          test_profile_carries_steps;
        Alcotest.test_case "explain carries steps" `Quick
          test_explain_carries_steps;
        Alcotest.test_case "endpoint ?rewrite toggle" `Quick
          test_endpoint_toggle;
        Alcotest.test_case "metric bumped" `Quick test_metric_bumped;
        Alcotest.test_case "json slugs stable" `Quick test_json_slugs_stable;
      ] );
  ]
