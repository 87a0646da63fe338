(* Unit tests for the matcher internals (Algorithms 1-2) and the
   embedding generator. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_arr = Alcotest.(check (array int))

let x res = "http://dbpedia.org/resource/" ^ res
let y prop = "http://dbpedia.org/ontology/" ^ prop

let make_ctx () =
  let db = Amber.Database.of_triples Fixtures.paper_triples in
  Amber.Matcher.make_ctx
    ~probe_cache:(Amber.Probe_cache.create ())
    ~shared:(Amber.Matcher.make_shared ())
    ~db
    ~attribute:(Amber.Attribute_index.build db)
    ~synopsis:(Amber.Synopsis_index.build db)
    ~neighbourhood:(Amber.Neighbourhood_index.build db)
    ~deadline:Amber.Deadline.never
    ~stats:(Amber.Matcher.fresh_stats ())
    ()

let vertex ctx name =
  Option.get
    (Amber.Database.vertex_of_term ctx.Amber.Matcher.db (Rdf.Term.iri (x name)))

let build_query ctx src =
  match
    Amber.Query_graph.build ctx.Amber.Matcher.db (Fixtures.parse_query src)
  with
  | Amber.Query_graph.Query q -> q
  | Amber.Query_graph.Unsatisfiable { proof; _ } ->
      Alcotest.failf "unsat: %s" (Amber.Analysis.proof_to_string proof)

(* --- ProcessVertex (Algorithm 1) ------------------------------------- *)

let test_process_vertex_attributes () =
  let ctx = make_ctx () in
  let q =
    build_query ctx
      (Printf.sprintf
         {|SELECT * WHERE { ?b <%s> "MCA_Band" . ?b <%s> "1994" . ?b <%s> ?c }|}
         (y "hasName") (y "foundedIn") (y "wasFormedIn"))
  in
  let u = Option.get (Amber.Query_graph.vertex_of_var q "b") in
  (* Paper's C^A_{u5} example: both attributes pin Music_Band. *)
  match Amber.Matcher.process_vertex ctx q u with
  | Some cands ->
      check_arr "music band only" [| vertex ctx "Music_Band" |]
        (Mgraph.Posting.to_array cands)
  | None -> Alcotest.fail "expected attribute candidates"

let test_process_vertex_iri () =
  let ctx = make_ctx () in
  let q =
    build_query ctx
      (Printf.sprintf {|SELECT * WHERE { ?p <%s> <%s> . ?p <%s> ?o }|}
         (y "livedIn") (x "United_States") (y "wasBornIn"))
  in
  let u = Option.get (Amber.Query_graph.vertex_of_var q "p") in
  (* Paper's C^I example: who livedIn United_States. *)
  match Amber.Matcher.process_vertex ctx q u with
  | Some cands ->
      check_arr "amy and blake"
        (Mgraph.Sorted_ints.of_list
           [ vertex ctx "Amy_Winehouse"; vertex ctx "Blake_Fielder-Civil" ])
        (Mgraph.Posting.to_array cands)
  | None -> Alcotest.fail "expected IRI candidates"

let test_process_vertex_unconstrained () =
  let ctx = make_ctx () in
  let q =
    build_query ctx
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b }|} (y "livedIn"))
  in
  let u = Option.get (Amber.Query_graph.vertex_of_var q "a") in
  checkb "no vertex-local info" true (Amber.Matcher.process_vertex ctx q u = None)

(* --- initial candidates / seeded solving ------------------------------ *)

let test_initial_candidates () =
  let ctx = make_ctx () in
  let q = build_query ctx Fixtures.paper_query_text in
  let plan = Amber.Decompose.plan q in
  let comp = plan.Amber.Decompose.components.(0) in
  let seeds = Amber.Matcher.initial_candidates ctx q comp in
  (* The initial core vertex is X1 = London (rich star structure). *)
  check_arr "london seeds the search" [| vertex ctx "London" |] seeds

let collect ctx q plan comp ~seeds =
  let sols = ref [] in
  Amber.Matcher.solve_component_seeded ctx q plan comp ~seeds ~emit:(fun s ->
      sols := s :: !sols;
      `Continue);
  List.rev !sols

let test_seed_partition_equals_whole () =
  let ctx = make_ctx () in
  let q =
    build_query ctx
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?c <%s> ?b . ?a <%s> ?d }|}
         (y "livedIn") (y "livedIn") (y "wasBornIn"))
  in
  let plan = Amber.Decompose.plan q in
  let comp = plan.Amber.Decompose.components.(0) in
  let seeds = Amber.Matcher.initial_candidates ctx q comp in
  let whole = collect ctx q plan comp ~seeds in
  let n = Array.length seeds in
  let left = Array.sub seeds 0 (n / 2)
  and right = Array.sub seeds (n / 2) (n - (n / 2)) in
  let split = collect ctx q plan comp ~seeds:left @ collect ctx q plan comp ~seeds:right in
  checkb "partition covers the search space" true (whole = split);
  checkb "solutions found" true (whole <> [])

let test_emit_stop () =
  let ctx = make_ctx () in
  let q =
    build_query ctx
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?c }|} (y "livedIn")
         (y "livedIn"))
  in
  let plan = Amber.Decompose.plan q in
  let comp = plan.Amber.Decompose.components.(0) in
  let seen = ref 0 in
  Amber.Matcher.solve_component_seeded ctx q plan comp
    ~seeds:(Amber.Matcher.initial_candidates ctx q comp)
    ~emit:(fun _ ->
      incr seen;
      `Stop);
  checki "stopped after the first solution" 1 !seen

(* --- count_embeddings -------------------------------------------------- *)

let test_count_embeddings () =
  let sol core sats = { Amber.Matcher.core; sats } in
  checki "core only" 1 (Amber.Matcher.count_embeddings (sol [ (0, 1) ] []));
  checki "two satellites" 6
    (Amber.Matcher.count_embeddings
       (sol [ (0, 1) ] [ (1, [| 1; 2 |]); (2, [| 3; 4; 5 |]) ]));
  checki "empty satellite" 0
    (Amber.Matcher.count_embeddings (sol [ (0, 1) ] [ (1, [||]) ]));
  let huge = Array.init 100_000 Fun.id in
  checki "saturates instead of overflowing" max_int
    (Amber.Matcher.count_embeddings
       (sol []
          [ (0, huge); (1, huge); (2, huge); (3, huge); (4, huge); (5, huge);
            (6, huge); (7, huge); (8, huge); (9, huge); (10, huge); (11, huge);
            (12, huge) ]))

(* --- Embedding --------------------------------------------------------- *)

let test_embedding_cartesian () =
  let db = Amber.Database.of_triples Fixtures.paper_triples in
  let ctx = make_ctx () in
  let q =
    build_query ctx
      (Printf.sprintf {|SELECT * WHERE { ?p <%s> ?c . ?p <%s> ?w }|}
         (y "wasBornIn") (y "livedIn"))
  in
  let plan = Amber.Decompose.plan q in
  let comp = plan.Amber.Decompose.components.(0) in
  let sols =
    collect ctx q plan comp
      ~seeds:(Amber.Matcher.initial_candidates ctx q comp)
  in
  let lits = Amber.Literal_bindings.create db in
  let rows =
    List.of_seq (Amber.Embedding.rows ~db ~q ~lits ~solutions:[| sols |])
  in
  let expected =
    List.fold_left (fun n s -> n + Amber.Matcher.count_embeddings s) 0 sols
  in
  checki "rows = sum of products" expected (List.length rows);
  checki "count agrees" expected
    (Amber.Embedding.count ~q ~lits ~solutions:[| sols |]);
  (* Each row binds every slot with a term. *)
  checkb "rows fully bound" true
    (List.for_all (fun row -> Array.length row = Amber.Query_graph.vertex_count q) rows)

let test_embedding_empty_component () =
  let db = Amber.Database.of_triples Fixtures.paper_triples in
  let ctx = make_ctx () in
  let q =
    build_query ctx
      (Printf.sprintf {|SELECT * WHERE { ?a <%s> ?b . ?c <%s> ?d }|}
         (y "hasStadium") (y "wasMarriedTo"))
  in
  let lits = Amber.Literal_bindings.create db in
  (* One populated component, one empty: no rows. *)
  let plan = Amber.Decompose.plan q in
  let comp = plan.Amber.Decompose.components.(0) in
  let sols =
    collect ctx q plan comp ~seeds:(Amber.Matcher.initial_candidates ctx q comp)
  in
  checki "no rows with an empty component" 0
    (Seq.fold_left (fun n _ -> n + 1) 0
       (Amber.Embedding.rows ~db ~q ~lits ~solutions:[| sols; [] |]))

(* The enumeration order, spelled out as nested loops: component 0
   outermost, solutions in list order, the first satellite fastest. *)
let reference_order n (solutions : Amber.Matcher.solution list array) =
  let solution_rows (sol : Amber.Matcher.solution) =
    let rec sats = function
      | [] -> [ sol.core ]
      | (u, set) :: rest ->
          List.concat_map
            (fun tail -> List.map (fun v -> (u, v) :: tail) (Array.to_list set))
            (sats rest)
    in
    sats sol.sats
  in
  Array.fold_left
    (fun acc sols ->
      List.concat_map
        (fun partial ->
          List.map (fun more -> partial @ more) (List.concat_map solution_rows sols))
        acc)
    [ [] ] solutions
  |> List.map (fun pairs ->
         let row = Array.make n (-1) in
         List.iter (fun (u, v) -> row.(u) <- v) pairs;
         row)

let cursor_ids cursor n =
  let all = Array.init n Fun.id in
  let rec go acc =
    if Amber.Embedding.next cursor then go (Amber.Embedding.key cursor all :: acc)
    else List.rev acc
  in
  go []

let test_cursor_order () =
  let ctx = make_ctx () in
  let q =
    build_query ctx
      (Printf.sprintf
         {|SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?c . ?d <%s> ?e . ?d <%s> ?f }|}
         (y "wasBornIn") (y "livedIn") (y "wasMarriedTo") (y "livedIn"))
  in
  let n = Amber.Query_graph.vertex_count q in
  checki "six vertices" 6 n;
  let lits = Amber.Literal_bindings.create ctx.Amber.Matcher.db in
  let sol core sats = { Amber.Matcher.core; sats } in
  (* Synthetic ids: the cursor's keys are undecoded, so any ints do. *)
  let comp0 =
    [
      sol [ (0, 10) ] [ (1, [| 20; 21; 22 |]); (2, [| 30; 31 |]) ];
      sol [ (0, 11) ] [ (1, [| 23 |]); (2, [||]) ];  (* denotes nothing *)
      sol [ (0, 12) ] [ (1, [| 24; 25 |]); (2, [| 32 |]) ];
    ]
  in
  let comp1 =
    [ sol [ (3, 40); (4, 50) ] [ (5, [| 60; 61 |]) ]; sol [ (3, 41); (4, 51) ] [ (5, [| 62 |]) ] ]
  in
  let check_case name solutions =
    let expected = reference_order n solutions in
    let got = cursor_ids (Amber.Embedding.cursor ~q ~lits ~solutions) n in
    Alcotest.(check (list (array int))) name expected got
  in
  check_case "one component" [| comp0 |];
  check_case "two components" [| comp0; comp1 |];
  check_case "components swapped" [| comp1; comp0 |];
  check_case "an empty component" [| comp0; [] |];
  check_case "no components" [||];
  let c = Amber.Embedding.cursor ~q ~lits ~solutions:[| comp1 |] in
  while Amber.Embedding.next c do () done;
  checkb "stays exhausted" false (Amber.Embedding.next c)

(* Hubs with several [p] and [q] neighbours and zero to two names,
   plus an unrelated [r] star: multi-satellite, multi-component and
   open-object enumeration over one small graph. *)
let hub_triples =
  let e s = "http://example.org/" ^ s in
  List.concat
    [
      List.concat_map
        (fun i ->
          let hub = e (Printf.sprintf "h%d" i) in
          List.init (2 + i) (fun j ->
              Rdf.Triple.spo hub (e "p") (Fixtures.iri (e (Printf.sprintf "x%d_%d" i j))))
          @ List.init 2 (fun j ->
                Rdf.Triple.spo hub (e "q") (Fixtures.iri (e (Printf.sprintf "y%d_%d" i j))))
          @ List.init (i mod 3) (fun j ->
                Rdf.Triple.spo hub (e "name") (Fixtures.lit (Printf.sprintf "hub-%d-%d" i j)))
          @ List.init (i mod 2 + 1) (fun j ->
                Rdf.Triple.spo hub (e "alias") (Fixtures.lit (Printf.sprintf "alias-%d-%d" i j))))
        [ 0; 1; 2; 3 ];
      List.concat_map
        (fun i ->
          List.init 2 (fun j ->
              Rdf.Triple.spo
                (e (Printf.sprintf "k%d" i))
                (e "r")
                (Fixtures.iri (e (Printf.sprintf "z%d_%d" i j)))))
        [ 0; 1 ];
    ]

let render rows =
  List.map (List.map (Option.map Rdf.Term.to_string)) rows

(* A row limit keeps exactly the first rows of the enumeration order. *)
let test_limit_keeps_prefix () =
  let engine = Amber.Engine.build hub_triples in
  let db = Amber.Engine.db engine in
  let lits = Amber.Literal_bindings.create db in
  let p s = "<http://example.org/" ^ s ^ ">" in
  let queries =
    [
      (Printf.sprintf "SELECT * WHERE { ?h %s ?x . ?h %s ?y }" (p "p") (p "q"), false);
      ( Printf.sprintf "SELECT ?z ?y ?x WHERE { ?h %s ?x . ?h %s ?y . ?k %s ?z }"
          (p "p") (p "q") (p "r"),
        false );
      ( Printf.sprintf "SELECT * WHERE { ?h %s ?x . ?h %s ?n . ?h %s ?y . ?h %s ?m }"
          (p "p") (p "name") (p "q") (p "alias"),
        true );
      ( Printf.sprintf "SELECT ?m ?z ?n WHERE { ?h %s ?n . ?h %s ?m . ?k %s ?z . ?h %s ?x }"
          (p "name") (p "alias") (p "r") (p "p"),
        true );
    ]
  in
  List.iter
    (fun (src, open_objects) ->
      let ast = Fixtures.parse_query src in
      let q =
        match Amber.Query_graph.build ~open_objects db ast with
        | Amber.Query_graph.Query q -> q
        | Amber.Query_graph.Unsatisfiable _ -> Alcotest.failf "unsat: %s" src
      in
      let plan = Amber.Decompose.plan q in
      let ctx =
        Amber.Matcher.make_ctx ~db
          ~attribute:(Amber.Engine.attribute_index engine)
          ~synopsis:(Amber.Engine.synopsis_index engine)
          ~neighbourhood:(Amber.Engine.neighbourhood_index engine)
          ~deadline:Amber.Deadline.never ~stats:(Amber.Matcher.fresh_stats ()) ()
      in
      let solutions =
        Array.map
          (fun comp ->
            collect ctx q plan comp ~seeds:(Amber.Matcher.initial_candidates ctx q comp))
          plan.Amber.Decompose.components
      in
      let slots = Amber.Embedding.slots q in
      let columns = List.map slots.Amber.Embedding.of_var (Sparql.Ast.selected_variables ast) in
      let all =
        Amber.Embedding.rows ~db ~q ~lits ~solutions
        |> Seq.map (fun row -> List.map (Option.map (fun i -> row.(i))) columns)
        |> List.of_seq
      in
      let total = List.length all in
      checkb (src ^ ": several rows") true (total > 4);
      List.iter
        (fun k ->
          let answer =
            Amber.Engine.query
              ~opts:{ Amber.Engine.Opts.default with plan = Amber.Stats.Paper; rewrite = false }
              ~open_objects ~limit:k engine ast
          in
          Alcotest.(check (list (list (option string))))
            (Printf.sprintf "%s: limit %d" src k)
            (render (List.filteri (fun i _ -> i < k) all))
            (render answer.Amber.Engine.rows))
        [ 1; 2; 3; 5; total - 1; total; total + 1 ])
    queries

(* DISTINCT keys cover every projected column: rows that agree on the
   first twelve and differ only in the last stay distinct. *)
let test_distinct_wide_rows () =
  let e s = "http://example.org/" ^ s in
  let width = 14 in
  let triples =
    List.init (width - 1) (fun i ->
        Rdf.Triple.spo (e "s") (e (Printf.sprintf "c%d" i))
          (Fixtures.iri (e (Printf.sprintf "o%d" i))))
    @ List.init 5 (fun j ->
          Rdf.Triple.spo (e "s") (e "last") (Fixtures.iri (e (Printf.sprintf "t%d" j))))
  in
  let engine = Amber.Engine.build triples in
  let vars = List.init width (Printf.sprintf "?v%d") in
  let patterns =
    List.mapi
      (fun i v ->
        Printf.sprintf "?s <%s> %s ." (e (if i = width - 1 then "last" else Printf.sprintf "c%d" i)) v)
      vars
  in
  let src =
    Printf.sprintf "SELECT DISTINCT %s WHERE { %s }" (String.concat " " vars)
      (String.concat " " patterns)
  in
  let answer = Amber.Engine.query engine (Fixtures.parse_query src) in
  checki "all five rows kept" 5 (List.length answer.Amber.Engine.rows);
  checki "five distinct last cells" 5
    (List.length
       (List.sort_uniq compare
          (List.map (fun row -> List.nth row (width - 1)) answer.Amber.Engine.rows)))

(* --- Literal_bindings ---------------------------------------------------- *)

let test_literal_bindings () =
  let db = Amber.Database.of_triples Fixtures.paper_triples in
  let lits = Amber.Literal_bindings.create db in
  let band =
    Option.get (Amber.Database.vertex_of_term db (Rdf.Term.iri (x "Music_Band")))
  in
  (* Literal-only predicate. *)
  (match Amber.Literal_bindings.bindings lits ~vertex:band ~pred:(y "hasName") with
  | [ Rdf.Term.Literal { value; _ } ] -> Alcotest.(check string) "name" "MCA_Band" value
  | _ -> Alcotest.fail "expected one literal");
  (* Edge predicate. *)
  let amy =
    Option.get (Amber.Database.vertex_of_term db (Rdf.Term.iri (x "Amy_Winehouse")))
  in
  (match Amber.Literal_bindings.bindings lits ~vertex:amy ~pred:(y "livedIn") with
  | [ Rdf.Term.Iri i ] -> Alcotest.(check string) "us" (x "United_States") i
  | _ -> Alcotest.fail "expected one IRI");
  (* Nothing. *)
  checki "no bindings" 0
    (List.length (Amber.Literal_bindings.bindings lits ~vertex:amy ~pred:"http://nope"))

let suite =
  [
    ( "amber.matcher",
      [
        Alcotest.test_case "process_vertex attributes" `Quick test_process_vertex_attributes;
        Alcotest.test_case "process_vertex iri" `Quick test_process_vertex_iri;
        Alcotest.test_case "process_vertex unconstrained" `Quick
          test_process_vertex_unconstrained;
        Alcotest.test_case "initial candidates" `Quick test_initial_candidates;
        Alcotest.test_case "seed partition" `Quick test_seed_partition_equals_whole;
        Alcotest.test_case "emit stop" `Quick test_emit_stop;
        Alcotest.test_case "count embeddings" `Quick test_count_embeddings;
      ] );
    ( "amber.embedding",
      [
        Alcotest.test_case "cartesian rows" `Quick test_embedding_cartesian;
        Alcotest.test_case "empty component" `Quick test_embedding_empty_component;
        Alcotest.test_case "literal bindings" `Quick test_literal_bindings;
        Alcotest.test_case "cursor order" `Quick test_cursor_order;
        Alcotest.test_case "limit keeps prefix" `Quick test_limit_keeps_prefix;
        Alcotest.test_case "distinct wide rows" `Quick test_distinct_wide_rows;
      ] );
  ]
