(* Integration: all five engines must agree with the brute-force
   reference on randomized small datasets and generated workloads. *)

module Reference = Baselines.Reference_eval

let checkb = Alcotest.(check bool)

(* Random small multigraph with literal attributes, in the common
   fragment (object/datatype predicates disjoint). *)
let random_triples seed =
  let rng = Datagen.Prng.create seed in
  let n = 12 + Datagen.Prng.int rng 10 in
  let e i = Printf.sprintf "http://t/e%d" i in
  let p i = Printf.sprintf "http://t/p%d" i in
  let lp i = Printf.sprintf "http://t/lp%d" i in
  let triples = ref [] in
  for _ = 1 to 40 + Datagen.Prng.int rng 40 do
    let s = Datagen.Prng.int rng n and o = Datagen.Prng.int rng n in
    triples :=
      Rdf.Triple.spo (e s) (p (Datagen.Prng.int rng 5)) (Rdf.Term.iri (e o))
      :: !triples
  done;
  for v = 0 to n - 1 do
    if Datagen.Prng.bool rng 0.6 then
      triples :=
        Rdf.Triple.spo (e v)
          (lp (Datagen.Prng.int rng 2))
          (Rdf.Term.literal (Printf.sprintf "val%d" (Datagen.Prng.int rng 4)))
        :: !triples
  done;
  !triples

let engines_agree triples ast =
  let expected = Reference.canonical_answer triples ast in
  let run (type e) (module E : Baselines.Engine_sig.S with type t = e) =
    let store = E.load triples in
    let answer = E.query store ast in
    (E.name, Reference.canonical_rows answer.Baselines.Answer.rows)
  in
  let results =
    [
      run (module Baselines.Amber_adapter);
      run (module Baselines.Triple_store);
      run (module Baselines.Column_store);
      run (module Baselines.Nested_loop);
      run (module Baselines.Sig_store);
    ]
  in
  List.filter_map
    (fun (name, got) -> if got = expected then None else Some name)
    results

let pp_query ast = Sparql.Ast.to_string ast

let test_generated_workloads () =
  List.iter
    (fun seed ->
      let triples = random_triples seed in
      let corpus = Datagen.Workload.corpus triples in
      let queries =
        Datagen.Workload.generate ~seed corpus ~shape:Datagen.Workload.Star
          ~size:3 ~count:3
        @ Datagen.Workload.generate ~seed:(seed + 100) corpus
            ~shape:Datagen.Workload.Complex ~size:4 ~count:3
      in
      checkb "some queries generated" true (queries <> []);
      List.iter
        (fun ast ->
          match engines_agree triples ast with
          | [] -> ()
          | bad ->
              Alcotest.failf "seed %d: engines %s disagree on:\n%s" seed
                (String.concat ", " bad) (pp_query ast))
        queries)
    [ 1; 2; 3; 4; 5 ]

(* Hand-built adversarial patterns over random data. *)
let test_adversarial_patterns () =
  let p i = Printf.sprintf "http://t/p%d" i in
  let shapes =
    [
      (* triangle *)
      Printf.sprintf "SELECT * WHERE { ?a <%s> ?b . ?b <%s> ?c . ?c <%s> ?a }"
        (p 0) (p 1) (p 2);
      (* diamond *)
      Printf.sprintf
        "SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?c . ?b <%s> ?d . ?c <%s> ?d }"
        (p 0) (p 0) (p 1) (p 1);
      (* multi-edge pair *)
      Printf.sprintf "SELECT * WHERE { ?a <%s> ?b . ?a <%s> ?b }" (p 0) (p 1);
      (* self loop + neighbour *)
      Printf.sprintf "SELECT * WHERE { ?a <%s> ?a . ?a <%s> ?b }" (p 0) (p 1);
      (* long path *)
      Printf.sprintf
        "SELECT * WHERE { ?a <%s> ?b . ?b <%s> ?c . ?c <%s> ?d . ?d <%s> ?e }"
        (p 0) (p 1) (p 0) (p 1);
      (* literal join *)
      Printf.sprintf
        {|SELECT * WHERE { ?a <http://t/lp0> "val1" . ?a <%s> ?b . ?b <http://t/lp1> "val2" }|}
        (p 2);
      (* distinct projection *)
      Printf.sprintf "SELECT DISTINCT ?a WHERE { ?a <%s> ?b . ?a <%s> ?c }" (p 1)
        (p 2);
    ]
  in
  List.iter
    (fun seed ->
      let triples = random_triples (1000 + seed) in
      List.iter
        (fun src ->
          let ast = Fixtures.parse_query src in
          match engines_agree triples ast with
          | [] -> ()
          | bad ->
              Alcotest.failf "seed %d: engines %s disagree on:\n%s" seed
                (String.concat ", " bad) src)
        shapes)
    [ 1; 2; 3 ]

(* AMbER variants (orderings, scan seeding) agree. *)
let test_amber_internal_consistency () =
  List.iter
    (fun seed ->
      let triples = random_triples (2000 + seed) in
      let corpus = Datagen.Workload.corpus triples in
      let queries =
        Datagen.Workload.generate ~seed corpus ~shape:Datagen.Workload.Complex
          ~size:5 ~count:4
      in
      let engine = Amber.Engine.build triples in
      List.iter
        (fun ast ->
          let run ?(plan = Amber.Stats.Adaptive) strategy =
            let a =
              Amber.Engine.query
                ~opts:{ Amber.Engine.Opts.default with plan; order = Some strategy }
                engine ast
            in
            Reference.canonical_rows a.Amber.Engine.rows
          in
          let base = run Amber.Decompose.Paper in
          checkb "by-degree ordering agrees" true
            (run Amber.Decompose.By_degree = base);
          checkb "arbitrary ordering agrees" true
            (run Amber.Decompose.Arbitrary = base);
          checkb "scan seeding agrees" true
            (run ~plan:Amber.Stats.(Forced Scan) Amber.Decompose.Paper = base))
        queries)
    [ 1; 2; 3 ]

(* LUBM smoke test: a realistic query answered identically by AMbER and
   the triple store. *)
let test_lubm_join () =
  let triples = Datagen.Lubm.generate ~universities:1 () in
  let ub l = "http://swat.lehigh.edu/onto/univ-bench.owl#" ^ l in
  let src =
    Printf.sprintf
      {|SELECT ?s ?prof ?dept WHERE {
          ?s <%s> ?prof .
          ?prof <%s> ?dept .
          ?s <%s> ?dept .
        }|}
      (ub "advisor") (ub "worksFor") (ub "memberOf")
  in
  let ast = Fixtures.parse_query src in
  let amber_store = Baselines.Amber_adapter.load triples in
  let ts = Baselines.Triple_store.load triples in
  let a1 =
    Reference.canonical_rows
      (Baselines.Amber_adapter.query amber_store ast).Baselines.Answer.rows
  in
  let a2 =
    Reference.canonical_rows (Baselines.Triple_store.query ts ast).Baselines.Answer.rows
  in
  checkb "non-empty" true (a1 <> []);
  checkb "amber = triple store on lubm" true (a1 = a2)

let suite =
  [
    ( "cross-engine",
      [
        Alcotest.test_case "generated workloads" `Slow test_generated_workloads;
        Alcotest.test_case "adversarial patterns" `Slow test_adversarial_patterns;
        Alcotest.test_case "amber internal consistency" `Slow
          test_amber_internal_consistency;
        Alcotest.test_case "lubm join" `Slow test_lubm_join;
      ] );
  ]
