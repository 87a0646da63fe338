(* Additional unit and property coverage: multigraph structural
   invariants, synopsis monotonicity, workload knobs, dataset specs,
   and small API corners not exercised elsewhere. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Multigraph structural invariants (property) --------------------- *)

let random_graph rng =
  let n = 2 + Datagen.Prng.int rng 12 in
  let b = Mgraph.Multigraph.Builder.create () in
  Mgraph.Multigraph.Builder.add_vertex b (n - 1);
  let edges = ref [] in
  for _ = 1 to Datagen.Prng.int rng 40 do
    let v = Datagen.Prng.int rng n
    and t = Datagen.Prng.int rng 5
    and v' = Datagen.Prng.int rng n in
    Mgraph.Multigraph.Builder.add_edge b v t v';
    edges := (v, t, v') :: !edges
  done;
  (Mgraph.Multigraph.Builder.build b, !edges)

let prop_adjacency_symmetry =
  QCheck.Test.make ~name:"out/in adjacency are mirror images" ~count:200
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create seed in
      let g, _ = random_graph rng in
      let ok = ref true in
      for v = 0 to Mgraph.Multigraph.vertex_count g - 1 do
        Array.iter
          (fun (v', types) ->
            (* every out edge of v appears as an in edge of v' *)
            let back =
              Mgraph.Multigraph.adjacency g Mgraph.Multigraph.In v'
            in
            let found =
              Array.exists
                (fun (u, types') -> u = v && Mgraph.Sorted_ints.equal types types')
                back
            in
            if not found then ok := false)
          (Mgraph.Multigraph.adjacency g Mgraph.Multigraph.Out v)
      done;
      !ok)

let prop_edge_membership =
  QCheck.Test.make ~name:"every added edge is queryable" ~count:200
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create (seed + 1) in
      let g, edges = random_graph rng in
      List.for_all (fun (v, t, v') -> Mgraph.Multigraph.has_edge g v t v') edges)

let prop_fold_counts =
  QCheck.Test.make ~name:"fold_edges visits each atomic edge once" ~count:200
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create (seed + 2) in
      let g, _ = random_graph rng in
      let folded =
        Mgraph.Multigraph.fold_edges (fun _ tys _ acc -> acc + Array.length tys) g 0
      in
      folded = Mgraph.Multigraph.triple_edge_count g)

(* Adding edges can only grow a vertex's synopsis (monotonicity keeps
   Lemma 1 usable as the graph grows). *)
let prop_synopsis_monotone =
  QCheck.Test.make ~name:"synopsis grows monotonically with edges" ~count:200
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create (seed + 3) in
      let n = 4 in
      (* The builder is single-shot, so each step rebuilds the graph
         from the accumulated edge list. *)
      let edges = ref [] in
      let build es =
        let b = Mgraph.Multigraph.Builder.create () in
        Mgraph.Multigraph.Builder.add_vertex b (n - 1);
        List.iter (fun (v, t, v') -> Mgraph.Multigraph.Builder.add_edge b v t v') es;
        Mgraph.Multigraph.Builder.build b
      in
      let ok = ref true in
      for _ = 1 to 10 do
        let before = build !edges in
        let v = Datagen.Prng.int rng n
        and t = Datagen.Prng.int rng 6
        and v' = Datagen.Prng.int rng n in
        edges := (v, t, v') :: !edges;
        let after = build !edges in
        for u = 0 to n - 1 do
          let s_before = Mgraph.Synopsis.of_vertex before u in
          let s_after = Mgraph.Synopsis.of_vertex after u in
          (* after dominates before: every feature grew or held *)
          if not (Mgraph.Synopsis.dominates ~data:s_after ~query:s_before) then
            ok := false
        done
      done;
      !ok)

(* --- Namespace / Dict corners ------------------------------------------ *)

let test_namespace_bindings () =
  let ns = Rdf.Namespace.common in
  let bindings = Rdf.Namespace.bindings ns in
  checkb "sorted by prefix" true
    (List.sort compare bindings = bindings);
  checkb "has rdf" true (List.mem_assoc "rdf" bindings)

let test_dict_iter () =
  let d = Mgraph.Dict.create () in
  List.iter (fun s -> ignore (Mgraph.Dict.intern d s)) [ "a"; "b"; "c" ];
  let order =
    List.init (Mgraph.Dict.size d) (fun id -> (Mgraph.Dict.value d id, id))
  in
  checkb "values in id order" true
    (order = [ ("a", 0); ("b", 1); ("c", 2) ])

(* --- Workload knobs ------------------------------------------------------ *)

let test_workload_iri_rate () =
  let triples = Datagen.Lubm.generate ~universities:1 () in
  let corpus = Datagen.Workload.corpus triples in
  let count_constants rate =
    let queries =
      Datagen.Workload.generate ~seed:3 ~iri_rate:rate corpus
        ~shape:Datagen.Workload.Complex ~size:8 ~count:10
    in
    List.fold_left
      (fun acc ast ->
        List.fold_left
          (fun acc p ->
            let is_const = function Sparql.Ast.Iri _ -> 1 | _ -> 0 in
            acc + is_const p.Sparql.Ast.subject + is_const p.Sparql.Ast.obj)
          acc ast.Sparql.Ast.where)
      0 queries
  in
  checki "iri_rate 0 yields no constant entities" 0 (count_constants 0.0);
  checkb "higher rate yields more constants" true
    (count_constants 0.9 > count_constants 0.1)

let test_dataset_specs () =
  let specs = Datagen.Dataset.all ~scale:0.01 () in
  checki "three datasets" 3 (List.length specs);
  List.iter
    (fun spec ->
      let triples = spec.Datagen.Dataset.load () in
      checkb (spec.Datagen.Dataset.name ^ " non-empty") true (triples <> []))
    specs

(* --- ORDER BY stability --------------------------------------------------- *)

let test_order_by_stable () =
  (* Rows tied on the sort key keep their original relative order. *)
  let e = Amber.Engine.build Fixtures.paper_triples in
  let src =
    {|SELECT ?p ?c WHERE { ?p <http://dbpedia.org/ontology/livedIn> ?c } ORDER BY ?c|}
  in
  let a1 = Fixtures.select e src in
  let a2 = Fixtures.select e src in
  checkb "deterministic" true (a1.Amber.Engine.rows = a2.Amber.Engine.rows)

(* --- Engine.add-style rebuild (to_triples append) -------------------------- *)

let test_extend_database () =
  let e = Amber.Engine.build Fixtures.paper_triples in
  let extra =
    Rdf.Triple.spo "http://dbpedia.org/resource/Amy_Winehouse"
      "http://dbpedia.org/ontology/wasBornIn"
      (Rdf.Term.iri "http://dbpedia.org/resource/Camden")
  in
  let e2 =
    Amber.Engine.build (extra :: Amber.Database.to_triples (Amber.Engine.db e))
  in
  let count engine =
    let answer =
      Fixtures.select engine
        {|SELECT ?c WHERE { <http://dbpedia.org/resource/Amy_Winehouse> <http://dbpedia.org/ontology/wasBornIn> ?c }|}
    in
    List.length answer.Amber.Engine.rows
  in
  checki "original" 1 (count e);
  checki "extended" 2 (count e2)

let suite =
  [
    ( "more-units",
      [
        QCheck_alcotest.to_alcotest prop_adjacency_symmetry;
        QCheck_alcotest.to_alcotest prop_edge_membership;
        QCheck_alcotest.to_alcotest prop_fold_counts;
        QCheck_alcotest.to_alcotest prop_synopsis_monotone;
        Alcotest.test_case "namespace bindings" `Quick test_namespace_bindings;
        Alcotest.test_case "dict iter" `Quick test_dict_iter;
        Alcotest.test_case "workload iri rate" `Quick test_workload_iri_rate;
        Alcotest.test_case "dataset specs" `Quick test_dataset_specs;
        Alcotest.test_case "order by deterministic" `Quick test_order_by_stable;
        Alcotest.test_case "extend database" `Quick test_extend_database;
      ] );
  ]
