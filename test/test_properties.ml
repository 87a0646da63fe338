(* Randomized whole-engine properties:
   - AMbER agrees with the brute-force reference on arbitrary BGPs
     carved from random data (with variable sharing, constants,
     literals, disconnection and self loops);
   - the decomposition invariants of Section 5 hold on random query
     graphs. *)

module Reference = Baselines.Reference_eval

let checkb = Alcotest.(check bool)

(* Random data multigraph in the common fragment. *)
let random_data rng =
  let n = 8 + Datagen.Prng.int rng 8 in
  let e i = Printf.sprintf "http://t/e%d" i in
  let p i = Printf.sprintf "http://t/p%d" i in
  let lp i = Printf.sprintf "http://t/lp%d" i in
  let triples = ref [] in
  for _ = 1 to 30 + Datagen.Prng.int rng 30 do
    let s = Datagen.Prng.int rng n and o = Datagen.Prng.int rng n in
    triples :=
      Rdf.Triple.spo (e s) (p (Datagen.Prng.int rng 4)) (Rdf.Term.iri (e o))
      :: !triples
  done;
  (* a couple of self loops *)
  for _ = 1 to 2 do
    let v = Datagen.Prng.int rng n in
    triples :=
      Rdf.Triple.spo (e v) (p (Datagen.Prng.int rng 4)) (Rdf.Term.iri (e v))
      :: !triples
  done;
  for v = 0 to n - 1 do
    if Datagen.Prng.bool rng 0.5 then
      triples :=
        Rdf.Triple.spo (e v)
          (lp (Datagen.Prng.int rng 2))
          (Rdf.Term.literal (Printf.sprintf "val%d" (Datagen.Prng.int rng 3)))
        :: !triples
  done;
  !triples

(* Random BGP: pick data triples and randomly generalize entities to
   shared variables or keep them constant; sometimes force a self loop
   or a literal pattern. *)
let random_query rng triples =
  let structural =
    List.filter
      (fun t -> not (Rdf.Term.is_literal t.Rdf.Triple.obj))
      triples
  in
  let literal_triples =
    List.filter (fun t -> Rdf.Term.is_literal t.Rdf.Triple.obj) triples
  in
  let var_of = Hashtbl.create 8 in
  let var_count = ref 0 in
  let term_of entity =
    match Hashtbl.find_opt var_of entity with
    | Some t -> t
    | None ->
        let t =
          if Datagen.Prng.bool rng 0.25 then
            (* constant *)
            Sparql.Ast.Iri entity
          else begin
            (* a variable; sometimes reuse an existing one to force
               surprising joins *)
            if !var_count > 0 && Datagen.Prng.bool rng 0.2 then
              Sparql.Ast.Var (Printf.sprintf "X%d" (Datagen.Prng.int rng !var_count))
            else begin
              let v = Printf.sprintf "X%d" !var_count in
              incr var_count;
              Sparql.Ast.Var v
            end
          end
        in
        Hashtbl.add var_of entity t;
        t
  in
  let pattern_of_triple t =
    let iri_of = function Rdf.Term.Iri i -> i | _ -> assert false in
    Sparql.Ast.pattern
      (term_of (iri_of t.Rdf.Triple.subject))
      (Sparql.Ast.Iri (iri_of t.Rdf.Triple.predicate))
      (term_of (iri_of t.Rdf.Triple.obj))
  in
  let k = 1 + Datagen.Prng.int rng 4 in
  let structural_arr = Array.of_list structural in
  let patterns =
    List.init k (fun _ -> pattern_of_triple (Datagen.Prng.choice rng structural_arr))
  in
  let patterns =
    (* maybe a literal pattern *)
    if literal_triples <> [] && Datagen.Prng.bool rng 0.5 then begin
      let t =
        Datagen.Prng.choice rng (Array.of_list literal_triples)
      in
      let lit =
        match t.Rdf.Triple.obj with Rdf.Term.Literal l -> l | _ -> assert false
      in
      let iri_of = function Rdf.Term.Iri i -> i | _ -> assert false in
      Sparql.Ast.pattern
        (term_of (iri_of t.Rdf.Triple.subject))
        (Sparql.Ast.Iri (iri_of t.Rdf.Triple.predicate))
        (Sparql.Ast.Lit lit)
      :: patterns
    end
    else patterns
  in
  let patterns =
    (* maybe an explicit self-loop pattern *)
    if Datagen.Prng.bool rng 0.2 then
      Sparql.Ast.pattern (Sparql.Ast.Var "L")
        (Sparql.Ast.Iri (Printf.sprintf "http://t/p%d" (Datagen.Prng.int rng 4)))
        (Sparql.Ast.Var "L")
      :: patterns
    else patterns
  in
  (* Deduplicate identical patterns: the reference evaluates them once
     anyway, and so does the query multigraph. *)
  Sparql.Ast.make Sparql.Ast.Select_all patterns

let prop_amber_matches_reference =
  QCheck.Test.make ~name:"amber = brute force on random BGPs" ~count:120
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create seed in
      let triples = random_data rng in
      let engine = Amber.Engine.build triples in
      let ok = ref true in
      for _ = 1 to 4 do
        let ast = random_query rng triples in
        let expected = Reference.canonical_answer triples ast in
        let got =
          Reference.canonical_rows (Amber.Engine.query engine ast).Amber.Engine.rows
        in
        if got <> expected then ok := false
      done;
      !ok)

let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"parallel = sequential on random BGPs" ~count:40
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create (seed + 9999) in
      let triples = random_data rng in
      let engine = Amber.Engine.build triples in
      let ast = random_query rng triples in
      let seq = (Amber.Engine.query engine ast).Amber.Engine.rows in
      let par =
        (Amber.Engine.query ~opts:{ Amber.Engine.Opts.default with domains = 3 } engine ast)
          .Amber.Engine.rows
      in
      seq = par)

(* Decomposition invariants (Section 5). *)
let prop_decompose_invariants =
  QCheck.Test.make ~name:"decomposition invariants" ~count:150
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create (seed + 31) in
      let triples = random_data rng in
      let db = Amber.Database.of_triples triples in
      let ast = random_query rng triples in
      match Amber.Query_graph.build db ast with
      | Amber.Query_graph.Unsatisfiable _ -> true
      | Amber.Query_graph.Query q ->
          let plan = Amber.Decompose.plan q in
          let n = Amber.Query_graph.vertex_count q in
          let ordered =
            Array.to_list plan.Amber.Decompose.components
            |> List.concat_map (fun c ->
                   Array.to_list c.Amber.Decompose.core_order)
          in
          (* 1. ordered core vertices are exactly the core set *)
          let core_set = List.sort_uniq compare ordered in
          let expected_core =
            List.filter
              (fun u -> plan.Amber.Decompose.is_core.(u))
              (List.init n Fun.id)
          in
          let inv1 = core_set = expected_core in
          (* 2. every satellite has a core anchor adjacent to it *)
          let inv2 =
            List.for_all
              (fun u ->
                plan.Amber.Decompose.is_core.(u)
                ||
                let a = plan.Amber.Decompose.anchor_of.(u) in
                a >= 0
                && plan.Amber.Decompose.is_core.(a)
                && Amber.Query_graph.multi_edges_between q u a <> [])
              (List.init n Fun.id)
          in
          (* 3. satellites_of lists exactly the satellites *)
          let inv3 =
            List.for_all
              (fun u ->
                List.for_all
                  (fun s -> plan.Amber.Decompose.anchor_of.(s) = u)
                  plan.Amber.Decompose.satellites_of.(u))
              (List.init n Fun.id)
          in
          (* 4. self-loop vertices are always core *)
          let inv4 =
            List.for_all
              (fun u ->
                Array.length q.Amber.Query_graph.self_loops.(u) = 0
                || plan.Amber.Decompose.is_core.(u))
              (List.init n Fun.id)
          in
          (* 5. within a component, each core vertex after the first is
             adjacent to an earlier one *)
          let inv5 =
            Array.for_all
              (fun (c : Amber.Decompose.component) ->
                let order = c.Amber.Decompose.core_order in
                let ok = ref true in
                for i = 1 to Array.length order - 1 do
                  let connected = ref false in
                  for j = 0 to i - 1 do
                    if
                      Amber.Query_graph.multi_edges_between q order.(i) order.(j)
                      <> []
                    then connected := true
                  done;
                  (* promoted singleton components aside, connectivity
                     must hold *)
                  if not !connected then ok := false
                done;
                !ok)
              plan.Amber.Decompose.components
          in
          inv1 && inv2 && inv3 && inv4 && inv5)

(* --- Sorted_ints kernel agreement (satellite of the set-algebra PR) ---
   The adaptive intersection dispatches between three kernels; all of
   them — and the derived algebra — must agree with a naive reference on
   arbitrary operands, including empty, singleton, heavily skewed and
   bitset-dense shapes. *)

let random_sorted rng ~max_len ~span =
  let n = Datagen.Prng.int rng (max_len + 1) in
  (* Offset into negatives: the bitset kernel's span base must not
     assume non-negative elements. *)
  Mgraph.Sorted_ints.of_list
    (List.init n (fun _ -> Datagen.Prng.int rng span - (span / 3)))

let naive_inter a b =
  Array.of_list (List.filter (fun x -> Array.mem x b) (Array.to_list a))

let naive_union a b = Mgraph.Sorted_ints.of_list (Array.to_list (Array.append a b))

let naive_diff a b =
  Array.of_list (List.filter (fun x -> not (Array.mem x b)) (Array.to_list a))

(* (max_len_a, span_a, max_len_b, span_b): similar sizes, skew both
   ways past the gallop ratio, dense large operands (bitset territory),
   sparse large operands, singletons and empties. *)
let operand_shapes =
  [|
    (40, 120, 40, 120);
    (4, 50, 1500, 4000);
    (1500, 4000, 4, 50);
    (1400, 1800, 1400, 1800);
    (1200, 100_000, 1200, 100_000);
    (1, 10, 600, 900);
    (0, 1, 30, 60);
  |]

let prop_inter_kernels_agree =
  QCheck.Test.make ~name:"intersection kernels agree" ~count:120
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create (seed + 101) in
      let ok = ref true in
      Array.iter
        (fun (la, sa, lb, sb) ->
          let a = random_sorted rng ~max_len:la ~span:sa in
          let b = random_sorted rng ~max_len:lb ~span:sb in
          let expect = naive_inter a b in
          List.iter
            (fun kernel ->
              let got = kernel a b in
              if not (Mgraph.Sorted_ints.is_sorted got && got = expect) then
                ok := false)
            [
              Mgraph.Sorted_ints.inter;
              Mgraph.Sorted_ints.inter_merge;
              Mgraph.Sorted_ints.inter_gallop;
              Mgraph.Sorted_ints.inter_bitset;
            ])
        operand_shapes;
      !ok)

let prop_set_algebra_agrees =
  QCheck.Test.make ~name:"union/diff/subset agree with reference" ~count:120
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create (seed + 211) in
      let ok = ref true in
      Array.iter
        (fun (la, sa, lb, sb) ->
          let a = random_sorted rng ~max_len:la ~span:sa in
          let b = random_sorted rng ~max_len:lb ~span:sb in
          let u = Mgraph.Sorted_ints.union a b in
          if not (Mgraph.Sorted_ints.is_sorted u && u = naive_union a b) then
            ok := false;
          let d = Mgraph.Sorted_ints.diff a b in
          if not (Mgraph.Sorted_ints.is_sorted d && d = naive_diff a b) then
            ok := false;
          let naive_subset a b = Array.for_all (fun x -> Array.mem x b) a in
          if Mgraph.Sorted_ints.subset a b <> naive_subset a b then ok := false;
          (* A genuine subset (the skewed path must also accept). *)
          if not (Mgraph.Sorted_ints.subset (naive_inter a b) b) then ok := false)
        operand_shapes;
      !ok)

let prop_aliasing_returns =
  QCheck.Test.make ~name:"aliasing returns" ~count:120
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create (seed + 307) in
      let ok = ref true in
      for _ = 1 to 4 do
        let (la, sa, lb, sb) =
          Datagen.Prng.choice rng operand_shapes
        in
        let a = random_sorted rng ~max_len:la ~span:sa in
        let b = random_sorted rng ~max_len:lb ~span:sb in
        (* When the result equals an operand, the kernels hand the
           operand back physically instead of copying. *)
        if Array.length a > 0 && Mgraph.Sorted_ints.inter a a != a then
          ok := false;
        let sub = naive_inter a b in
        if Array.length sub > 0 then begin
          if Mgraph.Sorted_ints.inter_merge sub b != sub then ok := false;
          if Mgraph.Sorted_ints.inter_gallop sub b != sub then ok := false;
          if Mgraph.Sorted_ints.inter_bitset sub b != sub then ok := false
        end;
        if Array.length a > 0 then begin
          if Mgraph.Sorted_ints.union a [||] != a then ok := false;
          if Mgraph.Sorted_ints.diff a [||] != a then ok := false
        end
      done;
      !ok)

(* Engine answers are insensitive to pattern order. *)
let prop_pattern_order_irrelevant =
  QCheck.Test.make ~name:"answers ignore pattern order" ~count:60
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create (seed + 77) in
      let triples = random_data rng in
      let engine = Amber.Engine.build triples in
      let ast = random_query rng triples in
      (* Pin the projection: SELECT * orders columns by first occurrence,
         which shuffling would change. *)
      let ast =
        {
          ast with
          Sparql.Ast.select =
            Sparql.Ast.Select_vars
              (List.sort compare (Sparql.Ast.variables ast));
        }
      in
      let shuffled =
        let arr = Array.of_list ast.Sparql.Ast.where in
        Datagen.Prng.shuffle rng arr;
        { ast with Sparql.Ast.where = Array.to_list arr }
      in
      Reference.canonical_rows (Amber.Engine.query engine ast).Amber.Engine.rows
      = Reference.canonical_rows
          (Amber.Engine.query engine shuffled).Amber.Engine.rows)

let suite =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest prop_amber_matches_reference;
        QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
        QCheck_alcotest.to_alcotest prop_decompose_invariants;
        QCheck_alcotest.to_alcotest prop_inter_kernels_agree;
        QCheck_alcotest.to_alcotest prop_set_algebra_agrees;
        QCheck_alcotest.to_alcotest prop_aliasing_returns;
        QCheck_alcotest.to_alcotest prop_pattern_order_irrelevant;
      ] );
  ]
