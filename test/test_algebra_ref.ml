(* Randomized check of the extended evaluator: a reference
   implementation of the algebra combinators over the brute-force BGP
   evaluator must agree with Amber.Extended (which runs BGPs on the
   engine) on random algebra trees over random data. *)

module Reference = Baselines.Reference_eval

let checkb = Alcotest.(check bool)

type binding = (string * Rdf.Term.t) list

let compatible (a : binding) b =
  List.for_all
    (fun (v, t) ->
      match List.assoc_opt v b with
      | None -> true
      | Some t' -> Rdf.Term.equal t t')
    a

let merge (a : binding) b =
  List.fold_left
    (fun acc (v, t) -> if List.mem_assoc v acc then acc else (v, t) :: acc)
    a b

(* Reference algebra semantics over Reference.solutions, written
   independently of Amber.Extended. Generated filters are restricted to
   BOUND, equality and negation, re-implemented below with SPARQL's
   three-valued error handling. *)
let rec ref_eval triples (p : Sparql.Algebra.pattern) : binding list =
  match p with
  | Sparql.Algebra.Bgp [] -> [ [] ]
  | Sparql.Algebra.Bgp patterns ->
      Reference.solutions triples (Sparql.Ast.make Sparql.Ast.Select_all patterns)
  | Sparql.Algebra.Join (a, b) ->
      let right = ref_eval triples b in
      List.concat_map
        (fun mu_a ->
          List.filter_map
            (fun mu_b ->
              if compatible mu_a mu_b then Some (merge mu_a mu_b) else None)
            right)
        (ref_eval triples a)
  | Sparql.Algebra.Union (a, b) -> ref_eval triples a @ ref_eval triples b
  | Sparql.Algebra.Optional (a, b) ->
      let right = ref_eval triples b in
      List.concat_map
        (fun mu_a ->
          match
            List.filter_map
              (fun mu_b ->
                if compatible mu_a mu_b then Some (merge mu_a mu_b) else None)
              right
          with
          | [] -> [ mu_a ]
          | ext -> ext)
        (ref_eval triples a)
  | Sparql.Algebra.Filter (e, inner) ->
      List.filter (fun mu -> ref_filter mu e) (ref_eval triples inner)

(* Three-valued filter evaluation, as SPARQL requires: an unbound
   variable in a comparison is an error, and errors propagate through
   [!]; a row is kept only when the expression evaluates to true. *)
and ref_filter mu e =
  let rec ev = function
    | Sparql.Algebra.E_bound v -> `B (List.mem_assoc v mu)
    | Sparql.Algebra.E_not e -> (
        match ev e with `B b -> `B (not b) | `Err -> `Err)
    | Sparql.Algebra.E_eq (Sparql.Algebra.E_var a, Sparql.Algebra.E_var b) -> (
        match (List.assoc_opt a mu, List.assoc_opt b mu) with
        | Some t1, Some t2 -> `B (Rdf.Term.equal t1 t2)
        | _ -> `Err)
    | _ -> assert false (* generator only emits the cases above *)
  in
  match ev e with `B b -> b | `Err -> false

(* Random data and random algebra trees. *)
let random_triples rng =
  let n = 6 + Datagen.Prng.int rng 5 in
  let e i = Printf.sprintf "http://t/e%d" i in
  let p i = Printf.sprintf "http://t/p%d" i in
  List.init (18 + Datagen.Prng.int rng 15) (fun _ ->
      Rdf.Triple.spo
        (e (Datagen.Prng.int rng n))
        (p (Datagen.Prng.int rng 3))
        (Rdf.Term.iri (e (Datagen.Prng.int rng n))))

let random_bgp rng =
  let var () = Printf.sprintf "X%d" (Datagen.Prng.int rng 4) in
  let pred () = Printf.sprintf "http://t/p%d" (Datagen.Prng.int rng 3) in
  Sparql.Algebra.Bgp
    (List.init (1 + Datagen.Prng.int rng 2) (fun _ ->
         Sparql.Ast.pattern (Sparql.Ast.Var (var ()))
           (Sparql.Ast.Iri (pred ()))
           (Sparql.Ast.Var (var ()))))

let rec random_pattern rng depth =
  if depth = 0 then random_bgp rng
  else
    match Datagen.Prng.int rng 5 with
    | 0 -> Sparql.Algebra.Join (random_pattern rng (depth - 1), random_pattern rng (depth - 1))
    | 1 -> Sparql.Algebra.Union (random_pattern rng (depth - 1), random_pattern rng (depth - 1))
    | 2 ->
        Sparql.Algebra.Optional
          (random_pattern rng (depth - 1), random_pattern rng (depth - 1))
    | 3 ->
        let v = Printf.sprintf "X%d" (Datagen.Prng.int rng 4) in
        let e =
          if Datagen.Prng.bool rng 0.5 then Sparql.Algebra.E_bound v
          else
            Sparql.Algebra.E_eq
              ( Sparql.Algebra.E_var v,
                Sparql.Algebra.E_var (Printf.sprintf "X%d" (Datagen.Prng.int rng 4)) )
        in
        let e = if Datagen.Prng.bool rng 0.3 then Sparql.Algebra.E_not e else e in
        Sparql.Algebra.Filter (e, random_pattern rng (depth - 1))
    | _ -> random_bgp rng

let canon_bindings (bs : binding list) =
  List.sort compare
    (List.map
       (fun mu ->
         List.sort compare (List.map (fun (v, t) -> (v, Rdf.Term.to_string t)) mu))
       bs)

let prop_extended_matches_reference =
  QCheck.Test.make ~name:"extended evaluator = reference algebra" ~count:80
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create seed in
      let triples = random_triples rng in
      let engine = Amber.Engine.build triples in
      let pattern = random_pattern rng (1 + Datagen.Prng.int rng 2) in
      let q =
        {
          Sparql.Algebra.select = Sparql.Ast.Select_all;
          distinct = false;
          pattern;
          order_by = [];
          limit = None;
          offset = None;
        }
      in
      let got =
        Fixtures.rows_of (Amber.Engine.run engine (`Parsed (Sparql.Parser.Q_algebra q)))
      in
      (* Rebuild bindings from the answer's rows. *)
      let got_bindings =
        List.map
          (fun row ->
            List.concat
              (List.map2
                 (fun v cell -> match cell with Some t -> [ (v, t) ] | None -> [])
                 got.Amber.Engine.variables row))
          got.Amber.Engine.rows
      in
      canon_bindings got_bindings = canon_bindings (ref_eval triples pattern))

let suite =
  [ ("algebra-reference", [ QCheck_alcotest.to_alcotest prop_extended_matches_reference ]) ]
