type profile = {
  entities : int;
  edges : int;
  object_predicates : int;
  literal_predicates : int;
  zipf_exponent : float;
  literal_rate : float;
}

let dbpedia_like ?(scale = 1.0) () =
  {
    entities = int_of_float (60_000.0 *. scale);
    edges = int_of_float (180_000.0 *. scale);
    object_predicates = 220;
    literal_predicates = 40;
    zipf_exponent = 1.1;
    literal_rate = 1.2;
  }

let yago_like ?(scale = 1.0) () =
  {
    entities = int_of_float (55_000.0 *. scale);
    edges = int_of_float (170_000.0 *. scale);
    object_predicates = 38;
    literal_predicates = 6;
    zipf_exponent = 0.8;
    literal_rate = 0.8;
  }

let entity_iri i = Printf.sprintf "http://example.org/resource/E%d" i
let predicate_iri p = Printf.sprintf "http://example.org/ontology/p%d" p
let literal_predicate_iri p = Printf.sprintf "http://example.org/ontology/lit%d" p

let generate ?(seed = 7) ?(skew = 0.0) profile =
  if profile.entities < 2 then invalid_arg "Scale_free.generate: too few entities";
  if skew < 0.0 then invalid_arg "Scale_free.generate: negative skew";
  let rng = Prng.create seed in
  let triples = ref [] in
  let emit s p o = triples := Rdf.Triple.spo s p o :: !triples in
  (* Preferential attachment: targets are drawn from a pool that every
     placed endpoint re-enters (degree-proportional choice), seeded with
     each entity once plus a handful of heavily-weighted "hub" entities —
     the category/type-like nodes that give knowledge graphs their
     heavy-tailed in-degree. *)
  let pool_list = ref [] in
  let push v = pool_list := v :: !pool_list in
  for v = 0 to profile.entities - 1 do
    push v
  done;
  (* [skew] exaggerates the hubs: their seed weight grows with it, and
     the uniform dash below shrinks, so degree mass concentrates — the
     knob the planner benchmarks turn to make the fixed paper plan pay
     for seeding through hub-dominated synopses. [skew = 0.] reproduces
     the historical shape exactly (same PRNG draw sequence). *)
  let hubs = max 1 (profile.entities / 200) in
  let hub_weight = 40 + int_of_float (skew *. 400.0) in
  for h = 0 to hubs - 1 do
    for _ = 1 to hub_weight do
      push h
    done
  done;
  let pool = ref (Array.of_list !pool_list) in
  let pick_preferential () =
    (* Mostly degree-proportional, with a uniform dash for coverage. *)
    let uniform_dash = Float.max 0.02 (0.15 /. (1.0 +. (4.0 *. skew))) in
    if Prng.bool rng uniform_dash then Prng.int rng profile.entities
    else !pool.(Prng.int rng (Array.length !pool))
  in
  let extra = ref [] and extra_count = ref 0 in
  let refresh_pool () =
    if !extra_count > Array.length !pool / 2 then begin
      pool := Array.append !pool (Array.of_list !extra);
      extra := [];
      extra_count := 0
    end
  in
  (* Precomputed Zipf CDF over the predicate vocabulary; binary search
     per draw. *)
  let cdf =
    let n = profile.object_predicates in
    let a = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) profile.zipf_exponent);
      a.(i) <- !acc
    done;
    a
  in
  let zipf_pred () =
    let target = Prng.float rng *. cdf.(Array.length cdf - 1) in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < target then search (mid + 1) hi else search lo mid
    in
    search 0 (Array.length cdf - 1)
  in
  for _ = 1 to profile.edges do
    let s = pick_preferential () in
    let o = ref (pick_preferential ()) in
    if !o = s then o := (s + 1 + Prng.int rng (profile.entities - 1)) mod profile.entities;
    let p = zipf_pred () in
    emit (entity_iri s) (predicate_iri p) (Rdf.Term.iri (entity_iri !o));
    extra := s :: !o :: !extra;
    extra_count := !extra_count + 2;
    refresh_pool ()
  done;
  (* Literal attributes: a mix of shared category-like values (selective
     joins) and unique labels. *)
  let categories =
    Array.init 50 (fun i -> Printf.sprintf "category-%d" i)
  in
  for v = 0 to profile.entities - 1 do
    let k =
      let expected = profile.literal_rate in
      let base = int_of_float expected in
      base + if Prng.bool rng (expected -. float_of_int base) then 1 else 0
    in
    for _ = 1 to k do
      let p = Prng.int rng profile.literal_predicates in
      let value =
        if Prng.bool rng 0.5 then Prng.choice rng categories
        else Printf.sprintf "label-%d-%d" v p
      in
      emit (entity_iri v) (literal_predicate_iri p) (Rdf.Term.literal value)
    done
  done;
  List.rev !triples
