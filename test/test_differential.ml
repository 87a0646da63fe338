(* Differential correctness harness: on randomized small multigraphs
   and generated workloads, sequential AMbER, parallel AMbER (4 domains),
   every planner policy (paper, adaptive, each forced seed strategy),
   the ablations (by-degree and arbitrary core order, no satellite
   decomposition), the semantic rewriter on and off (including a redundancy-biased
   generator that makes core minimization actually fire) and the
   brute-force oracle must produce identical canonical row sets —
   both on frozen engines (uniform and skewed graph shapes) and under
   randomized schedules of inserts, deletes and compactions against a
   live engine, where a query pinned before a write must never observe
   it. Any disagreement prints the offending seed and query so the case
   can be replayed and shrunk. *)

module Reference = Baselines.Reference_eval
module TSet = Set.Make (Rdf.Triple)

let default = Amber.Engine.Opts.default

(* Random small multigraph with literal attributes, in the common
   fragment (object/datatype predicates disjoint). Kept independent of
   the cross-engine suite's generator so the two suites do not share
   blind spots in graph shape. *)
let random_triples seed =
  let rng = Datagen.Prng.create (0x5eed + seed) in
  let n = 10 + Datagen.Prng.int rng 14 in
  let e i = Printf.sprintf "http://d/e%d" i in
  let p i = Printf.sprintf "http://d/p%d" i in
  let lp i = Printf.sprintf "http://d/lp%d" i in
  let triples = ref [] in
  (* A denser nucleus plus a sparse fringe, so star queries find hubs
     and complex queries find cycles. *)
  for _ = 1 to 30 + Datagen.Prng.int rng 50 do
    let s = Datagen.Prng.int rng n in
    let o =
      if Datagen.Prng.bool rng 0.3 then Datagen.Prng.int rng (max 1 (n / 3))
      else Datagen.Prng.int rng n
    in
    triples :=
      Rdf.Triple.spo (e s)
        (p (Datagen.Prng.int rng 4))
        (Rdf.Term.iri (e o))
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

let queries_for seed triples =
  let corpus = Datagen.Workload.corpus triples in
  Datagen.Workload.generate ~seed corpus ~shape:Datagen.Workload.Star ~size:3
    ~count:2
  @ Datagen.Workload.generate ~seed:(seed + 500) corpus
      ~shape:Datagen.Workload.Complex ~size:4 ~count:2

(* Counts every (graph, query) comparison actually performed, so the
   suite can assert the differential coverage the harness promises. *)
let cases_checked = ref 0

let check_one seed triples ast =
  incr cases_checked;
  let expected = Reference.canonical_answer triples ast in
  let engine = Amber.Engine.build triples in
  let screened = Amber.Engine.query engine ast in
  let seq = Reference.canonical_rows screened.Amber.Engine.rows in
  let par =
    Reference.canonical_rows
      (Amber.Engine.query ~opts:{ default with domains = 4 } engine ast)
        .Amber.Engine.rows
  in
  (* The semantic rewriter (on by default above) must be invisible in
     the canonical answer set. *)
  let unrewritten =
    Reference.canonical_rows
      (Amber.Engine.query ~opts:{ default with rewrite = false } engine ast)
        .Amber.Engine.rows
  in
  (* The static screen must be invisible: an unsat proof means the
     oracle and an unscreened embedding count both find nothing. *)
  let unsat =
    Amber.Analysis.unsat_proof (Amber.Engine.analyze engine ast) <> None
  in
  if
    unsat
    && (expected <> [] || Amber.Engine.count_embeddings engine ast <> 0)
  then
    Qseed.fail_reportf
      "seed %d: unsat proof but %d oracle rows, %d embeddings on:@.%s" seed
      (List.length expected)
      (Amber.Engine.count_embeddings engine ast)
      (Sparql.Ast.to_string ast)
  else if unrewritten <> expected then
    Qseed.fail_reportf
      "seed %d: rewrite=off disagrees with oracle (%d vs %d rows) on:@.%s"
      seed
      (List.length unrewritten)
      (List.length expected) (Sparql.Ast.to_string ast)
  else if seq <> expected then
    Qseed.fail_reportf
      "seed %d: sequential AMbER disagrees with oracle (%d vs %d rows) on:@.%s"
      seed (List.length seq) (List.length expected) (Sparql.Ast.to_string ast)
  else if par <> expected then
    Qseed.fail_reportf
      "seed %d: parallel AMbER (4 domains) disagrees with oracle (%d vs %d \
       rows) on:@.%s"
      seed (List.length par) (List.length expected) (Sparql.Ast.to_string ast)
  else true

let prop_differential =
  QCheck.Test.make ~name:"sequential = parallel = oracle on random graphs"
    ~count:60
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
      List.for_all (check_one seed triples) (queries_for seed triples))

(* The acceptance bar: at least 200 (graph, query) comparisons with zero
   mismatches. Runs after the property, which fails loudly on mismatch,
   so reaching here with a low count means the generator regressed. *)
let test_coverage () =
  Alcotest.(check bool)
    (Printf.sprintf "differential harness checked %d cases (>= 200)"
       !cases_checked)
    true
    (!cases_checked >= 200)

(* --- plan agreement ----------------------------------------------------- *)

(* Every planner policy the engine accepts, then the ablations: the
   ordering heuristics that replace the plan's core order and the
   decomposition without satellites. They steer seed-vertex strategy,
   core ordering and search shape only; the contract under test is that
   the canonical answer set never moves. *)
let plans =
  List.map
    (fun (name, plan) -> (name, { default with plan }))
    Amber.Stats.
      [
        ("paper", Paper);
        ("adaptive", Adaptive);
        ("forced:attrs", Forced Attrs);
        ("forced:scan", Forced Scan);
      ]
  @ [
      ("order:by-degree", { default with order = Some Amber.Decompose.By_degree });
      ("order:arbitrary", { default with order = Some Amber.Decompose.Arbitrary });
      ("satellites:off", { default with satellites = false });
    ]

let plan_cases = ref 0

(* Heavier-tailed variant of [random_triples]: two hub vertices receive
   most in-edges and carry every attribute while the fringe rarely does,
   so cardinality estimates diverge sharply across vertices and the
   adaptive planner makes genuinely different choices than the paper
   heuristic. *)
let skewed_triples seed =
  let rng = Datagen.Prng.create (0xb1a5 + seed) in
  let n = 12 + Datagen.Prng.int rng 12 in
  let e i = Printf.sprintf "http://d/e%d" i in
  let p i = Printf.sprintf "http://d/p%d" i in
  let lp i = Printf.sprintf "http://d/lp%d" i in
  let triples = ref [] in
  for _ = 1 to 50 + Datagen.Prng.int rng 60 do
    let s = Datagen.Prng.int rng n in
    let o =
      if Datagen.Prng.bool rng 0.8 then Datagen.Prng.int rng 2
      else Datagen.Prng.int rng n
    in
    triples :=
      Rdf.Triple.spo (e s)
        (p (Datagen.Prng.int rng 3))
        (Rdf.Term.iri (e o))
      :: !triples
  done;
  for v = 0 to n - 1 do
    if v < 2 || Datagen.Prng.bool rng 0.25 then
      triples :=
        Rdf.Triple.spo (e v)
          (lp (Datagen.Prng.int rng 2))
          (Rdf.Term.literal (Printf.sprintf "w%d" (Datagen.Prng.int rng 2)))
        :: !triples
  done;
  !triples

let check_plans label seed triples ast =
  let expected = Reference.canonical_answer triples ast in
  let engine = Amber.Engine.build triples in
  List.for_all
    (fun (name, opts) ->
      incr plan_cases;
      let got =
        Reference.canonical_rows
          (Amber.Engine.query ~opts engine ast).Amber.Engine.rows
      in
      if got <> expected then
        Qseed.fail_reportf
          "seed %d (%s): options %s disagree with oracle (%d vs %d rows) \
           on:@.%s"
          seed label name (List.length got) (List.length expected)
          (Sparql.Ast.to_string ast)
      else true)
    plans

let prop_plan_agreement =
  QCheck.Test.make
    ~name:
      "paper = adaptive = every forced strategy = every order and \
       satellite ablation = oracle (uniform + skew)"
    ~count:30
    (QCheck.make
       ~print:(fun seed ->
         let skewed = skewed_triples seed in
         Printf.sprintf "seed %d (%d skewed triples):\n%s" seed
           (List.length skewed)
           (String.concat "\n"
              (List.map Sparql.Ast.to_string
                 (queries_for (seed + 77) skewed))))
       ~shrink:QCheck.Shrink.int
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let uniform = random_triples seed in
      let skewed = skewed_triples seed in
      List.for_all (check_plans "uniform" seed uniform)
        (queries_for seed uniform)
      && List.for_all (check_plans "skewed" seed skewed)
           (queries_for (seed + 77) skewed))

(* 30 seeds x (2 + 2 queries) x 2 graph shapes x 7 option sets = 1680. *)
let test_plan_coverage () =
  Alcotest.(check bool)
    (Printf.sprintf "plan-agreement harness checked %d cases (>= 500)"
       !plan_cases)
    true
    (!plan_cases >= 500)

(* --- rewriter differential ---------------------------------------------- *)

(* Redundancy-biased transform: wrap a generated query in DISTINCT,
   project a subset of its variables, then graft verbatim duplicates and
   a variable-renamed partial copy of the clause — material the rewriter
   provably may remove (the copy folds back onto the originals under the
   homomorphism sending each renamed variable home). Biased, not rigged:
   whether anything actually fires still depends on the draw. *)
let redundant_variant rng ast =
  let open Sparql.Ast in
  let vars = variables ast in
  let keep =
    List.filteri (fun i _ -> i = 0 || Datagen.Prng.bool rng 0.4) vars
  in
  let rename = function Var v -> Var (v ^ "_r") | t -> t in
  let copy =
    List.filter_map
      (fun p ->
        if Datagen.Prng.bool rng 0.7 then
          Some
            {
              subject = rename p.subject;
              predicate = p.predicate;
              obj = rename p.obj;
            }
        else None)
      ast.where
  in
  let dups = List.filter (fun _ -> Datagen.Prng.bool rng 0.4) ast.where in
  make ~distinct:true (Select_vars keep) (ast.where @ dups @ copy)

let redundant_variants_for seed triples =
  let rng = Datagen.Prng.create (0x2e11 + seed) in
  List.concat_map
    (fun ast -> [ redundant_variant rng ast; redundant_variant rng ast ])
    (queries_for seed triples)

let rewrite_cases = ref 0
let minimizations_fired = ref 0

let check_rewrite seed engine triples ast =
  incr rewrite_cases;
  List.iter
    (fun (s : Amber.Rewrite.step) ->
      match s.Amber_rewrite.kind with
      | Amber_rewrite.Core_minimization _ -> incr minimizations_fired
      | _ -> ())
    (Amber.Rewrite.apply ~db:(Amber.Engine.db engine)
       ~attribute:(Amber.Engine.attribute_index engine)
       ~stats:(lazy (Amber.Engine.statistics engine))
       ast)
      .Amber.Rewrite.steps;
  let expected = Reference.canonical_answer triples ast in
  let on =
    Reference.canonical_rows (Amber.Engine.query engine ast).Amber.Engine.rows
  in
  let off =
    Reference.canonical_rows
      (Amber.Engine.query ~opts:{ default with rewrite = false } engine ast)
        .Amber.Engine.rows
  in
  if on <> expected then
    Qseed.fail_reportf
      "seed %d: rewritten run disagrees with oracle (%d vs %d rows) on:@.%s"
      seed (List.length on) (List.length expected) (Sparql.Ast.to_string ast)
  else if off <> expected then
    Qseed.fail_reportf
      "seed %d: rewrite=off disagrees with oracle (%d vs %d rows) on:@.%s"
      seed (List.length off) (List.length expected)
      (Sparql.Ast.to_string ast)
  else true

let prop_rewrite_differential =
  QCheck.Test.make
    ~name:"rewritten = unrewritten = oracle on redundancy-biased queries"
    ~count:80
    (QCheck.make
       ~print:(fun seed ->
         let triples = random_triples seed in
         Printf.sprintf "seed %d (%d triples):\n%s" seed (List.length triples)
           (String.concat "\n"
              (List.map Sparql.Ast.to_string
                 (redundant_variants_for seed triples))))
       ~shrink:QCheck.Shrink.int
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let triples = random_triples seed in
      let engine = Amber.Engine.build triples in
      List.for_all
        (check_rewrite seed engine triples)
        (redundant_variants_for seed triples))

(* 80 seeds x 4 queries x 2 variants = 640 cases; the firing floor
   guards the property against vacuity — a generator that stopped
   producing removable redundancy would pass trivially. *)
let test_rewrite_coverage () =
  Alcotest.(check bool)
    (Printf.sprintf
       "rewriter differential checked %d cases (>= 600), core minimization \
        fired %d times (>= 50)"
       !rewrite_cases !minimizations_fired)
    true
    (!rewrite_cases >= 600 && !minimizations_fired >= 50)

(* --- update-interleaving schedules -------------------------------------- *)

let canonical engine ast =
  Reference.canonical_rows (Amber.Engine.query engine ast).Amber.Engine.rows

(* A random write batch over (and a little beyond) the schedule's
   vocabulary: fresh vertices and predicates appear, deletions are drawn
   from the current world plus some that miss. *)
let random_batch rng n world =
  let e i = Printf.sprintf "http://d/e%d" i in
  let p i = Printf.sprintf "http://d/p%d" i in
  let lp i = Printf.sprintf "http://d/lp%d" i in
  let v () = e (Datagen.Prng.int rng (n + 4)) in
  let random_edge () =
    Rdf.Triple.spo (v ())
      (p (Datagen.Prng.int rng 6))
      (Rdf.Term.iri (v ()))
  in
  let adds = ref [] in
  for _ = 1 to 1 + Datagen.Prng.int rng 6 do
    adds :=
      (if Datagen.Prng.bool rng 0.75 then random_edge ()
       else
         Rdf.Triple.spo (v ())
           (lp (Datagen.Prng.int rng 3))
           (Rdf.Term.literal (Printf.sprintf "w%d" (Datagen.Prng.int rng 4))))
      :: !adds
  done;
  let world_arr = Array.of_list (TSet.elements world) in
  let dels = ref [] in
  for _ = 1 to Datagen.Prng.int rng 4 do
    dels :=
      (if Datagen.Prng.bool rng 0.7 && Array.length world_arr > 0 then
         world_arr.(Datagen.Prng.int rng (Array.length world_arr))
       else random_edge ())
      :: !dels
  done;
  (!adds, !dels)

let schedules_run = ref 0
let interleaved_cases = ref 0

(* One schedule: a random sequence of update / compact / settle /
   observe steps against a live engine, with the brute-force oracle
   replaying the same writes on a plain triple set. [compact] returns
   before the new generation is built, so the updates and checks that
   follow it race the build until a [settle] (and one always ends the
   schedule). After EVERY step the current epoch must agree with the
   oracle, sequentially and on 4 domains; versions never go back; and an
   epoch pinned before the first write must keep answering the original
   world to the very end, whatever landed after it. *)
let run_schedule seed =
  incr schedules_run;
  let rng = Datagen.Prng.create (0x5c4ed + seed) in
  let base = TSet.elements (TSet.of_list (random_triples seed)) in
  let n = 24 in
  let live = Amber.Live_engine.of_engine (Amber.Engine.build base) in
  let world = ref (TSet.of_list base) in
  let pinned = Amber.Live_engine.pin live in
  let pin_queries = queries_for seed base in
  let pin_expected =
    List.map (canonical (Amber.Live_engine.engine pinned)) pin_queries
  in
  let check_current step =
    let merged = TSet.elements !world in
    let engine = Amber.Live_engine.engine (Amber.Live_engine.pin live) in
    List.iter
      (fun ast ->
        incr interleaved_cases;
        let expected = Reference.canonical_answer merged ast in
        let seq = canonical engine ast in
        let par =
          Reference.canonical_rows
            (Amber.Engine.query ~opts:{ default with domains = 4 } engine ast)
              .Amber.Engine.rows
        in
        (* The overlay inherits the base generation's (stale) statistics;
           the paper plan ignores them entirely. Both must still agree
           with the oracle after every update and across compactions. *)
        let paper =
          Reference.canonical_rows
            (Amber.Engine.query
               ~opts:{ default with plan = Amber.Stats.Paper }
               engine ast)
              .Amber.Engine.rows
        in
        let unrewritten =
          Reference.canonical_rows
            (Amber.Engine.query ~opts:{ default with rewrite = false } engine ast)
              .Amber.Engine.rows
        in
        if unrewritten <> expected then
          Qseed.fail_reportf
            "seed %d step %d: rewrite=off on live engine disagrees with \
             oracle (%d vs %d rows) on:@.%s"
            seed step
            (List.length unrewritten)
            (List.length expected) (Sparql.Ast.to_string ast)
        else if seq <> expected then
          Qseed.fail_reportf
            "seed %d step %d: live engine disagrees with oracle (%d vs %d \
             rows) on:@.%s"
            seed step (List.length seq) (List.length expected)
            (Sparql.Ast.to_string ast)
        else if par <> expected then
          Qseed.fail_reportf
            "seed %d step %d: parallel live engine (4 domains) disagrees \
             with oracle (%d vs %d rows) on:@.%s"
            seed step (List.length par) (List.length expected)
            (Sparql.Ast.to_string ast)
        else if paper <> expected then
          Qseed.fail_reportf
            "seed %d step %d: paper plan on live engine disagrees with \
             oracle (%d vs %d rows) on:@.%s"
            seed step (List.length paper) (List.length expected)
            (Sparql.Ast.to_string ast))
      (match merged with [] -> [] | _ -> queries_for (seed + step) merged)
  in
  let steps = 3 + Datagen.Prng.int rng 3 in
  let last_version = ref (Amber.Live_engine.version pinned) in
  (* The generation the running compaction will publish, until settled. *)
  let awaited = ref None in
  let published what step ep ~strictly =
    let v = Amber.Live_engine.version ep in
    if v < !last_version || (strictly && v = !last_version) then
      Qseed.fail_reportf "seed %d step %d: version not monotone after %s"
        seed step what;
    last_version := v
  in
  let settle step =
    let ep = Amber.Live_engine.settle live in
    (match !awaited with
    | Some g when Amber.Live_engine.generation ep <> g ->
        Qseed.fail_reportf "seed %d step %d: settled at generation %d, not %d"
          seed step (Amber.Live_engine.generation ep) g
    | _ -> ());
    published "settle" step ep ~strictly:false;
    awaited := None
  in
  for step = 1 to steps do
    (match Datagen.Prng.int rng 6 with
    | 0 | 1 | 2 ->
        let adds, dels = random_batch rng n !world in
        let ep = Amber.Live_engine.update live ~adds ~dels in
        world :=
          TSet.union (TSet.of_list adds) (TSet.diff !world (TSet.of_list dels));
        published "update" step ep ~strictly:true
    | 3 ->
        (* Returns at once; the updates and checks of the next steps
           land while the new generation builds. *)
        let ep = Amber.Live_engine.compact live in
        published "compact" step ep ~strictly:false;
        awaited := Some (Amber.Live_engine.generation ep + 1)
    | 4 -> settle step
    | _ -> (* observe-only step *) ());
    check_current step
  done;
  settle (steps + 1);
  check_current (steps + 1);
  (* Snapshot isolation: the pre-write pin never observed any of it. *)
  List.iter2
    (fun ast expected ->
      incr interleaved_cases;
      if canonical (Amber.Live_engine.engine pinned) ast <> expected then
        Qseed.fail_reportf
          "seed %d: epoch pinned before the schedule changed its answer \
           on:@.%s"
          seed (Sparql.Ast.to_string ast))
    pin_queries pin_expected;
  true

let prop_update_interleaving =
  QCheck.Test.make
    ~name:"live engine = oracle under random update/compact schedules"
    ~count:200
    (QCheck.make
       ~print:(fun seed ->
         Printf.sprintf "schedule seed %d (%d base triples)" seed
           (List.length (random_triples seed)))
       ~shrink:QCheck.Shrink.int
       QCheck.Gen.(int_bound 1_000_000))
    run_schedule

(* ≥ 200 schedules actually ran, each checked after every step. *)
let test_schedule_coverage () =
  Alcotest.(check bool)
    (Printf.sprintf
       "update-interleaving harness ran %d schedules (>= 200), %d \
        step-checks"
       !schedules_run !interleaved_cases)
    true
    (!schedules_run >= 200 && !interleaved_cases >= 200)

let suite =
  [
    ( "differential",
      [
        Qseed.to_alcotest prop_differential;
        Alcotest.test_case "coverage >= 200 cases" `Quick test_coverage;
        Qseed.to_alcotest prop_plan_agreement;
        Alcotest.test_case "plan coverage >= 500 cases" `Quick
          test_plan_coverage;
        Qseed.to_alcotest prop_rewrite_differential;
        Alcotest.test_case "rewrite coverage >= 600 cases, >= 50 fired"
          `Quick test_rewrite_coverage;
        Qseed.to_alcotest prop_update_interleaving;
        Alcotest.test_case "schedule coverage >= 200" `Quick
          test_schedule_coverage;
      ] );
  ]
