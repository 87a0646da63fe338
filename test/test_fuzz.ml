(* Robustness fuzzing: every parser must either succeed or fail with its
   own documented exception — never crash with anything else — on
   arbitrary byte soup and on mutated valid inputs. *)

let gen_garbage =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 1 255)) (int_range 0 200))

(* Mutations of valid documents: flip a byte, truncate, duplicate. *)
let mutate rng s =
  if String.length s = 0 then s
  else
    match Datagen.Prng.int rng 3 with
    | 0 ->
        let i = Datagen.Prng.int rng (String.length s) in
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (1 + Datagen.Prng.int rng 255));
        Bytes.to_string b
    | 1 -> String.sub s 0 (Datagen.Prng.int rng (String.length s))
    | _ -> s ^ s

let valid_nt = Rdf.Ntriples.to_string Fixtures.paper_triples

let valid_sparql = Fixtures.paper_query_text

let valid_turtle =
  {|@prefix ex: <http://e/> . ex:a ex:p ex:b ; ex:q "v"@en , 42 .|}

let valid_binary =
  let buf = Buffer.create 256 in
  Rdf.Binary.write buf Fixtures.paper_triples;
  Buffer.contents buf

let total_attempts = 400

let no_crash name parse inputs =
  QCheck.Test.make ~name ~count:total_attempts
    (QCheck.make QCheck.Gen.(pair gen_garbage int))
    (fun (garbage, seed) ->
      let rng = Datagen.Prng.create seed in
      let candidates = garbage :: List.map (mutate rng) inputs in
      List.for_all
        (fun src -> match parse src with `Handled -> true | `Crash -> false)
        candidates)

let prop_ntriples =
  no_crash "ntriples parser never crashes"
    (fun src ->
      match Rdf.Ntriples.parse_string src with
      | _ -> `Handled
      | exception Rdf.Ntriples.Parse_error _ -> `Handled
      | exception _ -> `Crash)
    [ valid_nt ]

let prop_turtle =
  no_crash "turtle parser never crashes"
    (fun src ->
      match Rdf.Turtle.parse_string src with
      | _ -> `Handled
      | exception Rdf.Turtle.Parse_error _ -> `Handled
      | exception _ -> `Crash)
    [ valid_turtle; valid_nt ]

let prop_sparql =
  no_crash "sparql parser never crashes"
    (fun src ->
      match Sparql.Parser.parse src with
      | _ -> `Handled
      | exception Sparql.Parser.Error _ -> `Handled
      | exception _ -> `Crash)
    [ valid_sparql ]

let prop_sparql_algebra =
  no_crash "algebra parser never crashes"
    (fun src ->
      match Sparql.Parser.parse_any src with
      | _ -> `Handled
      | exception Sparql.Parser.Error _ -> `Handled
      | exception _ -> `Crash)
    [ valid_sparql; "SELECT * WHERE { { ?a <http://p> ?b } UNION { ?a <http://q> ?b } FILTER(?b > 3) }" ]

let prop_binary =
  no_crash "binary reader never crashes"
    (fun src ->
      match Rdf.Binary.read src ~pos:0 with
      | _ -> `Handled
      | exception Rdf.Binary.Corrupt _ -> `Handled
      | exception _ -> `Crash)
    [ valid_binary ]

(* Any query the parser accepts must be answerable (or cleanly rejected
   as Unsupported) by the engine without crashing. *)
let prop_engine_total =
  let engine = lazy (Amber.Engine.build Fixtures.paper_triples) in
  QCheck.Test.make ~name:"engine is total on parseable queries" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_garbage int))
    (fun (garbage, seed) ->
      let rng = Datagen.Prng.create seed in
      let src = mutate rng valid_sparql ^ mutate rng garbage in
      match Sparql.Parser.parse src with
      | exception Sparql.Parser.Error _ -> true
      | ast -> (
          match Amber.Engine.query ~timeout:2.0 (Lazy.force engine) ast with
          | _ -> true
          | exception Amber.Engine.Unsupported _ -> true
          | exception Amber.Deadline.Expired -> true
          | exception _ -> false))

(* The engine fuzz, pushed down to the matcher: the parallel path must
   be just as total as the sequential one on whatever the parser lets
   through, and when both paths answer they must agree as row sets. *)
let prop_parallel_engine =
  let engine = lazy (Amber.Engine.build Fixtures.paper_triples) in
  QCheck.Test.make ~name:"parallel engine is total and agrees with sequential"
    ~count:150
    (QCheck.make QCheck.Gen.(pair gen_garbage int))
    (fun (garbage, seed) ->
      let rng = Datagen.Prng.create seed in
      let src = mutate rng valid_sparql ^ mutate rng garbage in
      match Sparql.Parser.parse src with
      | exception Sparql.Parser.Error _ -> true
      | ast -> (
          let run domains =
            match
              Amber.Engine.query ~opts:{ Amber.Engine.Opts.default with domains } ~timeout:2.0
                (Lazy.force engine) ast
            with
            | a ->
                `Rows
                  (Baselines.Reference_eval.canonical_rows a.Amber.Engine.rows)
            | exception Amber.Engine.Unsupported _ -> `Unsupported
            | exception Amber.Deadline.Expired -> `Timeout
            | exception _ -> `Crash
          in
          match (run 1, run 3) with
          | `Crash, _ | _, `Crash -> false
          | `Timeout, _ | _, `Timeout -> true
          | a, b -> a = b))

let suite =
  [
    ( "fuzz",
      [
        Qseed.to_alcotest prop_ntriples;
        Qseed.to_alcotest prop_turtle;
        Qseed.to_alcotest prop_sparql;
        Qseed.to_alcotest prop_sparql_algebra;
        Qseed.to_alcotest prop_binary;
        Qseed.to_alcotest prop_engine_total;
        Qseed.to_alcotest prop_parallel_engine;
      ] );
  ]
