(* Turtle input and the extended SPARQL algebra (UNION / OPTIONAL /
   FILTER) — the paper's §8 "other SPARQL operations", implemented on
   top of the AMbER engine.

   Run with: dune exec examples/extended_queries.exe *)

let turtle_data =
  {|@prefix ex: <http://books.example/> .

    ex:dune a ex:Novel ;
      ex:title "Dune" ;
      ex:author ex:herbert ;
      ex:year 1965 ;
      ex:pages 412 .

    ex:neuromancer a ex:Novel ;
      ex:title "Neuromancer" ;
      ex:author ex:gibson ;
      ex:year 1984 ;
      ex:pages 271 .

    ex:burning_chrome a ex:Stories ;
      ex:title "Burning Chrome" ;
      ex:author ex:gibson ;
      ex:year 1986 .

    ex:herbert ex:name "Frank Herbert" ;
      ex:bornIn ex:tacoma .
    ex:gibson ex:name "William Gibson" ;
      ex:bornIn ex:conway ;
      ex:livesIn ex:vancouver .
  |}

let show title (answer : Amber.Engine.answer) =
  Printf.printf "\n-- %s\n%s\n" title
    (String.concat " | " answer.variables);
  List.iter
    (fun row ->
      print_endline
        ("  "
        ^ String.concat " | "
            (List.map
               (function
                 | Some t -> Rdf.Term.to_string t
                 | None -> "<unbound>")
               row)))
    answer.rows

let () =
  let triples = Rdf.Turtle.parse_string turtle_data in
  Printf.printf "Parsed %d triples from Turtle.\n" (List.length triples);
  let engine = Amber.Engine.build triples in
  (* One entry point answers every query form: a plain SELECT runs on
     the BGP pipeline, UNION / OPTIONAL / FILTER combine its leaves. *)
  let run src =
    match (Amber.Engine.run ~open_objects:true engine (`Text src)).Amber.Engine.result with
    | Amber.Engine.Rows answer -> answer
    | Amber.Engine.Boolean _ | Amber.Engine.Triples _ ->
        invalid_arg "expected a SELECT query"
  in

  show "novels OR story collections (UNION)"
    (run
       {|PREFIX ex: <http://books.example/>
         SELECT ?work WHERE {
           { ?work a ex:Novel } UNION { ?work a ex:Stories }
         }|});

  show "authors and, when known, where they live (OPTIONAL)"
    (run
       {|PREFIX ex: <http://books.example/>
         SELECT ?author ?city WHERE {
           ?work ex:author ?author .
           OPTIONAL { ?author ex:livesIn ?city }
         }|});

  show "books from before 1980 (FILTER on a literal variable)"
    (run
       {|PREFIX ex: <http://books.example/>
         SELECT ?title ?year WHERE {
           ?work ex:title ?title .
           ?work ex:year ?year .
           FILTER(?year < 1980)
         }|});

  show "gibson's works without a page count (OPTIONAL + !BOUND)"
    (run
       {|PREFIX ex: <http://books.example/>
         SELECT ?title WHERE {
           ?work ex:author ex:gibson .
           ?work ex:title ?title .
           OPTIONAL { ?work ex:pages ?p }
           FILTER(!BOUND(?p))
         }|});

  show "titles matching a regex"
    (run
       {|PREFIX ex: <http://books.example/>
         SELECT ?title WHERE {
           ?work ex:title ?title .
           FILTER(REGEX(?title, "^.u"))
         }|})
