(* Quickstart: build an AMbER engine from a handful of triples and run
   a SPARQL query — the paper's running example (Figures 1 and 2).

   Run with: dune exec examples/quickstart.exe *)

let data =
  {|<http://ex/London> <http://ex/isPartOf> <http://ex/England> .
<http://ex/England> <http://ex/hasCapital> <http://ex/London> .
<http://ex/Christopher_Nolan> <http://ex/wasBornIn> <http://ex/London> .
<http://ex/Christopher_Nolan> <http://ex/livedIn> <http://ex/England> .
<http://ex/London> <http://ex/hasStadium> <http://ex/WembleyStadium> .
<http://ex/WembleyStadium> <http://ex/hasCapacityOf> "90000" .
<http://ex/Amy_Winehouse> <http://ex/wasBornIn> <http://ex/London> .
<http://ex/Amy_Winehouse> <http://ex/diedIn> <http://ex/London> .
<http://ex/Amy_Winehouse> <http://ex/wasPartOf> <http://ex/Music_Band> .
<http://ex/Music_Band> <http://ex/hasName> "MCA_Band" .
<http://ex/Music_Band> <http://ex/wasFormedIn> <http://ex/London> .|}

let query =
  {|PREFIX ex: <http://ex/>
    SELECT ?person ?band WHERE {
      ?person ex:wasBornIn ?city .
      ?person ex:diedIn ?city .
      ?person ex:wasPartOf ?band .
      ?band ex:hasName "MCA_Band" .
      ?band ex:wasFormedIn ?city .
      ?city ex:hasStadium ?stadium .
      ?stadium ex:hasCapacityOf "90000" .
    }|}

let () =
  (* 1. Parse N-Triples. *)
  let triples = Rdf.Ntriples.parse_string data in
  Printf.printf "Loaded %d triples.\n" (List.length triples);

  (* 2. Offline stage: multigraph transformation + indexes A, S, N. *)
  let engine = Amber.Engine.build triples in
  Format.printf "%a@." Amber.Database.pp_stats (Amber.Engine.db engine);

  (* 3. Online stage: answer a SPARQL query. *)
  let answer = Amber.Engine.query engine (Sparql.Parser.parse query) in
  Printf.printf "\n%s\n\nResults:\n" (String.concat ", " answer.variables);
  List.iter
    (fun row ->
      let cell = function
        | Some term -> Rdf.Term.to_string term
        | None -> "<unbound>"
      in
      print_endline ("  " ^ String.concat "  " (List.map cell row)))
    answer.rows;
  Printf.printf "(%d rows)\n" (List.length answer.rows)
