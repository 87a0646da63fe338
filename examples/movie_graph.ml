(* A DBpedia-flavoured knowledge-graph walkthrough:
   - namespaces and prefixed queries,
   - multigraph structure (several predicates between the same pair),
   - the literal-binding extension (open objects),
   - inspecting AMbER's query decomposition.

   Run with: dune exec examples/movie_graph.exe *)

let dbr r = "http://dbpedia.org/resource/" ^ r
let dbo p = "http://dbpedia.org/ontology/" ^ p

let iri = Rdf.Term.iri
let lit s = Rdf.Term.literal s
let t s p o = Rdf.Triple.spo s p o

let triples =
  [
    (* Nolan's films: multigraph edges (director AND writer between the
       same pair of nodes). *)
    t (dbr "Inception") (dbo "director") (iri (dbr "Christopher_Nolan"));
    t (dbr "Inception") (dbo "writer") (iri (dbr "Christopher_Nolan"));
    t (dbr "Inception") (dbo "starring") (iri (dbr "Leonardo_DiCaprio"));
    t (dbr "Inception") (dbo "releaseYear") (lit "2010");
    t (dbr "Interstellar") (dbo "director") (iri (dbr "Christopher_Nolan"));
    t (dbr "Interstellar") (dbo "writer") (iri (dbr "Jonathan_Nolan"));
    t (dbr "Interstellar") (dbo "starring") (iri (dbr "Matthew_McConaughey"));
    t (dbr "Interstellar") (dbo "releaseYear") (lit "2014");
    t (dbr "Dunkirk") (dbo "director") (iri (dbr "Christopher_Nolan"));
    t (dbr "Dunkirk") (dbo "writer") (iri (dbr "Christopher_Nolan"));
    t (dbr "Dunkirk") (dbo "releaseYear") (lit "2017");
    t (dbr "The_Departed") (dbo "director") (iri (dbr "Martin_Scorsese"));
    t (dbr "The_Departed") (dbo "starring") (iri (dbr "Leonardo_DiCaprio"));
    t (dbr "The_Departed") (dbo "releaseYear") (lit "2006");
    (* People. *)
    t (dbr "Christopher_Nolan") (dbo "birthPlace") (iri (dbr "London"));
    t (dbr "Christopher_Nolan") (dbo "name") (lit "Christopher Nolan");
    t (dbr "Jonathan_Nolan") (dbo "birthPlace") (iri (dbr "London"));
    t (dbr "Martin_Scorsese") (dbo "birthPlace") (iri (dbr "New_York_City"));
    t (dbr "Leonardo_DiCaprio") (dbo "birthPlace") (iri (dbr "Los_Angeles"));
  ]

let engine = lazy (Amber.Engine.build triples)

let select ?open_objects e src =
  Amber.Engine.query ?open_objects e (Sparql.Parser.parse src)

let show title answer =
  Printf.printf "\n-- %s\n" title;
  Printf.printf "%s\n" (String.concat " | " answer.Amber.Engine.variables);
  List.iter
    (fun row ->
      let cell = function
        | Some term -> (
            match Rdf.Namespace.compact Rdf.Namespace.common (
                match term with Rdf.Term.Iri i -> i | _ -> "") with
            | Some short when Rdf.Term.is_iri term -> short
            | _ -> Rdf.Term.to_string term)
        | None -> "<unbound>"
      in
      print_endline ("  " ^ String.concat " | " (List.map cell row)))
    answer.Amber.Engine.rows

let () =
  let e = Lazy.force engine in

  (* Films Christopher Nolan both directed and wrote: a multi-edge
     query — one pair of query vertices, two predicates. *)
  show "directed AND wrote (multi-edge)"
    (select e
       {|PREFIX dbo: <http://dbpedia.org/ontology/>
         PREFIX dbr: <http://dbpedia.org/resource/>
         SELECT ?film WHERE {
           ?film dbo:director dbr:Christopher_Nolan .
           ?film dbo:writer dbr:Christopher_Nolan .
         }|});

  (* A join through a shared birthplace. *)
  show "directors born where a writer was born"
    (select e
       {|PREFIX dbo: <http://dbpedia.org/ontology/>
         SELECT DISTINCT ?director ?writer WHERE {
           ?film dbo:director ?director .
           ?film2 dbo:writer ?writer .
           ?director dbo:birthPlace ?city .
           ?writer dbo:birthPlace ?city .
         }|});

  (* Literal constants become vertex attributes. *)
  show "films released in 2010"
    (select e
       {|PREFIX dbo: <http://dbpedia.org/ontology/>
         SELECT ?film WHERE { ?film dbo:releaseYear "2010" . }|});

  (* Literal variables need the open-objects extension: release years
     are folded into attributes, so a faithful-model query cannot bind
     them. *)
  show "release years (open-objects extension)"
    (select ~open_objects:true e
       {|PREFIX dbo: <http://dbpedia.org/ontology/>
         PREFIX dbr: <http://dbpedia.org/resource/>
         SELECT ?film ?year WHERE {
           ?film dbo:director dbr:Christopher_Nolan .
           ?film dbo:releaseYear ?year .
         }|});

  (* Peek at the engine's query decomposition. *)
  let ast =
    Sparql.Parser.parse
      {|PREFIX dbo: <http://dbpedia.org/ontology/>
        SELECT * WHERE {
          ?film dbo:director ?d .
          ?film dbo:starring ?actor .
          ?film dbo:releaseYear "2010" .
          ?d dbo:birthPlace ?city .
        }|}
  in
  (match Amber.Query_graph.build (Amber.Engine.db e) ast with
  | Amber.Query_graph.Query q ->
      print_newline ();
      print_endline "-- decomposition of the star-ish query";
      Format.printf "%a@." Amber.Query_graph.pp q;
      let plan = Amber.Decompose.plan q in
      Array.iteri
        (fun u name ->
          Printf.printf "  ?%s: %s\n" name
            (if plan.Amber.Decompose.is_core.(u) then "core" else "satellite"))
        q.Amber.Query_graph.var_names
  | Amber.Query_graph.Unsatisfiable { proof; _ } ->
      Printf.printf "unsatisfiable: %s\n"
        (Amber.Analysis.proof_to_string proof))
