(* Shared test data, centred on the paper's running example
   (Figure 1a): the London / Amy Winehouse / Christopher Nolan
   tripleset. *)

let x res = "http://dbpedia.org/resource/" ^ res
let y prop = "http://dbpedia.org/ontology/" ^ prop

let iri = Rdf.Term.iri
let lit s = Rdf.Term.literal s

(* The sixteen triples of Figure 1a. *)
let paper_triples =
  [
    Rdf.Triple.spo (x "London") (y "isPartOf") (iri (x "England"));
    Rdf.Triple.spo (x "England") (y "hasCapital") (iri (x "London"));
    Rdf.Triple.spo (x "Christopher_Nolan") (y "wasBornIn") (iri (x "London"));
    Rdf.Triple.spo (x "Christopher_Nolan") (y "livedIn") (iri (x "England"));
    Rdf.Triple.spo (x "Christopher_Nolan") (y "isPartOf")
      (iri (x "Dark_Knight_Trilogy"));
    Rdf.Triple.spo (x "London") (y "hasStadium") (iri (x "WembleyStadium"));
    Rdf.Triple.spo (x "WembleyStadium") (y "hasCapacityOf") (lit "90000");
    Rdf.Triple.spo (x "Amy_Winehouse") (y "wasBornIn") (iri (x "London"));
    Rdf.Triple.spo (x "Amy_Winehouse") (y "diedIn") (iri (x "London"));
    Rdf.Triple.spo (x "Amy_Winehouse") (y "wasPartOf") (iri (x "Music_Band"));
    Rdf.Triple.spo (x "Music_Band") (y "hasName") (lit "MCA_Band");
    Rdf.Triple.spo (x "Music_Band") (y "foundedIn") (lit "1994");
    Rdf.Triple.spo (x "Music_Band") (y "wasFormedIn") (iri (x "London"));
    Rdf.Triple.spo (x "Amy_Winehouse") (y "livedIn") (iri (x "United_States"));
    Rdf.Triple.spo (x "Amy_Winehouse") (y "wasMarriedTo")
      (iri (x "Blake_Fielder-Civil"));
    Rdf.Triple.spo (x "Blake_Fielder-Civil") (y "livedIn")
      (iri (x "United_States"));
  ]

(* The SPARQL query of Figure 2a, adjusted to the facts above so it has
   exactly one embedding (the paper's figure mixes 1934/1994 and
   hasName/hasAName typos; we use the data's values). *)
let paper_query_text =
  Printf.sprintf
    {|
    SELECT ?X0 ?X1 ?X2 ?X3 ?X4 ?X5 ?X6 WHERE {
      ?X0 <%s> ?X1 .
      ?X1 <%s> ?X2 .
      ?X2 <%s> ?X1 .
      ?X1 <%s> ?X4 .
      ?X3 <%s> ?X1 .
      ?X3 <%s> ?X1 .
      ?X3 <%s> ?X6 .
      ?X3 <%s> ?X5 .
      ?X5 <%s> ?X1 .
      ?X4 <%s> "90000" .
      ?X5 <%s> "MCA_Band" .
      ?X5 <%s> "1994" .
      ?X3 <%s> <%s> .
    }|}
    (y "wasBornIn") (y "isPartOf") (y "hasCapital") (y "hasStadium")
    (y "wasBornIn") (y "diedIn") (y "wasMarriedTo") (y "wasPartOf")
    (y "wasFormedIn") (y "hasCapacityOf") (y "hasName") (y "foundedIn")
    (y "livedIn") (x "United_States")

(* A small social-network style dataset exercised by several suites. *)
let social_triples =
  let knows = "http://xmlns.com/foaf/0.1/knows" in
  let name = "http://xmlns.com/foaf/0.1/name" in
  let person i = Printf.sprintf "http://example.org/p%d" i in
  List.concat
    [
      List.concat_map
        (fun (a, b) -> [ Rdf.Triple.spo (person a) knows (iri (person b)) ])
        [ (0, 1); (1, 2); (2, 0); (0, 2); (3, 0); (3, 1); (4, 3); (2, 4) ];
      List.init 5 (fun i ->
          Rdf.Triple.spo (person i) name (lit (Printf.sprintf "person-%d" i)));
    ]

let parse_query src = Sparql.Parser.parse src

(* Any SELECT as an algebra query: [Q_algebra] as parsed, a basic one
   lifted. *)
let algebra_query src =
  match Sparql.Parser.parse_any src with
  | Sparql.Parser.Q_algebra q -> q
  | Sparql.Parser.Q_select ast -> Sparql.Algebra.of_basic ast
  | Sparql.Parser.Q_ask _ | Sparql.Parser.Q_construct _ ->
      invalid_arg "algebra_query: not a SELECT"

(* The rows of a run whose query is a SELECT. *)
let rows_of (r : Amber.Engine.run_result) =
  match r.Amber.Engine.result with
  | Amber.Engine.Rows answer -> answer
  | Amber.Engine.Boolean _ | Amber.Engine.Triples _ ->
      Alcotest.fail "expected a SELECT's rows"

(* [Engine.run] over query text, for a SELECT's rows. *)
let select ?opts ?timeout ?open_objects e src =
  rows_of (Amber.Engine.run ?opts ?timeout ?open_objects e (`Text src))

(* --- compressed posting lists ---------------------------------------- *)

(* [triples] plus two literals that [Mgraph.Posting.of_array]'s layout
   rule stores compressed in the attribute index: one carried by the
   first 96 vertices in id order (a contiguous run: Blocked) and one by
   every eighth of the first 512 (64 ids spread over 505: Elias-Fano).
   Vertex ids follow first appearance in the triple list, subject before
   object, and the new triples come last, so they add no vertex.
   @raise Invalid_argument under 512 vertices. *)
let with_compressed_attributes triples =
  let seen = Hashtbl.create 1024 and order = ref [] in
  let note term =
    if not (Hashtbl.mem seen term) then begin
      Hashtbl.add seen term ();
      order := term :: !order
    end
  in
  List.iter
    (fun { Rdf.Triple.subject; obj; _ } ->
      note subject;
      match obj with Rdf.Term.Literal _ -> () | _ -> note obj)
    triples;
  let vertices = Array.of_list (List.rev !order) in
  if Array.length vertices < 512 then
    invalid_arg "with_compressed_attributes: fewer than 512 vertices";
  let tag value v =
    Rdf.Triple.make vertices.(v) (iri "http://example.org/test/tag") (lit value)
  in
  triples
  @ List.init 96 (tag "dense")
  @ List.init 64 (fun i -> tag "sparse" (8 * i))

(* Ef and Blocked list counts of an engine's adjacency and attribute
   index, by name, for the cases that must run over compressed lists. *)
let compressed_census engine =
  let adjacency = Mgraph.Posting.fresh_stats () in
  Mgraph.Multigraph.posting_stats
    (Amber.Database.graph (Amber.Engine.db engine))
    adjacency;
  let attribute =
    Amber.Attribute_index.posting_stats (Amber.Engine.attribute_index engine)
  in
  Mgraph.Posting.
    [
      ("adjacency ef", adjacency.ef_lists);
      ("adjacency blocked", adjacency.blocked_lists);
      ("attribute ef", attribute.ef_lists);
      ("attribute blocked", attribute.blocked_lists);
    ]

(* Fail unless every count of {!compressed_census} is non-zero, so that
   coverage of the compressed layouts cannot vanish silently. *)
let check_compressed label engine =
  List.iter
    (fun (what, count) ->
      if count = 0 then Alcotest.failf "%s: no %s lists" label what)
    (compressed_census engine)
