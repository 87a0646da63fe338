(* The answer check must catch a tampered row: swapping one binding for
   another term of the data makes the row unsound and changes the
   fingerprint. Run with [dune test perfbench]. *)

let ex s = Rdf.Term.Iri ("http://ex/" ^ s)
let t s p o = { Rdf.Triple.subject = ex s; predicate = ex p; obj = ex o }

let triples =
  [
    t "alice" "knows" "bob";
    t "bob" "knows" "carol";
    t "carol" "knows" "dave";
    t "alice" "livesIn" "paris";
    t "bob" "livesIn" "rome";
    t "carol" "livesIn" "paris";
  ]

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let engine = Amber.Engine.build triples in
  let ast =
    Sparql.Parser.parse
      "SELECT * WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/livesIn> ?c }"
  in
  let answer = Amber.Engine.query engine ast in
  let world = Check.world_of triples in
  if List.length answer.rows <> 2 then fail "expected 2 rows, got %d" (List.length answer.rows);
  (match Check.unsound_row world ast answer with
  | None -> ()
  | Some m -> fail "untampered answer rejected: %s" m);
  (* Tamper: bind the city of the first row to a city of the data that
     the row's person does not live in. *)
  let col = Option.get (List.find_index (( = ) "c") answer.variables) in
  let tamper row =
    List.mapi
      (fun i cell ->
        if i <> col then cell
        else if cell = Some (ex "rome") then Some (ex "paris")
        else Some (ex "rome"))
      row
  in
  let tampered =
    { answer with rows = (match answer.rows with r :: rest -> tamper r :: rest | [] -> []) }
  in
  (match Check.unsound_row world ast tampered with
  | Some _ -> ()
  | None -> fail "tampered row not caught");
  if Check.fingerprint tampered = Check.fingerprint answer then
    fail "tampered answer has the untampered fingerprint";
  (* A row bound to a term outside the data is caught too. *)
  let foreign =
    {
      answer with
      rows =
        List.map (List.mapi (fun i c -> if i = col then Some (ex "atlantis") else c)) answer.rows;
    }
  in
  (match Check.unsound_row world ast foreign with
  | Some _ -> ()
  | None -> fail "row bound outside the data not caught");
  print_endline "selftest: tampered rows caught"
