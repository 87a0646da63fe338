(* Answer checks. Every returned row must be sound against the data: each
   WHERE pattern, instantiated with the row's bindings, is a triple of
   the dataset. A fingerprint summarizes an answer so that later
   executions of the same query on the same world can be compared to a
   checked one without keeping the rows. *)

module Triples = Hashtbl.Make (struct
  type t = Rdf.Triple.t

  let equal = Rdf.Triple.equal
  let hash = Rdf.Triple.hash
end)

type world = unit Triples.t

let world_of triples =
  let w = Triples.create (2 * List.length triples) in
  List.iter (fun t -> Triples.replace w t ()) triples;
  w

let add world triples = List.iter (fun t -> Triples.replace world t ()) triples
let remove world triples = List.iter (fun t -> Triples.remove world t) triples
let world_triples world = Triples.fold (fun t () acc -> t :: acc) world []

(* [None] when every row is sound, otherwise a description of the first
   unsound row. *)
let unsound_row world (ast : Sparql.Ast.t) (answer : Amber.Engine.answer) =
  let columns = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace columns v i) answer.variables;
  let bind row = function
    | Sparql.Ast.Iri s -> Some (Rdf.Term.Iri s)
    | Sparql.Ast.Lit l -> Some (Rdf.Term.Literal l)
    | Sparql.Ast.Var v -> (
        match Hashtbl.find_opt columns v with
        | Some i -> row.(i)
        | None -> None)
  in
  let row_ok row =
    List.for_all
      (fun (p : Sparql.Ast.triple_pattern) ->
        match (bind row p.subject, bind row p.predicate, bind row p.obj) with
        | Some s, Some pr, Some o ->
            Triples.mem world { Rdf.Triple.subject = s; predicate = pr; obj = o }
        | _ -> false)
      ast.where
  in
  let rec go i = function
    | [] -> None
    | row :: rest ->
        if row_ok (Array.of_list row) then go (i + 1) rest
        else Some (Printf.sprintf "row %d does not match the data" i)
  in
  go 0 answer.rows

(* Order-independent: the sum of per-row hashes, the row count and the
   truncation flag. *)
type fingerprint = { rows : int; truncated : bool; digest : int }

let fingerprint (answer : Amber.Engine.answer) =
  let cell acc = function
    | None -> (acc * 31) + 7
    | Some t -> (acc * 31) + Rdf.Term.hash t
  in
  let digest =
    List.fold_left
      (fun acc row -> (acc + Hashtbl.hash (List.fold_left cell 17 row)) land max_int)
      0 answer.rows
  in
  { rows = List.length answer.rows; truncated = answer.truncated; digest }

(* Same rows, in any order. *)
let same_rows (a : Amber.Engine.answer) (b : Amber.Engine.answer) =
  a.variables = b.variables
  && List.sort compare a.rows = List.sort compare b.rows
