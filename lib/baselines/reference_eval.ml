(* Brute-force SPARQL BGP evaluator used as ground truth: backtracking
   directly over the triple list at term level, written independently of
   every engine under test. Exponential and proud of it. *)

type t = Rdf.Triple.t list

let name = "reference"
let load triples = List.sort_uniq Rdf.Triple.compare triples

type binding = (string * Rdf.Term.t) list

let term_matches binding pattern actual =
  match pattern with
  | Sparql.Ast.Iri i ->
      if Rdf.Term.equal (Rdf.Term.iri i) actual then Some binding else None
  | Sparql.Ast.Lit l ->
      if Rdf.Term.equal (Rdf.Term.Literal l) actual then Some binding else None
  | Sparql.Ast.Var v -> (
      match List.assoc_opt v binding with
      | Some existing ->
          if Rdf.Term.equal existing actual then Some binding else None
      | None -> Some ((v, actual) :: binding))

(* Sets of bindings with every element hashed: [Hashtbl.hash] reads
   only the first few strings of a list, so on a cross product of two
   components most bindings would share a bucket. *)
module Binding_table = Hashtbl.Make (struct
  type t = binding

  let equal = ( = )
  let hash b = List.fold_left (fun h (_, t) -> (h * 31) + Hashtbl.hash t) 0 b
end)

(* Greedy join order: repeatedly take the pattern with the most
   positions that are constants or variables bound by the patterns
   already taken, ties broken by written order. A BGP's solution set
   does not depend on join order; this one only keeps the backtracking
   from building cross products of patterns that share no variable. *)
let join_order patterns =
  let vars { Sparql.Ast.subject; predicate; obj } =
    List.filter_map
      (function
        | Sparql.Ast.Var v -> Some v
        | Sparql.Ast.Iri _ | Sparql.Ast.Lit _ -> None)
      [ subject; predicate; obj ]
  in
  let fixed bound { Sparql.Ast.subject; predicate; obj } =
    List.length
      (List.filter
         (function
           | Sparql.Ast.Var v -> List.mem v bound
           | Sparql.Ast.Iri _ | Sparql.Ast.Lit _ -> true)
         [ subject; predicate; obj ])
  in
  let rec pick bound remaining acc =
    match remaining with
    | [] -> List.rev acc
    | first :: _ ->
        let i, best =
          List.fold_left
            (fun (i, best) (j, p) ->
              if fixed bound p > fixed bound best then (j, p) else (i, best))
            first remaining
        in
        pick (vars best @ bound)
          (List.filter (fun (j, _) -> j <> i) remaining)
          (best :: acc)
  in
  pick [] (List.mapi (fun i p -> (i, p)) patterns) []

let solutions_within deadline triples (ast : Sparql.Ast.t) : binding list =
  let matches binding { Sparql.Ast.subject; predicate; obj }
      { Rdf.Triple.subject = s; predicate = p; obj = o } =
    match term_matches binding subject s with
    | None -> None
    | Some b1 -> (
        match term_matches b1 predicate p with
        | None -> None
        | Some b2 -> term_matches b2 obj o)
  in
  (* Each pattern's constants are tested once against the whole triple
     list (from an empty binding); the backtracking then walks only the
     triples that passed. *)
  let steps =
    List.map
      (fun pat -> (pat, List.filter (fun t -> matches [] pat t <> None) triples))
      (join_order ast.where)
  in
  let rec go steps binding =
    match steps with
    | [] -> [ binding ]
    | (pat, candidates) :: rest ->
        List.concat_map
          (fun t ->
            Amber.Deadline.check deadline;
            match matches binding pat t with
            | None -> []
            | Some b -> go rest b)
          candidates
  in
  (* Distinct full-variable mappings (pattern reordering must not change
     the answer set). Every binding lists its variables in the order the
     steps bind them, the same for all, so a binding is its own key. *)
  let seen = Binding_table.create 16 in
  List.filter
    (fun b ->
      if Binding_table.mem seen b then false
      else begin
        Binding_table.add seen b ();
        true
      end)
    (go steps [])

let solutions triples ast =
  solutions_within Amber.Deadline.never (load triples) ast

let query ?timeout ?limit store ast =
  let deadline =
    match timeout with
    | Some s -> Amber.Deadline.after s
    | None -> Amber.Deadline.never
  in
  let variables = Sparql.Ast.selected_variables ast in
  let project b = List.map (fun v -> List.assoc_opt v b) variables in
  let rows = List.map project (solutions_within deadline store ast) in
  let rows =
    if ast.Sparql.Ast.distinct then List.sort_uniq compare rows else rows
  in
  let effective_limit =
    match (ast.Sparql.Ast.limit, limit) with
    | Some a, Some b -> Some (min a b)
    | (Some _ as l), None | None, (Some _ as l) -> l
    | None, None -> None
  in
  let rows, truncated =
    match effective_limit with
    | Some l when List.length rows > l ->
        (List.filteri (fun i _ -> i < l) rows, true)
    | _ -> (rows, false)
  in
  { Answer.variables; rows; truncated }

(* Canonical string form of a projected row, for set comparisons. *)
let canon_row row =
  List.map (function None -> "<unbound>" | Some t -> Rdf.Term.to_string t) row

(* Project like the engines do: selected variables, [None] when unbound;
   returns canonical (sorted) string rows. *)
let canonical_answer triples ast : string list list =
  let selected = Sparql.Ast.selected_variables ast in
  let project b = List.map (fun v -> List.assoc_opt v b) selected in
  let all = List.map (fun b -> canon_row (project b)) (solutions triples ast) in
  let all = if ast.Sparql.Ast.distinct then List.sort_uniq compare all else all in
  let all =
    match ast.Sparql.Ast.limit with
    | None -> all
    | Some l -> List.filteri (fun i _ -> i < l) all
  in
  List.sort compare all

(* Canonicalize an engine's rows the same way. *)
let canonical_rows (rows : Rdf.Term.t option list list) =
  List.sort compare (List.map canon_row rows)
