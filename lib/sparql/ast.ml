type term = Var of string | Iri of string | Lit of Rdf.Term.literal

type triple_pattern = { subject : term; predicate : term; obj : term }

type selection = Select_all | Select_vars of string list

type sort_direction = Asc | Desc

type t = {
  select : selection;
  distinct : bool;
  where : triple_pattern list;
  order_by : (string * sort_direction) list;
  limit : int option;
  offset : int option;
}

let make ?(distinct = false) ?(order_by = []) ?limit ?offset select where =
  { select; distinct; where; order_by; limit; offset }

let pattern subject predicate obj = { subject; predicate; obj }

let variables q =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let visit = function
    | Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          out := v :: !out
        end
    | Iri _ | Lit _ -> ()
  in
  List.iter
    (fun { subject; predicate; obj } ->
      visit subject;
      visit predicate;
      visit obj)
    q.where;
  List.rev !out

let selected_variables q =
  match q.select with Select_all -> variables q | Select_vars vs -> vs

let is_basic q =
  List.for_all
    (fun { subject; predicate; obj = _ } ->
      (match predicate with Iri _ -> true | Var _ | Lit _ -> false)
      && match subject with Var _ | Iri _ -> true | Lit _ -> false)
    q.where

let term_equal t1 t2 =
  match (t1, t2) with
  | Var a, Var b -> String.equal a b
  | Iri a, Iri b -> String.equal a b
  | Lit a, Lit b -> Rdf.Term.equal (Rdf.Term.Literal a) (Rdf.Term.Literal b)
  | (Var _ | Iri _ | Lit _), _ -> false

let pp_term ppf = function
  | Var v -> Format.fprintf ppf "?%s" v
  | Iri i -> Format.fprintf ppf "<%s>" i
  | Lit l -> Rdf.Term.pp ppf (Rdf.Term.Literal l)

let pp_pattern ppf { subject; predicate; obj } =
  Format.fprintf ppf "%a %a %a ." pp_term subject pp_term predicate pp_term obj

let term_to_string t = Format.asprintf "%a" pp_term t
let pattern_to_string p = Format.asprintf "%a" pp_pattern p

let pp ppf q =
  Format.fprintf ppf "@[<v>SELECT %s%s@,WHERE {@,"
    (if q.distinct then "DISTINCT " else "")
    (match q.select with
    | Select_all -> "*"
    | Select_vars vs -> String.concat " " (List.map (fun v -> "?" ^ v) vs));
  List.iter (fun p -> Format.fprintf ppf "  %a@," pp_pattern p) q.where;
  Format.fprintf ppf "}";
  (match q.order_by with
  | [] -> ()
  | keys ->
      Format.fprintf ppf "@,ORDER BY %s"
        (String.concat " "
           (List.map
              (fun (v, dir) ->
                match dir with
                | Asc -> "?" ^ v
                | Desc -> Printf.sprintf "DESC(?%s)" v)
              keys)));
  (match q.limit with
  | None -> ()
  | Some n -> Format.fprintf ppf "@,LIMIT %d" n);
  match q.offset with
  | None -> ()
  | Some n -> Format.fprintf ppf "@,OFFSET %d" n

let to_string q = Format.asprintf "%a" pp q

let compare_rows order_by variables r1 r2 =
  let column v =
    let rec loop i = function
      | [] -> None
      | name :: rest -> if String.equal name v then Some i else loop (i + 1) rest
    in
    loop 0 variables
  in
  let cell row i = List.nth_opt row i |> Option.join in
  let compare_cell c1 c2 =
    match (c1, c2) with
    | None, None -> 0
    | None, Some _ -> -1 (* unbound sorts lowest *)
    | Some _, None -> 1
    | Some t1, Some t2 -> Rdf.Term.order_compare t1 t2
  in
  let rec walk = function
    | [] -> 0
    | (v, dir) :: rest -> (
        match column v with
        | None -> walk rest
        | Some i ->
            let c = compare_cell (cell r1 i) (cell r2 i) in
            if c = 0 then walk rest
            else match dir with Asc -> c | Desc -> -c)
  in
  walk order_by

let effective_limit cap limit =
  match (cap, limit) with
  | None, l | l, None -> l
  | Some a, Some b -> Some (min a b)

let gather_cap ~order_by ~offset limit =
  if order_by <> [] then None
  else Option.map (fun l -> l + Option.value ~default:0 offset) limit

let apply_modifiers ~order_by ~offset ~limit ~stopped_early variables rows =
  let rows =
    if order_by = [] then rows else List.stable_sort (compare_rows order_by variables) rows
  in
  let rows =
    match offset with
    | None | Some 0 -> rows
    | Some o -> List.filteri (fun i _ -> i >= o) rows
  in
  match limit with
  | None -> (rows, stopped_early)
  | Some l -> (List.filteri (fun i _ -> i < l) rows, stopped_early || List.length rows > l)
