(* Partial solution mappings: variable name -> term, unbound = absent. *)
type binding = (string * Rdf.Term.t) list

let compatible (a : binding) (b : binding) =
  List.for_all
    (fun (v, t) ->
      match List.assoc_opt v b with
      | None -> true
      | Some t' -> Rdf.Term.equal t t')
    a

let merge (a : binding) (b : binding) =
  List.fold_left
    (fun acc (v, t) -> if List.mem_assoc v acc then acc else (v, t) :: acc)
    a b

(* --- expression evaluation ------------------------------------------ *)

exception Type_error

let numeric_value lit =
  match float_of_string_opt lit.Rdf.Term.value with
  | Some f -> Some f
  | None -> None

let term_value (binding : binding) expr =
  match expr with
  | Sparql.Algebra.E_var v -> (
      match List.assoc_opt v binding with
      | Some t -> t
      | None -> raise Type_error)
  | Sparql.Algebra.E_const t -> t
  | _ -> raise Type_error (* non-value expression in value position *)

let rec eval_expr (binding : binding) (expr : Sparql.Algebra.expr) : bool =
  let value e =
    match e with
    | Sparql.Algebra.E_var _ | Sparql.Algebra.E_const _ -> term_value binding e
    | _ -> raise Type_error
  in
  (* Numeric when both sides parse as numbers; otherwise compare literal
     values lexicographically, other terms by canonical form. *)
  let compare_terms t1 t2 =
    match (t1, t2) with
    | Rdf.Term.Literal l1, Rdf.Term.Literal l2 -> (
        match (numeric_value l1, numeric_value l2) with
        | Some f1, Some f2 -> Float.compare f1 f2
        | _ -> String.compare l1.Rdf.Term.value l2.Rdf.Term.value)
    | _ -> String.compare (Rdf.Term.to_string t1) (Rdf.Term.to_string t2)
  in
  let equal_terms t1 t2 =
    match (t1, t2) with
    | Rdf.Term.Literal l1, Rdf.Term.Literal l2 -> (
        match (numeric_value l1, numeric_value l2) with
        | Some f1, Some f2 -> Float.equal f1 f2
        | _ -> Rdf.Term.equal t1 t2)
    | _ -> Rdf.Term.equal t1 t2
  in
  match expr with
  | Sparql.Algebra.E_eq (a, b) -> equal_terms (value a) (value b)
  | Sparql.Algebra.E_neq (a, b) -> not (equal_terms (value a) (value b))
  | Sparql.Algebra.E_lt (a, b) -> compare_terms (value a) (value b) < 0
  | Sparql.Algebra.E_le (a, b) -> compare_terms (value a) (value b) <= 0
  | Sparql.Algebra.E_gt (a, b) -> compare_terms (value a) (value b) > 0
  | Sparql.Algebra.E_ge (a, b) -> compare_terms (value a) (value b) >= 0
  | Sparql.Algebra.E_and (a, b) -> eval_expr binding a && eval_expr binding b
  | Sparql.Algebra.E_or (a, b) -> eval_expr binding a || eval_expr binding b
  | Sparql.Algebra.E_not a -> not (eval_expr binding a)
  | Sparql.Algebra.E_bound v -> List.mem_assoc v binding
  | Sparql.Algebra.E_regex (e, pattern) -> (
      let text =
        match value e with
        | Rdf.Term.Literal l -> l.Rdf.Term.value
        | Rdf.Term.Iri iri -> iri
        | Rdf.Term.Bnode b -> b
      in
      match Str.search_forward (Str.regexp pattern) text 0 with
      | _ -> true
      | exception Not_found -> false)
  | Sparql.Algebra.E_var _ | Sparql.Algebra.E_const _ -> (
      (* Effective boolean value of a bare term. *)
      match term_value binding expr with
      | Rdf.Term.Literal { value = "true"; _ } -> true
      | Rdf.Term.Literal { value = "false"; _ } -> false
      | Rdf.Term.Literal { value = v; _ } -> String.length v > 0
      | Rdf.Term.Iri _ | Rdf.Term.Bnode _ -> raise Type_error)

let eval_filter binding expr =
  match eval_expr binding expr with
  | b -> b
  | exception Type_error -> false (* SPARQL: errors eliminate the row *)

(* --- pattern evaluation ---------------------------------------------- *)

let rec eval ~deadline ~bgp (p : Sparql.Algebra.pattern) : binding list =
  Deadline.check deadline;
  let eval = eval ~deadline ~bgp in
  match p with
  | Sparql.Algebra.Bgp [] -> [ [] ] (* the empty group: one empty mapping *)
  | Sparql.Algebra.Bgp patterns -> bgp patterns
  | Sparql.Algebra.Join (a, b) ->
      let left = eval a in
      let right = eval b in
      List.concat_map
        (fun mu_a ->
          Deadline.check deadline;
          List.filter_map
            (fun mu_b ->
              if compatible mu_a mu_b then Some (merge mu_a mu_b) else None)
            right)
        left
  | Sparql.Algebra.Union (a, b) -> eval a @ eval b
  | Sparql.Algebra.Optional (a, b) ->
      let left = eval a in
      let right = eval b in
      List.concat_map
        (fun mu_a ->
          Deadline.check deadline;
          match
            List.filter_map
              (fun mu_b ->
                if compatible mu_a mu_b then Some (merge mu_a mu_b) else None)
              right
          with
          | [] -> [ mu_a ]
          | extended -> extended)
        left
  | Sparql.Algebra.Filter (e, inner) ->
      List.filter (fun mu -> eval_filter mu e) (eval inner)
