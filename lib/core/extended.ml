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

let eval_bgp engine deadline ?open_objects patterns : binding list =
  match patterns with
  | [] -> [ [] ] (* the empty group: one empty mapping *)
  | _ ->
      let ast = Sparql.Ast.make Sparql.Ast.Select_all patterns in
      let timeout =
        let r = Deadline.remaining deadline in
        if r = infinity then None else Some (Float.max r 0.0)
      in
      let answer = Engine.query ?timeout ?open_objects engine ast in
      let vars = answer.Engine.variables in
      List.map
        (fun row ->
          List.fold_left2
            (fun acc v cell ->
              match cell with Some t -> (v, t) :: acc | None -> acc)
            [] vars row)
        answer.Engine.rows

let rec eval engine deadline ?open_objects (p : Sparql.Algebra.pattern) :
    binding list =
  Deadline.check deadline;
  match p with
  | Sparql.Algebra.Bgp patterns -> eval_bgp engine deadline ?open_objects patterns
  | Sparql.Algebra.Join (a, b) ->
      let left = eval engine deadline ?open_objects a in
      let right = eval engine deadline ?open_objects b in
      List.concat_map
        (fun mu_a ->
          Deadline.check deadline;
          List.filter_map
            (fun mu_b ->
              if compatible mu_a mu_b then Some (merge mu_a mu_b) else None)
            right)
        left
  | Sparql.Algebra.Union (a, b) ->
      eval engine deadline ?open_objects a @ eval engine deadline ?open_objects b
  | Sparql.Algebra.Optional (a, b) ->
      let left = eval engine deadline ?open_objects a in
      let right = eval engine deadline ?open_objects b in
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
      List.filter (fun mu -> eval_filter mu e) (eval engine deadline ?open_objects inner)

let query ?timeout ?limit ?open_objects engine (q : Sparql.Algebra.t) =
  let deadline =
    match timeout with None -> Deadline.never | Some s -> Deadline.after s
  in
  let bindings = eval engine deadline ?open_objects q.pattern in
  let selected = Sparql.Algebra.selected_variables q in
  let seen = Hashtbl.create 64 in
  let rows =
    List.filter_map
      (fun mu ->
        let row = List.map (fun v -> List.assoc_opt v mu) selected in
        if q.distinct && Hashtbl.mem seen row then None
        else begin
          if q.distinct then Hashtbl.add seen row ();
          Some row
        end)
      bindings
  in
  let rows, truncated =
    Sparql.Ast.apply_modifiers ~order_by:q.order_by ~offset:q.offset
      ~limit:(Sparql.Ast.effective_limit limit q.limit)
      ~stopped_early:false selected rows
  in
  { Engine.variables = selected; rows; truncated }
