(* Engine-independent half of the static query analyzer: the diagnostic
   vocabulary, its renderings, and the lints that need only the AST.
   The dictionary/index-aware checks live in Amber.Analysis (lib/core),
   which re-exports this module. *)

type span = { pattern : int option; text : string }

let span_of_pattern i pat =
  { pattern = Some i; text = Format.asprintf "%a" Sparql.Ast.pp_pattern pat }

let query_span text = { pattern = None; text }

type proof =
  | Unknown_predicate of { iri : string }
  | Predicate_never_links of { iri : string }
  | Unknown_iri of { iri : string; position : [ `Subject | `Object ] }
  | Unknown_literal of { pred : string; lit : string }
  | Ground_pattern_absent of { subject : string; pred : string; obj : string }
  | Conflicting_literals of {
      variable : string;
      pred : string;
      lit1 : string;
      lit2 : string;
    }
  | Empty_attribute_intersection of {
      variable : string;
      attrs : (string * string) list;
    }
  | Signature_infeasible of {
      variable : string;
      feature : int;
      query_value : int;
      data_max : int;
    }
  | Multi_edge_too_wide of {
      variable : string;
      other : string;
      width : int;
      data_max : int;
    }
  | Iri_constraint_infeasible of {
      variable : string;
      iri : string;
      predicates : string list;
    }

type warning =
  | Disconnected_components of { count : int }
  | Unprojected_satellite of { variable : string }
  | Unbound_select_variable of { variable : string }
  | Duplicate_pattern of { first : int; dup : int }
  | Out_of_fragment of { reason : string }

type hint =
  | Drop_duplicate_pattern of { index : int }
  | Order_by_unbound of { variable : string }
  | Limit_zero

type diagnostic = Unsat of proof | Warning of warning | Hint of hint

type item = { diag : diagnostic; span : span option }

type report = { items : item list }

let empty_report = { items = [] }

let report_of_items items =
  let is_unsat { diag; _ } =
    match diag with Unsat _ -> true | Warning _ | Hint _ -> false
  in
  {
    items =
      List.filter is_unsat items
      @ List.filter (fun i -> not (is_unsat i)) items;
  }

let unsat_proof r =
  List.find_map
    (fun { diag; _ } ->
      match diag with Unsat p -> Some p | Warning _ | Hint _ -> None)
    r.items

let warnings r =
  List.filter_map
    (fun { diag; _ } ->
      match diag with Warning w -> Some w | Unsat _ | Hint _ -> None)
    r.items

let hints r =
  List.filter_map
    (fun { diag; _ } ->
      match diag with Hint h -> Some h | Unsat _ | Warning _ -> None)
    r.items

(* ------------------------------------------------------------------ *)
(* AST-level lints                                                     *)
(* ------------------------------------------------------------------ *)

let pattern_vars { Sparql.Ast.subject; predicate; obj } =
  List.filter_map
    (fun t ->
      match t with
      | Sparql.Ast.Var v -> Some v
      | Sparql.Ast.Iri _ | Sparql.Ast.Lit _ -> None)
    [ subject; predicate; obj ]

(* Union-find over variable names: all variables of one pattern join,
   the component count is the number of distinct roots among patterns
   that bind at least one variable. *)
let component_count patterns =
  let parent = Hashtbl.create 16 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | None ->
        Hashtbl.replace parent v v;
        v
    | Some p -> if String.equal p v then v else find p
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (String.equal ra rb) then Hashtbl.replace parent ra rb
  in
  List.iter
    (fun pat ->
      match pattern_vars pat with
      | [] -> ()
      | v :: rest -> List.iter (union v) rest)
    patterns;
  let roots = Hashtbl.create 8 in
  Hashtbl.iter (fun v _ -> Hashtbl.replace roots (find v) ()) parent;
  Hashtbl.length roots

let pattern_equal a b =
  Sparql.Ast.term_equal a.Sparql.Ast.subject b.Sparql.Ast.subject
  && Sparql.Ast.term_equal a.Sparql.Ast.predicate b.Sparql.Ast.predicate
  && Sparql.Ast.term_equal a.Sparql.Ast.obj b.Sparql.Ast.obj

let lint_ast (ast : Sparql.Ast.t) =
  let items = ref [] in
  let add ?span diag = items := { diag; span } :: !items in
  let where = Array.of_list ast.where in
  let bound = Sparql.Ast.variables ast in
  (* SELECT variables never bound by the WHERE clause. *)
  (match ast.select with
  | Sparql.Ast.Select_all -> ()
  | Sparql.Ast.Select_vars vars ->
      List.iter
        (fun v ->
          if not (List.mem v bound) then
            add
              ~span:(query_span (Printf.sprintf "SELECT ?%s" v))
              (Warning (Unbound_select_variable { variable = v })))
        vars);
  (* Duplicate triple patterns (verbatim repeats). *)
  Array.iteri
    (fun j pat ->
      let rec first_at i =
        if i >= j then None
        else if pattern_equal where.(i) pat then Some i
        else first_at (i + 1)
      in
      match first_at 0 with
      | None -> ()
      | Some i ->
          let span = span_of_pattern j pat in
          add ~span (Warning (Duplicate_pattern { first = i; dup = j }));
          add ~span (Hint (Drop_duplicate_pattern { index = j })))
    where;
  (* Variable-disjoint components: the answer is a Cartesian product. *)
  let components = component_count ast.where in
  if components > 1 then
    add
      ~span:(query_span (Printf.sprintf "%d pattern groups" components))
      (Warning (Disconnected_components { count = components }));
  (* ORDER BY keys that are never bound sort by a constant. *)
  List.iter
    (fun (v, _) ->
      if not (List.mem v bound) then
        add
          ~span:(query_span (Printf.sprintf "ORDER BY ?%s" v))
          (Hint (Order_by_unbound { variable = v })))
    ast.order_by;
  (match ast.limit with
  | Some 0 -> add ~span:(query_span "LIMIT 0") (Hint Limit_zero)
  | Some _ | None -> ());
  List.rev !items

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let feature_name i =
  let side = if i < 4 then "incoming" else "outgoing" in
  match i mod 4 with
  | 0 -> Printf.sprintf "f1 (max multi-edge cardinality, %s)" side
  | 1 -> Printf.sprintf "f2 (distinct edge types, %s)" side
  | 2 -> Printf.sprintf "f3 (-min edge type, %s)" side
  | _ -> Printf.sprintf "f4 (max edge type, %s)" side

let pp_proof ppf = function
  | Unknown_predicate { iri } ->
      Format.fprintf ppf "predicate <%s> occurs nowhere in the data" iri
  | Predicate_never_links { iri } ->
      Format.fprintf ppf
        "predicate <%s> never links two resources (literal objects only)" iri
  | Unknown_iri { iri; position } ->
      Format.fprintf ppf "%s IRI <%s> does not occur in the data"
        (match position with `Subject -> "subject" | `Object -> "object")
        iri
  | Unknown_literal { pred; lit } ->
      Format.fprintf ppf "literal %s with predicate <%s> does not occur" lit
        pred
  | Ground_pattern_absent { subject; pred; obj } ->
      Format.fprintf ppf "ground pattern <%s> <%s> %s does not hold" subject
        pred obj
  | Conflicting_literals { variable; pred; lit1; lit2 } ->
      Format.fprintf ppf
        "?%s requires both %s and %s through <%s>, which no resource carries"
        variable lit1 lit2 pred
  | Empty_attribute_intersection { variable; attrs } ->
      Format.fprintf ppf
        "no resource carries every literal constraint on ?%s (%s)" variable
        (String.concat ", "
           (List.map (fun (p, l) -> Printf.sprintf "<%s> %s" p l) attrs))
  | Signature_infeasible { variable; feature; query_value; data_max } ->
      Format.fprintf ppf
        "?%s needs synopsis %s = %d but the data maximum is %d (Lemma 1)"
        variable (feature_name feature) query_value data_max
  | Multi_edge_too_wide { variable; other; width; data_max } ->
      Format.fprintf ppf
        "?%s -- %s carries %d distinct predicates; the widest data \
         multi-edge has %d"
        variable other width data_max
  | Iri_constraint_infeasible { variable; iri; predicates } ->
      Format.fprintf ppf
        "?%s must reach <%s> through {%s}, but no data neighbour of it does"
        variable iri
        (String.concat ", " (List.map (fun p -> "<" ^ p ^ ">") predicates))

let proof_to_string p = Format.asprintf "%a" pp_proof p

let pp_warning ppf = function
  | Disconnected_components { count } ->
      Format.fprintf ppf
        "pattern splits into %d variable-disjoint groups: the answer is \
         their Cartesian product"
        count
  | Unprojected_satellite { variable } ->
      Format.fprintf ppf
        "?%s is a satellite vertex never projected: it only constrains \
         existence"
        variable
  | Unbound_select_variable { variable } ->
      Format.fprintf ppf
        "SELECT ?%s is never bound by the WHERE clause (always-null column)"
        variable
  | Duplicate_pattern { first; dup } ->
      Format.fprintf ppf "pattern %d repeats pattern %d verbatim" dup first
  | Out_of_fragment { reason } ->
      Format.fprintf ppf "outside the supported fragment: %s" reason

let pp_hint ppf = function
  | Drop_duplicate_pattern { index } ->
      Format.fprintf ppf "drop duplicate pattern %d" index
  | Order_by_unbound { variable } ->
      Format.fprintf ppf "ORDER BY ?%s sorts by an unbound variable" variable
  | Limit_zero ->
      Format.fprintf ppf "LIMIT 0 always yields the empty answer"

let severity = function
  | Unsat _ -> "error"
  | Warning _ -> "warning"
  | Hint _ -> "hint"

let kind = function
  | Unsat (Unknown_predicate _) -> "unknown-predicate"
  | Unsat (Predicate_never_links _) -> "predicate-never-links"
  | Unsat (Unknown_iri _) -> "unknown-iri"
  | Unsat (Unknown_literal _) -> "unknown-literal"
  | Unsat (Ground_pattern_absent _) -> "ground-pattern-absent"
  | Unsat (Conflicting_literals _) -> "conflicting-literals"
  | Unsat (Empty_attribute_intersection _) -> "empty-attribute-intersection"
  | Unsat (Signature_infeasible _) -> "signature-infeasible"
  | Unsat (Multi_edge_too_wide _) -> "multi-edge-too-wide"
  | Unsat (Iri_constraint_infeasible _) -> "iri-constraint-infeasible"
  | Warning (Disconnected_components _) -> "disconnected-components"
  | Warning (Unprojected_satellite _) -> "unprojected-satellite"
  | Warning (Unbound_select_variable _) -> "unbound-select-variable"
  | Warning (Duplicate_pattern _) -> "duplicate-pattern"
  | Warning (Out_of_fragment _) -> "out-of-fragment"
  | Hint (Drop_duplicate_pattern _) -> "drop-duplicate-pattern"
  | Hint (Order_by_unbound _) -> "order-by-unbound"
  | Hint Limit_zero -> "limit-zero"

let pp_diag ppf = function
  | Unsat p -> pp_proof ppf p
  | Warning w -> pp_warning ppf w
  | Hint h -> pp_hint ppf h

let pp_item ppf { diag; span } =
  Format.fprintf ppf "%s[%s]: %a" (severity diag) (kind diag) pp_diag diag;
  match span with
  | None -> ()
  | Some { pattern; text } -> (
      match pattern with
      | Some i -> Format.fprintf ppf "@,    at pattern %d: %s" i text
      | None -> Format.fprintf ppf "@,    at: %s" text)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter (fun item -> Format.fprintf ppf "%a@," pp_item item) r.items;
  (match unsat_proof r with
  | Some _ -> Format.fprintf ppf "verdict: UNSAT (the answer set is empty)"
  | None ->
      let w = List.length (warnings r) and h = List.length (hints r) in
      if w = 0 && h = 0 then Format.fprintf ppf "verdict: clean"
      else Format.fprintf ppf "verdict: ok (%d warning%s, %d hint%s)" w
        (if w = 1 then "" else "s")
        h
        (if h = 1 then "" else "s"));
  Format.fprintf ppf "@]"

let report_to_json r =
  let item_json { diag; span } =
    let message = Format.asprintf "%a" pp_diag diag in
    let span_fields =
      match span with
      | None -> ""
      | Some { pattern; text } ->
          let at =
            match pattern with
            | Some i -> Printf.sprintf {|,"pattern":%d|} i
            | None -> ""
          in
          Printf.sprintf {|%s,"span":"%s"|} at (Obs.Json.escape text)
    in
    Printf.sprintf {|{"severity":"%s","kind":"%s","message":"%s"%s}|}
      (severity diag) (kind diag) (Obs.Json.escape message) span_fields
  in
  Printf.sprintf {|{"unsat":%b,"diagnostics":[%s]}|}
    (unsat_proof r <> None)
    (String.concat "," (List.map item_json r.items))
