(* Engine-independent half of the semantic query rewriter: the step
   vocabulary, its renderings, and the AST-only passes (duplicate
   elimination, homomorphic core minimization, Cartesian detection).
   Constant propagation is parameterized by a data-backed [singleton]
   callback supplied by Amber.Rewrite (lib/core). *)

module Ast = Sparql.Ast

type kind =
  | Duplicate_pattern of { first : int; dup : int }
  | Core_minimization of { removed : int; folded : (string * string) list }
  | Constant_propagation of { variable : string; value : string }
  | Cartesian_product of { components : int; estimated_rows : int option }

type step = {
  kind : kind;
  spans : Amber_analysis.span list;
  justification : string;
}

let kind_slug = function
  | Duplicate_pattern _ -> "duplicate-pattern"
  | Core_minimization _ -> "core-minimization"
  | Constant_propagation _ -> "constant-propagation"
  | Cartesian_product _ -> "cartesian-product"

let slugs steps = List.map (fun s -> kind_slug s.kind) steps

let pp_step ppf { kind; spans; justification } =
  Format.fprintf ppf "[%s] %s" (kind_slug kind) justification;
  List.iter
    (fun { Amber_analysis.pattern; text } ->
      match pattern with
      | Some i -> Format.fprintf ppf "@,    at pattern %d: %s" i text
      | None -> Format.fprintf ppf "@,    at: %s" text)
    spans

let span_to_json { Amber_analysis.pattern; text } =
  match pattern with
  | Some i ->
      Printf.sprintf {|{"pattern":%d,"text":"%s"}|} i (Obs.Json.escape text)
  | None -> Printf.sprintf {|{"text":"%s"}|} (Obs.Json.escape text)

let step_to_json { kind; spans; justification } =
  let extra =
    match kind with
    | Duplicate_pattern { first; dup } ->
        Printf.sprintf {|,"first":%d,"dup":%d|} first dup
    | Core_minimization { removed; folded } ->
        Printf.sprintf {|,"removed":%d,"folded":[%s]|} removed
          (String.concat ","
             (List.map
                (fun (v, image) ->
                  Printf.sprintf {|{"variable":"%s","image":"%s"}|}
                    (Obs.Json.escape v) (Obs.Json.escape image))
                folded))
    | Constant_propagation { variable; value } ->
        Printf.sprintf {|,"variable":"%s","value":"%s"|} (Obs.Json.escape variable)
          (Obs.Json.escape value)
    | Cartesian_product { components; estimated_rows } ->
        Printf.sprintf {|,"components":%d,"estimated_rows":%s|} components
          (match estimated_rows with
          | None -> "null"
          | Some n -> string_of_int n)
  in
  Printf.sprintf {|{"kind":"%s","justification":"%s","spans":[%s]%s}|}
    (kind_slug kind) (Obs.Json.escape justification)
    (String.concat "," (List.map span_to_json spans))
    extra

let steps_to_json steps =
  "[" ^ String.concat "," (List.map step_to_json steps) ^ "]"

(* ------------------------------------------------------------------ *)
(* Clause helpers                                                      *)
(* ------------------------------------------------------------------ *)

let term_to_string = Ast.term_to_string

let pattern_vars { Ast.subject; predicate; obj } =
  List.filter_map
    (fun t ->
      match t with
      | Ast.Var v -> Some v
      | Ast.Iri _ | Ast.Lit _ -> None)
    [ subject; predicate; obj ]

let clause_vars patterns =
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc v -> if List.mem v acc then acc else v :: acc)
        acc (pattern_vars p))
    [] patterns

let pattern_equal a b =
  Ast.term_equal a.Ast.subject b.Ast.subject
  && Ast.term_equal a.Ast.predicate b.Ast.predicate
  && Ast.term_equal a.Ast.obj b.Ast.obj

let protected_variables (ast : Ast.t) =
  let candidates = Ast.selected_variables ast @ List.map fst ast.Ast.order_by in
  List.rev
    (List.fold_left
       (fun acc v -> if List.mem v acc then acc else v :: acc)
       [] candidates)

(* ------------------------------------------------------------------ *)
(* Pass 1: duplicate elimination                                       *)
(* ------------------------------------------------------------------ *)

(* Verbatim repeats of an earlier pattern drop unconditionally: a BGP
   solution mapping satisfies the repeat iff it satisfies the original,
   and solution multiplicity does not depend on pattern repetition.
   Returns the input list physically unchanged when nothing fired. *)
let dedup_pass where =
  let arr = Array.of_list where in
  let steps = ref [] in
  let kept = ref [] in
  Array.iteri
    (fun j pat ->
      let rec first_at i =
        if i >= j then None
        else if pattern_equal arr.(i) pat then Some i
        else first_at (i + 1)
      in
      match first_at 0 with
      | None -> kept := pat :: !kept
      | Some i ->
          steps :=
            {
              kind = Duplicate_pattern { first = i; dup = j };
              spans = [ Amber_analysis.span_of_pattern j pat ];
              justification =
                Printf.sprintf
                  "pattern %d repeats pattern %d verbatim; a solution \
                   satisfies one iff it satisfies the other"
                  j i;
            }
            :: !steps)
    arr;
  match !steps with
  | [] -> (where, [])
  | steps -> (List.rev !kept, List.rev steps)

(* ------------------------------------------------------------------ *)
(* Pass 2: constant propagation                                        *)
(* ------------------------------------------------------------------ *)

let occurs_in_position pos v patterns =
  List.exists
    (fun p ->
      match pos p with
      | Ast.Var x -> String.equal x v
      | Ast.Iri _ | Ast.Lit _ -> false)
    patterns

let substitute v value patterns =
  let sub term =
    match term with
    | Ast.Var x -> if String.equal x v then value else term
    | Ast.Iri _ | Ast.Lit _ -> term
  in
  List.map
    (fun { Ast.subject; predicate; obj } ->
      { Ast.subject = sub subject; predicate = sub predicate; obj = sub obj })
    patterns

(* One substitution per round: find the first pattern whose callback
   certifies a data-forced binding, substitute it everywhere. Guards:
   the forced term must be ground; literals never land in subject (or
   any term in predicate) position; the clause must keep at least one
   variable — a fully ground clause is a degenerate shape the matcher
   has no vertices for, so we leave the last variable to it. *)
let const_prop_round ~singleton where =
  let rec scan i = function
    | [] -> None
    | p :: rest -> (
        match singleton p with
        | None -> scan (i + 1) rest
        | Some (v, value) ->
            let ground =
              match value with
              | Ast.Iri _ | Ast.Lit _ -> true
              | Ast.Var _ -> false
            in
            let lit_in_subject =
              (match value with
              | Ast.Lit _ -> true
              | Ast.Iri _ | Ast.Var _ -> false)
              && occurs_in_position (fun p -> p.Ast.subject) v where
            in
            let in_predicate =
              occurs_in_position (fun p -> p.Ast.predicate) v where
            in
            let occurs_in_p = List.mem v (pattern_vars p) in
            if not (ground && occurs_in_p) || lit_in_subject || in_predicate
            then scan (i + 1) rest
            else
              let where' = substitute v value where in
              if clause_vars where' = [] then scan (i + 1) rest
              else
                let value_text = term_to_string value in
                Some
                  ( where',
                    {
                      kind =
                        Constant_propagation
                          { variable = v; value = value_text };
                      spans = [ Amber_analysis.span_of_pattern i p ];
                      justification =
                        Printf.sprintf
                          "the data admits exactly one binding for ?%s in \
                           pattern %d; substituting %s preserves every \
                           solution 1:1"
                          v i value_text;
                    },
                    (v, value) ))
  in
  scan 0 where

(* ------------------------------------------------------------------ *)
(* Pass 3: homomorphic core minimization                               *)
(* ------------------------------------------------------------------ *)

exception Budget_exhausted

(* Is pattern [t_idx] removable? Search for a self-homomorphism h —
   identity on protected variables and constants — mapping EVERY
   pattern of the clause into the clause without [t_idx]. Backtracking
   over patterns with an explicit undo trail; the budget bounds the
   worst case (abandoning the search is always sound: the pattern just
   stays). *)
let removable ~budget ~protected arr t_idx =
  let rest =
    Array.to_list arr |> List.filteri (fun i _ -> i <> t_idx)
  in
  if rest = [] then None
  else if clause_vars (Array.to_list arr) <> [] && clause_vars rest = [] then
    None
  else begin
    let assign : (string, Ast.term) Hashtbl.t = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace assign v (Ast.Var v)) protected;
    let map_term src dst added =
      match src with
      | Ast.Iri _ | Ast.Lit _ -> Ast.term_equal src dst
      | Ast.Var v -> (
          match Hashtbl.find_opt assign v with
          | Some t -> Ast.term_equal t dst
          | None ->
              Hashtbl.add assign v dst;
              added := v :: !added;
              true)
    in
    let try_map p q =
      let added = ref [] in
      if
        map_term p.Ast.subject q.Ast.subject added
        && map_term p.Ast.predicate q.Ast.predicate added
        && map_term p.Ast.obj q.Ast.obj added
      then Some !added
      else begin
        List.iter (Hashtbl.remove assign) !added;
        None
      end
    in
    let rec solve = function
      | [] -> true
      | p :: tl ->
          List.exists
            (fun q ->
              decr budget;
              if !budget <= 0 then raise Budget_exhausted;
              match try_map p q with
              | None -> false
              | Some added ->
                  if solve tl then true
                  else begin
                    List.iter (Hashtbl.remove assign) added;
                    false
                  end)
            rest
    in
    match solve (Array.to_list arr) with
    | exception Budget_exhausted -> None
    | false -> None
    | true ->
        let folded =
          Hashtbl.fold
            (fun v image acc ->
              match image with
              | Ast.Var x when String.equal x v -> acc
              | Ast.Var _ | Ast.Iri _ | Ast.Lit _ ->
                  (v, term_to_string image) :: acc)
            assign []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        Some folded
  end

(* Fold the clause onto its homomorphic core, pattern by pattern, to a
   fixpoint. Sound only when the projection is a set (DISTINCT): the
   caller gates on that. *)
let core_minimize ~max_patterns ~protected where =
  if List.length where > max_patterns then (where, [])
  else begin
    let steps = ref [] in
    let current = ref where in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      let arr = Array.of_list !current in
      let n = Array.length arr in
      let budget = ref 20_000 in
      let rec try_idx t_idx =
        if t_idx >= n then ()
        else
          match removable ~budget ~protected arr t_idx with
          | None -> try_idx (t_idx + 1)
          | Some folded ->
              steps :=
                {
                  kind = Core_minimization { removed = t_idx; folded };
                  spans = [ Amber_analysis.span_of_pattern t_idx arr.(t_idx) ];
                  justification =
                    Printf.sprintf
                      "a query self-homomorphism fixing every projected \
                       variable%s maps the clause into itself without \
                       pattern %d; under DISTINCT the answer set is \
                       unchanged"
                      (match folded with
                      | [] -> ""
                      | l ->
                          " ("
                          ^ String.concat ", "
                              (List.map
                                 (fun (v, image) ->
                                   Printf.sprintf "?%s -> %s" v image)
                                 l)
                          ^ ")")
                      t_idx;
                }
                :: !steps;
              current :=
                Array.to_list arr |> List.filteri (fun i _ -> i <> t_idx);
              continue_ := true
      in
      try_idx 0
    done;
    (!current, List.rev !steps)
  end

(* ------------------------------------------------------------------ *)
(* Pass 4: Cartesian-product detection                                 *)
(* ------------------------------------------------------------------ *)

(* Variable-connected groups among the patterns that bind at least one
   variable (ground patterns are pure existence checks and join
   nothing). Same union-find discipline as
   {!Amber_analysis.component_count}, but keeping the groups. *)
let var_components patterns =
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
  let groups = Hashtbl.create 8 in
  List.iter
    (fun pat ->
      match pattern_vars pat with
      | [] -> ()
      | v :: _ ->
          let root = find v in
          let existing = Option.value ~default:[] (Hashtbl.find_opt groups root) in
          Hashtbl.replace groups root (pat :: existing))
    patterns;
  Hashtbl.fold (fun _ pats acc -> List.rev pats :: acc) groups []

let saturating_mul a b =
  if a <= 0 || b <= 0 then 0
  else if a > max_int / b then max_int
  else a * b

let cartesian_step ?component_rows where =
  let groups = var_components where in
  let n = List.length groups in
  if n < 2 then None
  else
    let estimated_rows =
      match component_rows with
      | None -> None
      | Some f -> Some (List.fold_left (fun acc g -> saturating_mul acc (f g)) 1 groups)
    in
    Some
      {
        kind = Cartesian_product { components = n; estimated_rows };
        spans =
          [ Amber_analysis.query_span (Printf.sprintf "%d pattern groups" n) ];
        justification =
          Printf.sprintf
            "the clause splits into %d variable-disjoint groups; the answer \
             is their Cartesian product%s"
            n
            (match estimated_rows with
            | None -> ""
            | Some e -> Printf.sprintf " (~%d rows)" e);
      }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type result = {
  ast : Ast.t;
  bindings : (string * Ast.term) list;
  steps : step list;
}

let rewrite ?(max_patterns = 16) ?(mutate = true) ?singleton ?component_rows
    (ast : Ast.t) =
  let steps = ref [] in
  let add s = steps := s :: !steps in
  let bindings = ref [] in
  let where = ref ast.Ast.where in
  (* Duplicate elimination and constant propagation feed each other (a
     substitution can create a verbatim repeat), so they alternate to a
     fixpoint. Each const-prop round eliminates one variable and each
     dedup round only fires on new repeats, so the loop terminates well
     inside this bound. *)
  let max_rounds = List.length ast.Ast.where + 4 in
  let changed = ref mutate in
  let rounds = ref 0 in
  while !changed && !rounds < max_rounds do
    incr rounds;
    changed := false;
    let w', dup_steps = dedup_pass !where in
    if dup_steps <> [] then begin
      List.iter add dup_steps;
      where := w';
      changed := true
    end;
    match singleton with
    | None -> ()
    | Some cb -> (
        match const_prop_round ~singleton:cb !where with
        | None -> ()
        | Some (w', step, binding) ->
            add step;
            bindings := binding :: !bindings;
            where := w';
            changed := true)
  done;
  (* Variable elimination changes embedding multiplicities, so the core
     fold is sound only when the projection is a set. *)
  if mutate && ast.Ast.distinct then begin
    let protected = protected_variables ast in
    let w', min_steps = core_minimize ~max_patterns ~protected !where in
    List.iter add min_steps;
    where := w'
  end;
  (match cartesian_step ?component_rows !where with
  | None -> ()
  | Some s -> add s);
  {
    ast =
      (if !where == ast.Ast.where then ast else { ast with Ast.where = !where });
    bindings = List.rev !bindings;
    steps = List.rev !steps;
  }
