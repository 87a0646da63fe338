include Amber_analysis

(* First WHERE pattern mentioning a variable, for vertex-level spans. *)
let span_for_var (ast : Sparql.Ast.t) name =
  let mentions { Sparql.Ast.subject; predicate; obj } =
    List.exists
      (fun t ->
        match t with
        | Sparql.Ast.Var v -> String.equal v name
        | Sparql.Ast.Iri _ | Sparql.Ast.Lit _ -> false)
      [ subject; predicate; obj ]
  in
  let rec go i = function
    | [] -> None
    | pat :: rest ->
        if mentions pat then Some (span_of_pattern i pat) else go (i + 1) rest
  in
  go 0 ast.where

let occurs_as_subject (ast : Sparql.Ast.t) v =
  List.exists
    (fun { Sparql.Ast.subject; _ } ->
      match subject with
      | Sparql.Ast.Var s -> String.equal s v
      | Sparql.Ast.Iri _ | Sparql.Ast.Lit _ -> false)
    ast.where

let lit_string lit = Rdf.Term.to_string (Rdf.Term.Literal lit)

(* The global multi-edge width bound: the f1 features of the synopsis
   maxima, over both directions (never below 0 so an empty graph reads
   as "width 0"). *)
let max_multi_edge_width maxima = max 0 (max maxima.(0) maxima.(4))

(* ------------------------------------------------------------------ *)
(* Per-vertex index-backed screening                                   *)
(* ------------------------------------------------------------------ *)

(* Attribute-intersection emptiness on one query vertex. A conflicting
   pair (same predicate, disjoint vertex lists) makes the more pointed
   proof; otherwise the whole intersection is the certificate. *)
let check_attributes db attribute name attrs =
  if Array.length attrs = 0 then None
  else if not (Mgraph.Posting.is_empty (Attribute_index.candidates attribute attrs))
  then None
  else begin
    let described =
      List.map
        (fun a ->
          let pred, lit = Database.attribute_data db a in
          (a, pred, lit_string lit))
        (Array.to_list attrs)
    in
    let conflict =
      List.find_map
        (fun (a, pa, la) ->
          List.find_map
            (fun (b, pb, lb) ->
              if
                a < b
                && String.equal pa pb
                && Mgraph.Posting.is_empty
                     (Mgraph.Posting.inter
                        (Attribute_index.vertices_with attribute a)
                        (Attribute_index.vertices_with attribute b))
              then
                Some
                  (Conflicting_literals
                     { variable = name; pred = pa; lit1 = la; lit2 = lb })
              else None)
            described)
        described
    in
    match conflict with
    | Some proof -> Some proof
    | None ->
        Some
          (Empty_attribute_intersection
             {
               variable = name;
               attrs = List.map (fun (_, p, l) -> (p, l)) described;
             })
  end

(* Query multi-edges wider than any data multi-edge: variable-variable
   edges, IRI constraints and self loops all bound by the f1 maxima. *)
let check_multi_edges db q maxima u name =
  let width_max = max_multi_edge_width maxima in
  let too_wide other width =
    if width > width_max then
      Some
        (Multi_edge_too_wide
           { variable = name; other; width; data_max = width_max })
    else None
  in
  let n = Query_graph.vertex_count q in
  let rec over_vars v =
    if v >= n then None
    else if v = u then over_vars (v + 1)
    else
      let widest =
        List.fold_left
          (fun acc (_, types) -> max acc (Array.length types))
          0
          (Query_graph.multi_edges_between q u v)
      in
      match too_wide ("?" ^ q.Query_graph.var_names.(v)) widest with
      | Some p -> Some p
      | None -> over_vars (v + 1)
  in
  match over_vars 0 with
  | Some p -> Some p
  | None -> (
      let from_iris =
        List.find_map
          (fun (c : Query_graph.iri_constraint) ->
            too_wide
              (Rdf.Term.to_string (Database.term_of_vertex db c.data_vertex))
              (Array.length c.types))
          q.Query_graph.iris.(u)
      in
      match from_iris with
      | Some p -> Some p
      | None ->
          too_wide ("?" ^ name) (Array.length q.Query_graph.self_loops.(u)))

(* Lemma 1 at compile time: a query synopsis exceeding the componentwise
   maxima over every data synopsis has zero candidates. *)
let check_synopsis synopsis q u name =
  let syn = Mgraph.Synopsis.of_signature (Query_graph.signature q u) in
  let maxima = Synopsis_index.maxima synopsis in
  let rec go i =
    if i >= Mgraph.Synopsis.dims then None
    else if syn.(i) > maxima.(i) then
      Some
        (Signature_infeasible
           {
             variable = name;
             feature = i;
             query_value = syn.(i);
             data_max = maxima.(i);
           })
    else go (i + 1)
  in
  go 0

(* The widest constant neighbourhood, in adjacency entries, that
   screening probes; wider constants are left inconclusive, so a
   compile-time proof never costs more than this many reads. *)
let probe_cap = 4096

(* A constant's neighbourhood, probed at compile time: the variable must
   reach [data_vertex] through every type of the constraint, so some
   neighbour of the constant (on the matching side) must carry them all.
   Bounded by [probe_cap]. *)
let check_iri_constraints db q u name =
  let g = Database.graph db in
  List.find_map
    (fun (c : Query_graph.iri_constraint) ->
      let flipped =
        match c.Query_graph.dir with
        | Mgraph.Multigraph.Out -> Mgraph.Multigraph.In
        | Mgraph.Multigraph.In -> Mgraph.Multigraph.Out
      in
      let carried () =
        match
          Mgraph.Multigraph.iter_neighbours_with g flipped c.data_vertex c.types
            (fun _ -> raise Exit)
        with
        | () -> false
        | exception Exit -> true
      in
      if
        Mgraph.Posting.length (Mgraph.Multigraph.neighbours g flipped c.data_vertex)
        > probe_cap
        || carried ()
      then None
      else
        Some
          (Iri_constraint_infeasible
             {
               variable = name;
               iri =
                 Rdf.Term.to_string (Database.term_of_vertex db c.data_vertex);
               predicates =
                 List.map
                   (Database.iri_of_edge_type db)
                   (Array.to_list c.types);
             }))
    q.Query_graph.iris.(u)

let screen db ~attribute ~synopsis (q : Query_graph.t) (ast : Sparql.Ast.t) =
  let proofs = ref [] and warns = ref [] in
  let selected = Sparql.Ast.selected_variables ast in
  let n = Query_graph.vertex_count q in
  for u = 0 to n - 1 do
    let name = q.Query_graph.var_names.(u) in
    let span = span_for_var ast name in
    let prove = function
      | Some proof -> proofs := { diag = Unsat proof; span } :: !proofs
      | None -> ()
    in
    prove (check_attributes db attribute name q.Query_graph.attrs.(u));
    (match check_multi_edges db q (Synopsis_index.maxima synopsis) u name with
    | Some _ as p -> prove p
    | None -> prove (check_synopsis synopsis q u name));
    prove (check_iri_constraints db q u name);
    if n > 1 && Query_graph.degree q u <= 1 && not (List.mem name selected)
    then
      warns :=
        { diag = Warning (Unprojected_satellite { variable = name }); span }
        :: !warns
  done;
  List.rev !proofs @ List.rev !warns

(* ------------------------------------------------------------------ *)
(* Build failures and the full pipeline                                *)
(* ------------------------------------------------------------------ *)

let of_build_failure (ast : Sparql.Ast.t) ~proof ~pattern =
  let at = List.nth_opt ast.where pattern in
  let span = Option.map (span_of_pattern pattern) at in
  let literal_object_possible =
    match at with
    | Some { Sparql.Ast.obj = Sparql.Ast.Var v; _ } ->
        not (occurs_as_subject ast v)
    | Some _ | None -> false
  in
  match proof with
  | Predicate_never_links { iri } when literal_object_possible ->
      (* The engine refuses the edge (and returns zero rows), but full
         SPARQL semantics could bind the object variable to the
         predicate's literals — not a soundness certificate. *)
      {
        diag =
          Warning
            (Out_of_fragment
               {
                 reason =
                   Printf.sprintf
                     "predicate <%s> reaches only literals; the multigraph \
                      engine answers with zero rows, but full SPARQL \
                      semantics could bind the object variable to them"
                     iri;
               });
        span;
      }
  | proof -> { diag = Unsat proof; span }

let run ?open_objects db ~attribute ~synopsis ast =
  let lint = lint_ast ast in
  match Query_graph.build ?open_objects db ast with
  | exception Query_graph.Unsupported reason ->
      {
        items =
          { diag = Warning (Out_of_fragment { reason }); span = None } :: lint;
      }
  | Query_graph.Unsatisfiable { proof; pattern } ->
      report_of_items (of_build_failure ast ~proof ~pattern :: lint)
  | Query_graph.Query q ->
      report_of_items (lint @ screen db ~attribute ~synopsis q ast)
