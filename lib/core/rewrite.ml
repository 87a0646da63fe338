(* Engine-aware half of the semantic query rewriter: index-backed
   singleton certificates for constant propagation, the Stats-based
   Cartesian blow-up estimate, and the per-kind step metric. The pass
   machinery itself is the pure Amber_rewrite. *)

module Ast = Sparql.Ast

type step = Amber_rewrite.step
type kind = Amber_rewrite.kind

let kind_slug = Amber_rewrite.kind_slug
let slugs = Amber_rewrite.slugs
let pp_step = Amber_rewrite.pp_step
let step_to_json = Amber_rewrite.step_to_json
let steps_to_json = Amber_rewrite.steps_to_json

type outcome = {
  ast : Ast.t;
  bindings : (string * Rdf.Term.t) list;
  steps : step list;
}

let m = Obs.Metrics.default

let m_steps slug =
  Obs.Metrics.counter m "amber_rewrite_steps_total"
    ~labels:[ ("kind", slug) ]
    ~help:
      "Rewrite steps applied by the semantic query rewriter \
       (duplicate-pattern, core-minimization, constant-propagation, \
       cartesian-product)"

(* ------------------------------------------------------------------ *)
(* Singleton certificates                                              *)
(* ------------------------------------------------------------------ *)

let term_of_vertex db u =
  match Database.term_of_vertex db u with
  | Rdf.Term.Iri i -> Some (Ast.Iri i)
  | Rdf.Term.Literal _ | Rdf.Term.Bnode _ -> None

(* The unique neighbour of data vertex [v] in direction [dir] through
   edge type [et], or None when there are zero or several. O(deg v)
   with an early exit at the second hit. *)
let unique_neighbour g dir v et =
  let found = ref None in
  (try
     Mgraph.Multigraph.iter_neighbours_with g dir v [| et |] (fun u ->
         match !found with
         | None -> found := Some u
         | Some _ ->
             found := None;
             raise Exit)
   with Exit -> ());
  !found

(* Data-forced bindings, one pattern at a time. Each certificate proves
   that the data admits exactly one binding for the pattern's variable
   {e in that pattern considered alone} — since every query solution
   must satisfy the pattern, the variable is forced query-wide:

   - [?x p <o>]: the in-adjacency of [o] filtered to edge type [p] —
     complete in both object models, a subject is always a resource.
   - [<s> p ?o]: the out-adjacency of [s] filtered to [p] — complete
     only in the faithful model; with [open_objects] the variable may
     also bind a literal the adjacency does not see, so skip.
   - [?x p "lit"]: the attribute index's inverted list for the
     [(p, lit)] pair. *)
let singleton_lookup ~open_objects db attribute (pat : Ast.triple_pattern) =
  let g = Database.graph db in
  match (pat.Ast.subject, pat.Ast.predicate, pat.Ast.obj) with
  | Ast.Var v, Ast.Iri pred, Ast.Iri o -> (
      match
        ( Database.edge_type_of_iri db pred,
          Database.vertex_of_term db (Rdf.Term.iri o) )
      with
      | Some et, Some ov -> (
          match unique_neighbour g Mgraph.Multigraph.In ov et with
          | Some u -> Option.map (fun t -> (v, t)) (term_of_vertex db u)
          | None -> None)
      | _ -> None)
  | Ast.Iri s, Ast.Iri pred, Ast.Var v when not open_objects -> (
      match
        ( Database.edge_type_of_iri db pred,
          Database.vertex_of_term db (Rdf.Term.iri s) )
      with
      | Some et, Some sv -> (
          match unique_neighbour g Mgraph.Multigraph.Out sv et with
          | Some u -> Option.map (fun t -> (v, t)) (term_of_vertex db u)
          | None -> None)
      | _ -> None)
  | Ast.Var v, Ast.Iri pred, Ast.Lit lit -> (
      match Database.attribute_of db ~pred ~lit with
      | Some a ->
          let vertices = Attribute_index.vertices_with attribute a in
          if Mgraph.Posting.length vertices = 1 then
            Option.map
              (fun t -> (v, t))
              (term_of_vertex db (Mgraph.Posting.to_array vertices).(0))
          else None
      | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Cartesian blow-up estimate                                          *)
(* ------------------------------------------------------------------ *)

(* Rows of one variable-connected group, estimated as the smallest
   per-pattern candidate count — the group's joins can only shrink its
   most selective pattern. Advisory only (it feeds a hint, never a
   plan), so cheap beats precise. *)
let component_rows db stats patterns =
  let st = Lazy.force stats in
  (* On a live engine the database overlay can hold edge types or
     attributes younger than the stats snapshot's arrays; treat those
     as unknown rather than indexing out of bounds. *)
  let counted a i = if i < Array.length a then a.(i) else st.Stats.triples in
  let pattern_count (p : Ast.triple_pattern) =
    match (p.Ast.predicate, p.Ast.obj) with
    | Ast.Iri pred, Ast.Lit lit -> (
        match Database.attribute_of db ~pred ~lit with
        | Some a -> counted st.Stats.attr_lengths a
        | None -> 0)
    | Ast.Iri pred, _ -> (
        match Database.edge_type_of_iri db pred with
        | Some et -> counted st.Stats.type_out_edges et
        | None ->
            if Database.attribute_predicate_exists db pred then
              st.Stats.triples
            else 0)
    | _ -> st.Stats.triples
  in
  List.fold_left (fun acc p -> min acc (pattern_count p)) max_int patterns

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let apply ?(open_objects = false) ?max_patterns ~db ~attribute ~stats ast =
  (* The open-objects extension binds literals to object variables
     selected by clause shape (occurrence counts, ground vs variable
     subject), so any clause mutation can change answers there — run
     the rewriter hint-only in that mode. *)
  let r =
    Amber_rewrite.rewrite ?max_patterns ~mutate:(not open_objects)
      ~singleton:(singleton_lookup ~open_objects db attribute)
      ~component_rows:(component_rows db stats)
      ast
  in
  List.iter
    (fun (s : step) ->
      Obs.Metrics.incr (m_steps (Amber_rewrite.kind_slug s.Amber_rewrite.kind)))
    r.Amber_rewrite.steps;
  let bindings =
    List.filter_map
      (fun (v, t) ->
        match t with
        | Ast.Iri i -> Some (v, Rdf.Term.iri i)
        | Ast.Lit l -> Some (v, Rdf.Term.Literal l)
        | Ast.Var _ -> None)
      r.Amber_rewrite.bindings
  in
  { ast = r.Amber_rewrite.ast; bindings; steps = r.Amber_rewrite.steps }
