(** Static query analysis over the engine's dictionaries and indexes —
    the engine-aware half of the analyzer. All diagnostic types and
    renderings come from {!Amber_analysis} (re-exported here); this
    module adds the checks that need a {!Database.t}, the index [A] and
    the index [S]: typed build failures, per-vertex Lemma-1 screening
    against the synopsis maxima, attribute-intersection emptiness and
    compile-time IRI-constraint probes.

    Soundness: every reported [Unsat] proof implies the engine returns
    zero rows, so the engine's unsat short-circuit never changes an
    answer.
    Within the engine's fragment (object and datatype predicates
    disjoint — the assumption of the differential harness) the proofs
    also imply zero rows under full SPARQL BGP semantics; the one proof
    that is engine-only outside that fragment
    ({!Amber_analysis.Predicate_never_links} on a variable object that
    could bind a literal) is downgraded to an
    {!Amber_analysis.Out_of_fragment} warning. *)

include module type of struct
  include Amber_analysis
end
(** @inline *)

val screen :
  Database.t ->
  attribute:Attribute_index.t ->
  synopsis:Synopsis_index.t ->
  Query_graph.t ->
  Sparql.Ast.t ->
  item list
(** Index-backed checks over a successfully built query graph:
    attribute-intersection emptiness (conflicting literals), multi-edge
    width vs the data maximum, per-vertex synopsis infeasibility
    (Lemma 1 vs {!Synopsis_index.maxima}), IRI-constraint neighbourhood
    probes (constants with more than 4096 adjacency entries are left
    inconclusive), and unprojected-satellite warnings. Proofs come first
    in the returned list. *)

val of_build_failure :
  Sparql.Ast.t -> proof:proof -> pattern:int -> item
(** Classify a {!Query_graph.Unsatisfiable} result: attaches the span of
    the offending pattern and downgrades [Predicate_never_links] to an
    [Out_of_fragment] warning when the pattern's object is a variable
    that never occurs in subject position (the only context where the
    engine's refusal is not a proof under full SPARQL semantics). *)

val run :
  ?open_objects:bool ->
  Database.t ->
  attribute:Attribute_index.t ->
  synopsis:Synopsis_index.t ->
  Sparql.Ast.t ->
  report
(** The whole pipeline: AST lints ({!Amber_analysis.lint_ast}), then
    {!Query_graph.build} — a build failure becomes the report's proof
    via {!of_build_failure}, a success is screened with {!screen}.
    Unsat proofs sort first. Out-of-fragment queries
    ({!Query_graph.Unsupported}) yield a report with an
    [Out_of_fragment] warning instead of raising. *)
