(** Index statistics and the adaptive planner's cost model.

    Computed once per frozen index set (at build time, or lazily on
    first use for engines assembled from parts), the statistics answer
    the two questions the planner asks per query: {e how many
    candidates will a core vertex have} (cardinality estimates driving
    the core order, generalizing the paper's r1/r2 heuristic) and
    {e which index is the cheapest way to materialize the first
    vertex's candidates} (attribute-list intersection, or the synopsis
    dominance scan over every vertex — following "One Size Does not Fit
    All": pruning must cost less than the scan it replaces).

    Statistics are a deterministic function of the indexes, so
    parallel and sequential builds serialize identically — the
    snapshot byte-identity contract extends to the stats section. *)

type t = {
  vertices : int;  (** data vertices *)
  triples : int;  (** retained input triples *)
  attr_lengths : int array;  (** per attribute id, |A(attr)| *)
  type_out_vertices : int array;
      (** per edge type, #vertices with ≥ 1 out-edge of that type *)
  type_in_vertices : int array;  (** … and with ≥ 1 in-edge *)
  type_out_edges : int array;  (** per edge type, total out-edges *)
  type_in_edges : int array;  (** per edge type, total in-edges *)
  deg_hist_out : int array array;
      (** per edge type, log2-bucketed histogram of per-vertex
          out-degree restricted to that type ({!hist_buckets} buckets) *)
  deg_hist_in : int array array;  (** … and in-degree *)
  distinct_signatures : int;  (** distinct vertex synopses *)
  maxima : int array;  (** {!Synopsis_index.maxima} at build time *)
}

val hist_buckets : int
(** Buckets per degree histogram (bucket [b] counts degrees in
    [2^b, 2^(b+1))], last bucket open-ended). *)

val bucket_of_degree : int -> int

val compute : Database.t -> Attribute_index.t -> Synopsis_index.t -> t
(** One pass over the adjacency ([O(E)]), the attribute index and the
    synopsis table. Works on overlay (live) engines too — accessors
    answer identically over packed and overlay forms. *)

(** {1 Cardinality estimates} *)

val estimate_vertex : t -> Query_graph.t -> int -> int
(** Estimated candidate count of a query vertex: the minimum over its
    incident structural constraints (per-edge-type vertex counts), its
    attribute-list lengths and its IRI-constraint fan-outs (per-edge-type
    average degrees). An upper-bound style estimate — each source alone
    is a sound superset, so their minimum still is. *)

val avg_degree : t -> Mgraph.Multigraph.direction -> int -> int
(** Average per-vertex neighbour count over one edge type in one
    direction, rounded up; 1 when the type is absent. *)

(** {1 Plan modes and strategies} *)

type strategy =
  | Attrs  (** attribute/IRI intersection first, then a per-survivor dominance test *)
  | Scan
      (** dominance scan over the synopsis index, then attribute/IRI
          refinement (the paper's order; its R-tree probe is a scan here) *)

type mode =
  | Paper  (** r1/r2 ordering + synopsis seeding — the paper's fixed plan *)
  | Adaptive  (** estimate-driven ordering + per-vertex min-cost strategy *)
  | Forced of strategy  (** estimate-driven ordering, strategy pinned *)

val strategy_slug : strategy -> string
(** ["attrs"] / ["scan"]. *)

val strategy_of_slug : string -> strategy option

val mode_to_string : mode -> string
(** ["paper"] / ["adaptive"] / ["forced:<strategy>"]. *)

val mode_of_string : string -> mode option

type choice = {
  strategy : strategy;  (** the winner *)
  fallback : bool;
      (** [Forced Attrs] on a vertex with neither attributes nor IRI
          constraints falls back to [Scan] (nothing to intersect) *)
  cost_attrs : int option;  (** [None] when the vertex has no attribute/IRI info *)
  cost_scan : int;
  est_candidates : int;  (** {!estimate_vertex} of the seed vertex *)
}

val choose : t -> Query_graph.t -> int -> choice
(** Min-cost strategy for seeding this vertex, with the estimates that
    drove the decision. Deterministic; a tie picks [Attrs]. *)

val choice_for : t -> Query_graph.t -> int -> mode -> choice
(** {!choose} constrained by the plan mode: [Paper] pins [Scan],
    [Forced s] pins [s] (modulo the attrs fallback), [Adaptive] is
    {!choose}. Costs are always reported. *)

type seed_report = {
  variable : string;  (** variable name of the component's seed vertex *)
  vertex : int;  (** query vertex id *)
  choice : choice;
  actual : int;  (** candidates actually materialized *)
}
(** What the matcher records per component for the profile, the flight
    recorder and the [amber_plan_strategy_total] metric. *)

(** {1 Snapshot codec} *)

val encode : t -> string
(** Deterministic {!Rdf.Binary.Varint} serialization — the payload of
    the snapshot stats section. *)

val decode : string -> t
(** @raise Rdf.Binary.Corrupt on malformed input. *)
