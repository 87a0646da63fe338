(** Vertex signature index — the index [S] (paper Section 4.2).

    Stores the 8-feature synopsis of every data vertex in an R-tree;
    querying with a query vertex's synopsis returns every data vertex
    whose synopsis rectangle contains the query rectangle (Lemma 1
    guarantees no valid candidate is lost). The linear dominance scan
    lives in the planner's seeding instead ([Stats.Forced Stats.Scan]),
    which the costed plan picks when the R-tree would not pay. *)

type t

val build : ?max_entries:int -> Database.t -> t

val synopses_range : Database.t -> lo:int -> hi:int -> Mgraph.Synopsis.t array
(** Synopses of the vertex range [lo, hi) — the shardable part of the
    build, computed per chunk by the parallel index construction. *)

val lower_of : Mgraph.Synopsis.t array -> int array
(** Componentwise minimum over all synopses (clamped at 0) — the shared
    lower corner of every stored R-tree rectangle. The snapshot decoder
    uses it to rebuild leaf rectangles from the synopses alone. *)

val of_synopses : ?max_entries:int -> Mgraph.Synopsis.t array -> t
(** Assemble the index from precomputed per-vertex synopses (element [v]
    belongs to vertex [v]): derives the componentwise lower bound and
    STR-bulk-loads the R-tree. [build db = of_synopses (all synopses)]. *)

val export : t -> Mgraph.Synopsis.t array * int Rtree.t
(** Parts for the snapshot codec. The lower bound is not exported — it
    is a function of the synopses and is recomputed on {!import}.
    @raise Invalid_argument on an overlay index. *)

val overlay : base:t -> graph:Mgraph.Multigraph.t -> touched:int list -> unit -> t
(** Delta overlay: the merged synopsis of every vertex in [touched] is
    recomputed from the overlay [graph] and shadows the base entry (or
    creates one for new vertices); {!candidates} answers the base R-tree
    minus stale touched entries plus the touched vertices that still
    dominate. [base] is a frozen index or a previous overlay of one:
    then its touched synopses are copied by reference and carried
    forward, so the result still shadows every vertex any layer
    touched. {!maxima} becomes [maxima base ⊔ touched] — still a sound
    upper bound for Lemma 1 screening, merely loose after deletions.
    [base] is shared, never mutated.
    @raise Invalid_argument on out-of-range ids or a [graph] smaller
    than [base]. *)

val import : synopses:Mgraph.Synopsis.t array -> tree:int Rtree.t -> t
(** Reassemble from exported parts. @raise Invalid_argument on a
    dimensionality or tree-size mismatch. *)

val candidates : t -> Mgraph.Synopsis.t -> int array
(** Sorted data vertices whose synopsis dominates the query synopsis. *)

val candidates_of_signature : t -> Mgraph.Signature.t -> int array

val vertex_synopsis : t -> int -> Mgraph.Synopsis.t
(** The stored synopsis of a data vertex. *)

val maxima : t -> int array
(** Componentwise maximum over every stored synopsis (a fresh copy) —
    the upper corner of the R-tree root. A query synopsis exceeding it
    on any dimension has {e zero} candidates (Lemma 1 lifted to compile
    time); the static analyzer turns that into an unsatisfiability
    proof. Dimensions of an all-empty dataset hold
    {!Mgraph.Synopsis.f3_empty}. *)
