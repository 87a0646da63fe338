(** Vertex signature index — the index [S] (paper Section 4.2).

    Stores the 8-feature synopsis of every data vertex packed into one
    flat [int array] (vertex [v] at offset [v * Mgraph.Synopsis.dims]).
    Querying with a query vertex's synopsis returns every data vertex
    whose synopsis dominates it (Lemma 1 guarantees no valid candidate
    is lost). The paper keeps the synopses in an R-tree; here the probe
    is one linear dominance scan with an early exit per vertex, which
    on this engine's workloads returns the same candidates faster than
    a tree descent on all but the most selective probes. *)

type t

val build : Database.t -> t

val fill_range : Database.t -> int array -> lo:int -> hi:int -> unit
(** Write the synopses of the vertex range [[lo, hi)] into their slots
    of a packed array of length [vertex_count * dims] — the shardable
    part of the build, run per chunk by the parallel index
    construction (chunks write disjoint slots). The features are read
    off the graph's type sets in place ({!Mgraph.Multigraph.iter_type_sets}),
    with nothing allocated per vertex or edge; {!overlay} uses the same
    pass, and {!Mgraph.Synopsis.of_vertex} is kept as the independent
    reference that [fsck] and the tests compare it with. *)

val of_packed : int array -> t
(** Assemble the index from packed synopses (the vertex count is
    [length / dims]); computes the componentwise {!maxima}.
    [build db] is [of_packed] over every vertex's synopsis.
    @raise Invalid_argument when the length is not a multiple of
    {!Mgraph.Synopsis.dims}. *)

val packed : t -> int array
(** The packed synopses, for the snapshot codec (shared, not copied).
    @raise Invalid_argument on an overlay index. *)

val overlay : base:t -> graph:Mgraph.Multigraph.t -> touched:int list -> unit -> t
(** Delta overlay: the merged synopsis of every vertex in [touched], and
    of every vertex the overlay [graph] adds beyond [base], is
    recomputed from [graph] and shadows the base entry. [base] is a
    frozen index or a previous overlay of one: then its shadowing
    synopses are carried forward, so the result still shadows every
    vertex any layer touched. {!maxima} becomes [maxima base ⊔ touched]
    — still a sound upper bound for Lemma 1 screening, merely loose
    after deletions. [base] is shared, never mutated.
    @raise Invalid_argument on out-of-range ids or a [graph] smaller
    than [base]. *)

val vertex_count : t -> int
(** Vertices with a synopsis (the overlay graph's count on overlays). *)

val candidates : t -> Mgraph.Synopsis.t -> int array
(** Sorted data vertices whose synopsis dominates the query synopsis:
    one scan over every vertex's effective synopsis (the shadowing one
    on overlays). *)

val candidates_of_signature : t -> Mgraph.Signature.t -> int array

val dominates : t -> int -> Mgraph.Synopsis.t -> bool
(** [dominates t v query]: does vertex [v]'s stored synopsis dominate
    [query] (Lemma 1)? Allocates nothing. *)

val vertex_synopsis : t -> int -> Mgraph.Synopsis.t
(** The stored synopsis of a data vertex (a fresh copy). *)

val distinct_count : t -> int
(** Number of distinct effective synopses over every vertex (the
    shadowing one on overlays), counted without copying any. *)

val maxima : t -> int array
(** Componentwise maximum over every stored synopsis (a fresh copy). A
    query synopsis exceeding it on any dimension has {e zero} candidates
    (Lemma 1 lifted to compile time); the static analyzer turns that
    into an unsatisfiability proof. Dimensions of an all-empty dataset
    hold {!Mgraph.Synopsis.f3_empty}. *)
