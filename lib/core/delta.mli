(** The write store: an immutable set-semantics delta of inserted and
    deleted triples over a frozen base engine.

    The merged world a delta denotes is [(base \ dels) ∪ adds]; {!insert}
    and {!remove} keep the two sets disjoint, so there is never an
    ordering ambiguity. {!extend} lowers one write batch onto an engine
    as a {e delta overlay}: per-index patches (merged adjacency,
    attribute lists and synopses of exactly the touched vertices)
    layered over the shared frozen structures, assembled into
    a fresh {!Engine.t} the matcher queries through the unchanged kernel
    interfaces. The engine extended may itself be an overlay: its patch
    tables are copied and only what the batch touches is recomputed, so
    publishing a batch costs O(batch + degree of the touched vertices +
    entries patched so far), not O(cumulative delta). Nothing is
    mutated, so readers pinned on older epochs are unaffected. *)

type t

val empty : t

val insert : t -> Rdf.Triple.t -> t
(** Record an insertion (also cancels a pending deletion of the same
    triple). Inserting a triple the base already holds is harmless —
    set semantics. *)

val remove : t -> Rdf.Triple.t -> t
(** Record a deletion (also cancels a pending insertion). Deleting a
    triple the base never held is a no-op at compile time. *)

val apply : t -> adds:Rdf.Triple.t list -> dels:Rdf.Triple.t list -> t
(** Batch form: deletions first, then insertions (SPARQL UPDATE's
    DELETE/INSERT order — a triple in both lists ends up present). *)

val adds : t -> Rdf.Triple.t list
(** Pending insertions, in {!Rdf.Triple.compare} order. *)

val dels : t -> Rdf.Triple.t list

val add_count : t -> int
val del_count : t -> int
val size : t -> int
val is_empty : t -> bool

val extend : Engine.t -> adds:Rdf.Triple.t list -> dels:Rdf.Triple.t list -> Engine.t
(** [extend e ~adds ~dels] — an overlay engine answering queries over
    [e]'s world with the batch applied, deletions first, then insertions
    (as {!apply}). [e] is a frozen engine or an overlay built by an
    earlier [extend]/{!compile} over one; the result is again one layer
    over the frozen base. IRIs/bnodes, predicates and
    [(predicate, literal)] attributes [e] does not know get ids past
    [e]'s, in sorted key order within the batch, so a given sequence of
    batches always numbers terms the same way. A vertex whose last
    triple a later batch removes keeps its (now triple-less) id until
    compaction. The result shares everything it does not recompute,
    keeps [e]'s statistics and has fresh matcher caches. *)

val compile : Engine.t -> t -> Engine.t
(** [compile base delta] — the one-batch case of {!extend}: [delta]
    lowered onto [base] in one step. Over a frozen [base] this is the
    overlay of the whole cumulative delta, which is how
    {!Live_engine.open_dir} replays a manifest; it may number new terms
    differently from the chain of batches that built the same delta,
    but answers the same. *)
