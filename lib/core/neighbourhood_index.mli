(** Vertex neighbourhood index — the index [N] (paper Section 4.3).

    For every data vertex two OTIL tries are kept: [N+] over the
    multi-edges of incoming neighbours and [N−] over outgoing ones.
    [neighbours idx v dir types] returns the data vertices [v'] adjacent
    to [v] in direction [dir] whose connecting multi-edge is a superset
    of [types] — the primitive used both for satellite matching and for
    extending partial core matches while preserving query structure. *)

type t

val build : ?layout:Mgraph.Posting.policy -> Database.t -> t
(** [layout] is the posting freeze policy for every trie (default
    [Auto]). *)

val build_range :
  ?layout:Mgraph.Posting.policy ->
  Database.t ->
  Mgraph.Multigraph.direction ->
  lo:int ->
  hi:int ->
  Otil.t array
(** Prepared tries of the vertex range [lo, hi) in one direction — the
    shardable unit of the parallel build ([In] yields [N+] shards, [Out]
    yields [N−]). Element [i] belongs to vertex [lo + i]. *)

val of_tries : incoming:Otil.t array -> outgoing:Otil.t array -> t
(** Assemble from full per-vertex trie arrays (element [v] belongs to
    vertex [v]); used by the parallel build and the snapshot reader.
    @raise Invalid_argument on a length mismatch. *)

val export : t -> Otil.t array * Otil.t array
(** The ([N+], [N−]) trie arrays, for the snapshot codec.
    @raise Invalid_argument on an overlay index. *)

val overlay :
  base:t ->
  graph:Mgraph.Multigraph.t ->
  touched_out:int list ->
  touched_in:int list ->
  unit ->
  t
(** Delta overlay: rebuild the prepared trie of every vertex in
    [touched_out] / [touched_in] from the overlay [graph]'s merged
    adjacency in that direction; untouched vertices keep the tries of
    [base] — a frozen index, or a previous overlay of one whose rebuilt
    tries are carried forward by reference. Nothing in [base] is
    mutated. New vertices ([>= vertex_count base]) not listed as
    touched answer the empty neighbourhood.
    @raise Invalid_argument on out-of-range ids or a [graph] smaller
    than [base]. *)

val neighbours :
  t -> int -> Mgraph.Multigraph.direction -> int array -> Mgraph.Posting.t
(** [neighbours t v dir types]: with [dir = Out], vertices [v'] such
    that the multi-edge [v → v'] contains all of [types]; with
    [dir = In], such that [v' → v] does. [types] must be sorted and
    non-empty. The result is sorted and duplicate-free. *)

val vertex_count : t -> int

val probes : t -> int
(** Lifetime number of {!neighbours} lookups — exported by the
    observability layer ([amber_neighbourhood_index_probes_total]). *)

val posting_stats : t -> Mgraph.Posting.stats
(** Per-layout posting counts and out-of-heap payload bytes summed
    over every frozen trie of both directions. *)
