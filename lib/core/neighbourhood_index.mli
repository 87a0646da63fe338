(** Vertex neighbourhood index — the index [N] (paper Section 4.3).

    The paper keeps [N+] and [N−] as per-vertex ordered tries with
    inverted lists over the multi-edges of incoming and outgoing
    neighbours. The packed multigraph already stores exactly those
    (neighbour, type set) pairs in both directions, so [N] is derived
    from it instead of copied: [N+] is the in-adjacency, [N−] the
    out-adjacency, and a probe walks the vertex's neighbour list,
    reading each multi-edge's type set in place. [neighbours idx v dir
    types] returns the data vertices [v'] adjacent to [v] in direction
    [dir] whose connecting multi-edge is a superset of [types] — the
    primitive used both for satellite matching and for extending
    partial core matches while preserving query structure. *)

type t

val build : Database.t -> t
(** The index over the database's graph — packed or a delta overlay.
    Constant time: nothing is copied. *)

val neighbours :
  t -> int -> Mgraph.Multigraph.direction -> int array -> Mgraph.Posting.t
(** [neighbours t v dir types]: with [dir = Out], vertices [v'] such
    that the multi-edge [v → v'] contains all of [types]; with
    [dir = In], such that [v' → v] does. [types] must be sorted and
    non-empty. The result is sorted and duplicate-free. O(degree of
    [v]): when every neighbour qualifies it is the resident neighbour
    posting itself ({!Mgraph.Multigraph.neighbours}, zero-copy), when
    none does {!Mgraph.Posting.empty}, otherwise a fresh Raw list. *)
