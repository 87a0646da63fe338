(** Attribute inverted list — the index [A] (paper Section 4.1).

    Maps every attribute id to the sorted list of data vertices carrying
    it; the candidates for a query vertex with attribute set [u.A] are
    the intersection of the per-attribute lists. Lists are frozen
    {!Mgraph.Posting} posting lists — queried directly over the
    compressed form. *)

type t

val build : Database.t -> t
(** Each list takes the layout {!Mgraph.Posting.of_array} picks for it. *)

val of_postings : Mgraph.Posting.t array -> t
(** Adopt already-frozen posting lists verbatim — the snapshot load
    path (layouts come from the snapshot tags). *)

val postings : t -> Mgraph.Posting.t array
(** The resident posting lists, for the snapshot codec.
    @raise Invalid_argument on an overlay index (overlays are never
    snapshotted directly — compaction re-freezes first). *)

val overlay :
  base:t -> attribute_count:int -> patched:(int * int array) list -> unit -> t
(** [overlay ~base ~attribute_count ~patched ()] — delta overlay: each
    [(a, vs)] in [patched] replaces attribute [a]'s list with the fully
    merged sorted vertex list [vs] (ids [>= attribute_count base] are
    new attributes). [base] is a frozen index or a previous overlay of
    one, whose patched lists are copied by reference and carried
    forward. Untouched attributes fall through to [base], which is
    shared and never mutated.
    @raise Invalid_argument on unsorted lists, an id listed twice, or
    ids outside [attribute_count]. *)

val vertices_with : t -> int -> Mgraph.Posting.t
(** Sorted data vertices carrying one attribute (empty if none). *)

val candidates : t -> int array -> Mgraph.Posting.t
(** [candidates a attrs] — sorted data vertices carrying {e all} of
    [attrs]. @raise Invalid_argument on an empty attribute set (callers
    only consult [A] when the query vertex has attributes). *)

val attribute_count : t -> int

val posting_stats : t -> Mgraph.Posting.stats
(** Per-layout list counts and out-of-heap payload bytes. *)
