(** Static R-tree over k-dimensional integer rectangles.

    Built once by Sort-Tile-Recursive bulk loading (the offline index
    build; live overlays patch around it and compaction rebuilds it)
    and searched for the rectangles {e containing} a query box — the
    synopsis-containment probe of paper Lemma 1. *)

type 'a t

val bulk_load : ?max_entries:int -> (Rect.t * 'a) list -> 'a t
(** Build by Sort-Tile-Recursive packing: near-full leaves, balanced
    height. [max_entries] is the node fan-out [M] (default 16, minimum
    4). All entries must share one dimensionality. *)

val size : 'a t -> int
(** Number of stored entries. *)

val fold_containing : Rect.t -> ('a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over the values whose rectangle contains the query rectangle,
    in unspecified order. *)

val check_invariants : 'a t -> (unit, string) result
(** Validate MBR consistency, fan-out bounds and leaf depth uniformity —
    used by the test suite. *)

val encode :
  Buffer.t ->
  write_int:(Buffer.t -> int -> unit) ->
  write_value:(Buffer.t -> 'a -> unit) ->
  'a t ->
  unit
(** Serialize the exact tree structure: node shapes and leaf values
    only. Rectangles are not written — a leaf rectangle is a function
    of its value and every inner MBR is the union of its children, so
    {!decode} recomputes both. The bytes are canonical for a given
    tree shape and value sequence. *)

val decode :
  string ->
  int ref ->
  read_int:(string -> int ref -> int) ->
  read_value:(string -> int ref -> 'a) ->
  rect_of_value:('a -> Rect.t) ->
  'a t
(** Inverse of {!encode}, reading at [!pos] and advancing it. Leaf
    rectangles come from [rect_of_value]; inner MBRs are rebuilt
    bottom-up as unions, with no second pass.
    @raise Failure on structurally malformed input (bad tags, fan-out
    out of bounds) or when [rect_of_value] raises it (unknown value);
    [read_int]/[read_value] exceptions pass through. *)
