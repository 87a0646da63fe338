(** Operations on strictly increasing integer arrays.

    Candidate sets, multi-edge type sets and attribute sets are all kept
    as sorted, duplicate-free [int array]s. Set algebra on them is the
    matcher's hot path, so {!inter} dispatches between three kernels by
    operand shape:

    - {e merge} — the classic linear merge, best for similar sizes;
    - {e galloping} — the small side drives, exponential + binary search
      skips through the large side; best for skewed sizes
      ([O(n_s log (n_l / n_s))]);
    - {e bitset} — the small side is loaded into a span-offset bit
      table, the large side's overlapping window is filtered by O(1)
      membership tests; best when both sides are large and the smaller
      one is dense.

    All functions assume (and preserve) strict ordering, treat arrays as
    immutable, and may return an {e operand itself} (physically) when it
    equals the result — callers must never mutate a returned array. *)

val of_list : int list -> int array
(** Sort and deduplicate. *)

val is_sorted : int array -> bool
(** Strictly increasing (hence duplicate-free)? *)

val mem : int array -> int -> bool
(** Binary search. *)

val lower_bound_from : int array -> int -> int -> int
(** [lower_bound_from b lo x] — the smallest index [j >= lo] with
    [b.(j) >= x], or [length b] if none: galloping expansion from [lo],
    then binary search in the bracketed window. O(log d) in the distance
    advanced, so a sequence of searches with increasing [x] (a cursor)
    resumes where the last one stopped. *)

val subset : int array -> int array -> bool
(** [subset a b] — is every element of [a] in [b]? Gallops through [b]
    when it is much longer than [a]. *)

val inter : int array -> int array -> int array
(** Adaptive intersection: picks merge, galloping or bitset by operand
    sizes and density. Returns an operand unchanged when the result
    equals it. *)

val inter_merge : int array -> int array -> int array
(** The linear-merge kernel (exposed for tests and benchmarks). *)

val inter_gallop : int array -> int array -> int array
(** The galloping (exponential-search) kernel — either operand order. *)

val inter_bitset : int array -> int array -> int array
(** The bitset kernel: builds a bit table spanning the smaller operand's
    value range, so its cost grows with that span — callers should
    prefer {!inter}, which only selects it for dense operands. *)

val union : int array -> int array -> int array
val diff : int array -> int array -> int array

val equal : int array -> int array -> bool
