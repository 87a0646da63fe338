(** Sealed compressed posting lists — the physical substrate under
    every sorted id set the indexes keep resident.

    A posting list is an immutable strictly-increasing set of
    non-negative ints (vertex ids, edge types) frozen into one of three
    physical layouts:

    - {b Raw}: the plain [int array] the engine always used — zero
      translation cost, one word per element.
    - {b Ef} (Elias-Fano): low bits packed at fixed width
      [⌊log₂(u/n)⌋], high bits as a unary bit vector with sampled
      [select₀] — about [2 + log₂(u/n)] bits per element, with
      [skip_to] served by a bucket jump plus a short scan.
    - {b Blocked} (partitioned): 128-element blocks, each encoded as a
      span-relative bitset when dense or delta-varints when sparse,
      under a small in-heap directory — the right shape for clustered
      id runs.

    Compressed payloads live in [Bigarray] buffers outside the OCaml
    heap (so [Obj.reachable_words] does not see them — account with
    {!out_of_heap_bytes}). Every query operation ([mem], [next_geq],
    [inter], [inter_many], iteration) runs directly over the encoded
    form; nothing is decompressed into an array first except
    {!to_array}.

    Layouts are chosen per list at freeze time by one deterministic
    rule ({!of_array}); forcing a layout is for this module's kernel
    benchmarks and tests. *)

type t

type layout = Raw | Ef | Blocked

type policy =
  | Auto
      (** the one layout rule every index list freezes under: fewer than
          64 elements → Raw; a span (last − first + 1) of at most six
          times the length → Blocked; anything wider → Ef *)
  | Force of layout
      (** every list in this layout (empty lists stay Raw — the other
          encodings have no empty form) *)

exception Corrupt of string
(** Raised by {!decode} on malformed or non-canonical bytes. *)

val empty : t
(** The empty set (Raw; physically shared). *)

val of_array : ?policy:policy -> int array -> t
(** Freeze a strictly-increasing array of non-negative ints
    (default policy [Auto]). Under [Raw] the input array is aliased,
    not copied — the caller must not mutate it afterwards.
    @raise Invalid_argument if the input is not strictly increasing or
    contains a negative. *)

val raw : int array -> t
(** [of_array ~policy:(Force Raw)] without the sortedness check — the
    zero-cost wrap for arrays already validated by the caller (e.g.
    fresh {!Sorted_ints} kernel results). The array is aliased. *)

val layout : t -> layout
val length : t -> int
val is_empty : t -> bool

val mem : t -> int -> bool
val next_geq : t -> int -> int option
(** Smallest element [>= x], if any — the one-shot [skip_to]. *)

val index_of : t -> int -> int option
(** Rank of [x] if present: [index_of p x = Some i] iff [x] is the
    [i]-th smallest element. *)

val to_array : t -> int array
(** Decode to a fresh array — except Raw lists, which return the
    underlying array itself (do not mutate). *)

val iter : (int -> unit) -> t -> unit
val iteri : (int -> int -> unit) -> t -> unit
(** [iteri f p] calls [f rank value] in increasing order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val equal : t -> t -> bool
(** Same element set, regardless of layout. *)

val inter : t -> t -> t
(** Set intersection directly over the encoded forms: the smaller side
    is enumerated, the larger side skipped through with a stateful
    cursor. When both sides are Raw this is exactly
    {!Sorted_ints.inter} (adaptive merge/gallop/bitset). Like the raw
    kernels, the result aliases an operand when it equals it — callers
    must treat results as immutable. Results are always Raw (fresh
    intersections are transient query-time sets; only index freeze
    compresses). *)

val inter_many : t list -> t
(** Intersection of one or more lists, smallest first with early empty
    exit. @raise Invalid_argument on []. *)

val out_of_heap_bytes : t -> int
(** Bytes of [Bigarray] payload invisible to [Obj.reachable_words]
    (0 for Raw). *)

(** {1 Layout accounting} *)

type stats = {
  mutable raw_lists : int;
  mutable ef_lists : int;
  mutable blocked_lists : int;
  mutable elements : int;
  mutable payload_bytes : int;  (** out-of-heap payload total *)
}

val fresh_stats : unit -> stats
val count_into : stats -> t -> unit
val merge_stats : into:stats -> stats -> unit

(** {1 Wire codec}

    The layout-tagged encoding AMBERIX1 snapshots embed: a varint layout tag,
    then a per-layout payload (Raw: delta varints; Ef/Blocked: header
    varints plus the word buffers as little-endian 64-bit, so loading
    is a straight buffer fill). Decoding validates canonical form — an
    unknown tag, a padding bit set, a non-monotone sequence all raise
    {!Corrupt}. *)

val encode : Buffer.t -> t -> unit

val decode : string -> int -> t * int
(** [decode src pos] returns the posting and the position one past its
    encoding. @raise Corrupt on malformed input. *)
