(** Ordered Trie with Inverted Lists (paper Section 4.3, after
    Terrovitis et al., CIKM 2006).

    An OTIL indexes a set of (word, value) pairs where each {e word} is a
    strictly increasing sequence of integers (a multi-edge type set) and
    each value is an opaque integer (a neighbour vertex id). It answers
    {e superset queries}: given a query set [T'], return every value
    whose word is a superset of [T']. Additionally each symbol keeps an
    inverted list of all values whose word contains it, giving O(1)
    access for singleton queries — the common case in SPARQL BGPs.

    Two physical states. While {e building}, the structure is a mutable
    node trie. {!prepare} {e freezes} it into a compact word table: one
    packed int array holding every word {e and} every small Raw value
    list inline, plus a pool of large {!Mgraph.Posting} lists kept in
    their compressed layouts. Inverted lists are answered by scanning
    the word table (a vertex-neighbourhood trie holds a handful of
    words, so the scan is cheaper than keeping per-symbol arrays
    resident). The frozen form costs a small fraction of the building
    trie's heap words; queries run directly over it. *)

type t

val create : unit -> t

val add : t -> int array -> int -> unit
(** [add t word v] inserts the pair. [word] must be strictly increasing
    and non-empty; @raise Invalid_argument otherwise. Inserting the same
    (word, value) twice is idempotent in query results (the inverted
    lists deduplicate lazily). Adding to a frozen trie thaws it first —
    the word table is decoded back into a mutable trie (linear in the
    trie, fine for the incremental-extension and test paths; the engine
    never adds after freezing). *)

val cardinal : t -> int
(** Number of [add] calls retained. *)

val supersets : t -> int array -> Mgraph.Posting.t
(** [supersets t q] — sorted, duplicate-free values whose word contains
    every element of the (strictly increasing) query [q]. An empty query
    returns every stored value. On a frozen trie a single-word hit on a
    pooled list returns the stored posting itself (zero-copy). *)

val with_symbol : t -> int -> Mgraph.Posting.t
(** [with_symbol t s] — sorted values whose word contains the symbol
    [s]; the per-symbol inverted list. On a frozen trie a single-carrier
    hit on a pooled list returns the resident posting (zero-copy); other
    hits materialize a fresh Raw list. Reads are pure: on an unprepared
    trie the list is sorted afresh on every call (first-probe sorting
    must not pollute query timings, so index builders call {!prepare}
    eagerly instead of relying on lazy caching). *)

val prepare : ?policy:Mgraph.Posting.policy -> t -> unit
(** Freeze: compile the mutable trie into the compact word table,
    value lists frozen under [policy] (default [Auto]). Queries never
    mutate the structure, so a prepared trie is safely shareable across
    domains; {!add} thaws it again. Idempotent (a second call with a
    different policy does not re-freeze). Called eagerly at index-build
    time by [Neighbourhood_index.build]. *)

val prepared : t -> bool
(** Has {!prepare} run since the last {!add}? *)

val words : t -> (int array * int array) list
(** All (word, sorted values) pairs in lexicographic word order, for
    codecs, tests and debugging. *)

val posting_stats : t -> Mgraph.Posting.stats -> unit
(** Accumulate this trie's frozen posting-layout counts and out-of-heap
    payload bytes into [stats] (inline value lists count as Raw with no
    payload). No-op on an unfrozen trie. *)

val encode_frozen :
  Buffer.t ->
  write_int:(Buffer.t -> int -> unit) ->
  write_posting:(Buffer.t -> Mgraph.Posting.t -> unit) ->
  t ->
  unit
(** The snapshot codec: the word table directly — cardinal, word count,
    then each word (delta-coded) with its value posting emitted through
    [write_posting], preserving the frozen layout tags. Canonical for a
    given (word → values) table and layout choice; an unfrozen trie is
    written through its building word table with Raw postings. Integers
    are framed by [write_int] (the snapshot format passes a varint
    writer) — this library takes no serialization dependency. *)

val decode_frozen :
  string ->
  int ref ->
  read_int:(string -> int ref -> int) ->
  read_posting:(string -> int ref -> Mgraph.Posting.t) ->
  t
(** Inverse of {!encode_frozen}; the result is frozen and value
    postings keep their stored layouts (small Raw lists inline into the
    packed table — physically identical on re-encode). Reads at [!pos]
    and advances it. @raise Failure on malformed structure; whatever
    [read_int] or [read_posting] raises on framing errors passes
    through. *)
