(** Bidirectional string↔id dictionaries.

    The paper (Table 2) keeps three dictionaries — vertices, edge types
    and vertex attributes — each mapping an RDF entity (the [key]) to a
    dense integer identifier (the [value]). This module provides the
    shared implementation: interning assigns consecutive ids starting
    from 0, and the inverse mapping [M⁻¹] is O(1).

    The table is open addressing over flat arrays: the keys by id, each
    key's hash by id, and a power-of-two slot array of ids probed
    linearly and kept at most half full. A key costs no heap cell of
    its own beyond its string, a probe compares the stored hash before
    the string, and growing re-slots ids from the stored hashes without
    reading a key. {!value} is a bounds-checked array read and allocates
    nothing. *)

type t

val create : ?initial_capacity:int -> unit -> t

val intern : t -> string -> int
(** [intern d s] is the id of [s], assigning the next fresh id when [s]
    has not been seen before. *)

val find_opt : t -> string -> int option
(** [find_opt d s] is [Some id] without interning, [None] if unknown. *)

val value : t -> int -> string
(** [value d id] is the string interned with [id] — the inverse mapping.
    @raise Invalid_argument when [id] was never assigned. *)

val size : t -> int
(** Number of distinct interned strings; ids are [0 .. size - 1]. *)

val mem : t -> string -> bool

val copy : t -> t
(** An independent copy (three flat array copies): interning into
    either leaves the other unchanged. *)

val select : t -> ?next:t -> int array -> t
(** [select d ?next ids] is a fresh dictionary whose id [i] holds the key
    of [ids.(i)], where ids [0 .. size d - 1] name [d]'s keys and ids
    from [size d] on name [next]'s, offset by [size d]. The keys move
    with their stored hashes: no key is hashed and no two are compared.
    The result equals interning those keys in order into an empty
    dictionary — provided the keys are distinct, as they are when [next]
    holds no key of [d].
    @raise Invalid_argument when an id repeats or is out of range. *)
