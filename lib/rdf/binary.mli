(** Compact binary RDF serialization — the {e triple interchange}
    format of the offline stage.

    Layout: an 8-byte magic ["AMBERDB1"], a term dictionary (every
    distinct term once, tagged by kind), then the triples as dictionary
    indexes. Unsigned integers use LEB128 varints, so files are
    typically 3–6× smaller than the equivalent N-Triples and parse an
    order of magnitude faster.

    This module stores {e triples only}: loading an ["AMBERDB1"] file
    replays the whole offline stage (multigraph transformation plus the
    [A]/[S]/[N] index builds). The fully built engine state — database,
    dictionaries and indexes — is persisted separately by the
    ["AMBERIX1"] index snapshots of [Amber.Snapshot], which reuse the
    varint/term conventions and the {!Corrupt} exception defined here. *)

val magic : string

exception Corrupt of string
(** Raised by the readers on malformed input (bad magic, truncated
    varint, out-of-range index, unknown tag, bad section CRC). Shared
    with the snapshot reader of [Amber.Snapshot]. *)

val write : Buffer.t -> Triple.t list -> unit

val read : string -> pos:int -> Triple.t list
(** Read from a string starting at [pos] (the whole buffer must contain
    the full document). *)

val write_file : string -> Triple.t list -> unit
val read_file : string -> Triple.t list

val crc32 : ?off:int -> ?len:int -> string -> int
(** CRC-32 (IEEE, reflected) of a substring — the per-section checksum
    of the snapshot format. @raise Invalid_argument on a range outside
    the string. *)

val write_term : Buffer.t -> Term.t -> unit
(** Tagged term encoding (exposed for the snapshot writer). *)

val read_term : string -> int ref -> Term.t
(** @raise Corrupt on truncation or an unknown tag. *)

(**/**)

module Varint : sig
  val write : Buffer.t -> int -> unit
  (** @raise Invalid_argument on negative input. *)

  val read : string -> int ref -> int
  (** Strict: @raise Corrupt on truncation, overflow past the 63-bit
      int range, or a non-minimal encoding (redundant trailing zero
      group). *)

  val write_signed : Buffer.t -> int -> unit
  (** Zigzag-mapped signed varint (small magnitudes of either sign stay
      short) — synopsis coordinates can be negative. *)

  val read_signed : string -> int ref -> int
  (** @raise Corrupt on truncation, overflow or non-minimal encoding. *)
end
