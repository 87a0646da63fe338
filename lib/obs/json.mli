(** A minimal JSON value type with a strict parser and printer.

    The observability stack emits JSON from many corners (metric
    registries, span trees, the query log, benchmark reports); this is
    the matching {e reader} — small, dependency-free, strict enough to
    act as a well-formedness check in tests and CI. Used by the trace
    schema validator, the benchmark baseline comparator and
    [amber log tail]. Numbers are doubles (ints round-trip exactly up to
    2⁵³); [\u]-escapes decode to UTF-8 (surrogate pairs become U+FFFD,
    which no renderer in this repo emits). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string
(** Parse failure, with a byte position. *)

val parse : string -> t
(** Parse one complete JSON document; trailing garbage is an error.
    @raise Malformed on any syntax error. *)

val parse_opt : string -> t option

(** {1 Accessors} — total, returning [None]/[[]] on a type mismatch. *)

val member : string -> t -> t option
(** Object member by key; [None] on non-objects and absent keys. *)

val to_list : t -> t list
(** Array items; [[]] for non-arrays. *)

val to_float : t -> float option
val to_string : t -> string option
val to_bool : t -> bool option

(** {1 Printing} *)

val add_escaped : Buffer.t -> string -> unit
(** [add_escaped buf s] appends the body of the JSON string literal for
    [s] (no enclosing quotes). Only the double quote, the backslash and
    bytes below 0x20 are escaped: the first two and newline, carriage
    return and tab take their two-character forms, the other control
    bytes [\u00XX] (upper-case hex). Every other byte, UTF-8 included,
    is copied as is, each run of them with one [Buffer.add_substring].
    This is the one JSON string escaper of the code base. *)

val escape : string -> string
(** [escape s] is what {!add_escaped} appends, as a string. *)

val to_text : t -> string
(** Compact one-line rendering; parseable by {!parse}. *)
