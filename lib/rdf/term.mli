(** RDF terms: IRIs, literals and blank nodes.

    Terms are the components of RDF triples. Subjects are IRIs or blank
    nodes, predicates are IRIs, objects are IRIs, blank nodes or literals.
    Literals optionally carry a datatype IRI or a language tag, mirroring
    the RDF 1.1 abstract syntax. *)

type literal = {
  value : string;  (** lexical form, e.g. ["90000"] *)
  datatype : string option;  (** datatype IRI, absent for plain literals *)
  lang : string option;  (** language tag, e.g. ["en"] *)
}

type t =
  | Iri of string  (** absolute IRI, without the enclosing [< >] *)
  | Literal of literal
  | Bnode of string  (** blank node label, without the [_:] prefix *)

val iri : string -> t
(** [iri s] is the IRI term [s]. *)

val literal : ?datatype:string -> ?lang:string -> string -> t
(** [literal v] is a literal with lexical form [v]. At most one of
    [datatype] and [lang] may be given; giving both raises
    [Invalid_argument]. *)

val bnode : string -> t
(** [bnode label] is the blank node [_:label]. *)

val is_iri : t -> bool
val is_literal : t -> bool
val is_bnode : t -> bool

val compare : t -> t -> int
(** Total order over terms: IRIs < literals < blank nodes, then
    lexicographic on contents. *)

val order_compare : t -> t -> int
(** SPARQL [ORDER BY] semantics: blank nodes < IRIs < literals;
    literals with numeric lexical forms compare numerically, all other
    literals by lexical form (then datatype/language). *)

val equal : t -> t -> bool
val hash : t -> int

val unescape : string -> int -> Buffer.t -> (int, string) result
(** [unescape src i buf] decodes the string-literal escape whose
    backslash is [src.[i]] — an ECHAR (backslash then one of [t b n r f],
    a double or single quote, or a backslash) or a UCHAR (backslash [u]
    and four hex digits, or [U] and eight), the latter appended as UTF-8
    — into [buf], and returns its length in bytes or the reason it is
    malformed. The one unescaper of the N-Triples, Turtle and SPARQL
    readers. *)

val add_nt : Buffer.t -> t -> unit
(** [add_nt buf t] appends [t] in N-Triples concrete syntax: [<iri>],
    ["literal"], ["literal"^^<dt>], ["literal"@lang], [_:b]. A
    literal's lexical form escapes backslash, double quote, newline,
    carriage return and tab; IRIs, labels, datatypes and language tags
    are written as they are. *)

val pp : Format.formatter -> t -> unit
(** {!add_nt}'s text, printed. *)

val to_string : t -> string
(** {!add_nt}'s text, as a string. *)
