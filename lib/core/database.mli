(** The multigraph database: an RDF tripleset transformed per paper
    Section 2.1.1.

    Subjects and IRI/bnode objects become vertices; predicates between
    two vertices become typed edges; a literal object is folded together
    with its predicate into a vertex {e attribute} of the subject. Three
    dictionaries (Table 2) map RDF entities to dense ids and back. *)

type t

val of_triples : Rdf.Triple.t list -> t

(** {1 Snapshot decomposition}

    [export]/[import] expose the database's constituent parts so the
    snapshot codec ([Amber.Snapshot]) can serialize them without this
    module learning any on-disk format. *)

type parts = {
  p_graph : Mgraph.Multigraph.t;
  p_vertices : Mgraph.Dict.t;
  p_edge_types : Mgraph.Dict.t;
  p_attributes : Mgraph.Dict.t;
  p_attribute_data : (string * Rdf.Term.literal) array;
  p_triple_count : int;
}

val export : t -> parts

val import : parts -> t
(** Reassemble a database from parts. @raise Invalid_argument when the
    parts are mutually inconsistent (dictionary sizes disagreeing with
    the graph, attribute ids out of range). *)

val graph : t -> Mgraph.Multigraph.t

(** {1 Delta overlay} *)

val overlay :
  base:t ->
  graph:Mgraph.Multigraph.t ->
  new_vertices:string array ->
  new_edge_types:string array ->
  new_attributes:(string * Rdf.Term.literal) array ->
  triple_count:int ->
  unit ->
  t
(** [overlay ~base ~graph ...] wraps the delta-overlay [graph] (built by
    {!Mgraph.Multigraph.overlay} over [base]'s graph) together with
    dictionary {e extensions}: terms the write store introduced that
    [base] does not know. [base] is a frozen database or a previous
    overlay of one. New vertex keys take ids [vertex_count base + i] (in
    array order), and likewise for edge types and [(predicate, literal)]
    attributes; a previous overlay's extensions are copied (values
    shared) and carried forward. The frozen dictionaries are shared
    untouched — they are mutable hashtables visible to every reader
    pinned on the same generation, so no overlay ever interns into them.
    [triple_count] is the exact post-delta triple count (maintained by
    the delta compiler).
    @raise Invalid_argument when [graph] is not an overlay, sizes
    disagree, or a "new" key is already known to [base]. *)

val is_overlay : t -> bool

val key_of_term : Rdf.Term.t -> string option
(** The vertex-dictionary key encoding of an IRI or blank-node term
    ([None] for literals) — exposed so the delta compiler can assign ids
    to vertices the base dictionaries don't know in a deterministic
    (key-sorted) order. *)

(** {1 Dictionary lookups (the mapping functions M and M⁻¹)} *)

val vertex_of_term : t -> Rdf.Term.t -> int option
(** Vertex id of an IRI or blank-node term; [None] if absent or the term
    is a literal. *)

val term_of_vertex : t -> int -> Rdf.Term.t
(** Inverse vertex mapping [M⁻¹_v]. *)

val edge_type_of_iri : t -> string -> int option
(** Edge-type id of a predicate IRI ([M_e]); [None] when the predicate
    never links two vertices. *)

val iri_of_edge_type : t -> int -> string

val attribute_of : t -> pred:string -> lit:Rdf.Term.literal -> int option
(** Attribute id of a [(predicate, literal)] pair ([M_a]). *)

val attribute_data : t -> int -> string * Rdf.Term.literal
(** Inverse attribute mapping: the [(predicate IRI, literal)] pair. *)

val attribute_predicate_exists : t -> string -> bool
(** Does any attribute use this predicate IRI? Together with
    {!edge_type_of_iri} this decides whether a predicate occurs in the
    data at all — the static analyzer's unknown-predicate proof. Linear
    in the attribute count (only consulted on lookup failures). *)

val vertex_count : t -> int
val edge_type_count : t -> int
val attribute_count : t -> int
val triple_count : t -> int
(** Number of input triples retained (duplicates collapse). *)

val to_triples : t -> Rdf.Triple.t list
(** Reconstruct the tripleset the database denotes (edges plus folded
    attributes). Round-trip guarantee: [of_triples (to_triples db)] is
    semantically identical to [db] (identifiers may be reassigned but
    every query answers the same). Duplicate input triples do not
    reappear. *)

val freeze : t -> t
(** [freeze db] — a frozen database of the same world as [db] (frozen or
    a delta overlay), built in id space: no triple is decoded and no
    term is hashed but the kept dictionary keys, each once. It drops
    the vertices with no triple left, the predicates that label no edge
    and the attributes no vertex carries, and renumbers what is left as
    {!Mgraph.Multigraph.freeze} does. The result equals
    [of_triples (to_triples db)] — same ids, same posting layouts, same
    snapshot bytes — without the round trip. The dictionaries are fresh
    tables ([db]'s are never mutated) and the triple count is exact. *)

val literals_of : t -> vertex:int -> pred:string -> Rdf.Term.literal list
(** All literals attached to [vertex] through [pred] — supports the
    open-object extension ({!Literal_bindings}). *)

val pp_stats : Format.formatter -> t -> unit
