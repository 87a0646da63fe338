(** Recursive-descent parser for the SPARQL fragment.

    Grammar:
    {v
    query    ::= prefix* (select | ask | construct)
    prefix   ::= PREFIX pname: <iri>
    select   ::= SELECT DISTINCT? ('*' | var+) WHERE? union modifiers
    ask      ::= ASK WHERE? group
    construct::= CONSTRUCT group WHERE group modifiers
    modifiers::= (ORDER BY key+)? (LIMIT int | OFFSET int)*
    union    ::= group (UNION union)?
    group    ::= '{' (block '.'? | union | OPTIONAL group | FILTER expr)* '}'
    block    ::= subject props
    props    ::= verb objects (';' verb objects)*
    objects  ::= object (',' object)*
    v}
    Every query text is tokenized and parsed once, by this one grammar.
    A group of triple blocks alone is a basic graph pattern (BGP);
    [UNION], [OPTIONAL], [FILTER] (comparisons, [&&]/[||]/[!], [BOUND],
    [REGEX]) or a join of subgroups make an {!Algebra} pattern. FILTERs
    scope over their enclosing group, as in SPARQL. Predicate position
    accepts [a] for [rdf:type]. Prefixed names are expanded against the
    declared prefixes plus {!Rdf.Namespace.common} defaults. *)

exception Error of { line : int; col : int; message : string }

val parse : ?namespaces:Rdf.Namespace.t -> string -> Ast.t
(** A SELECT query over one BGP — the fragment of the paper.
    @raise Error on syntax errors, unbound prefixes, other query forms
    and patterns that are not one BGP. *)

val parse_result : ?namespaces:Rdf.Namespace.t -> string -> (Ast.t, string) result

(** {1 Every query form} *)

type any_query =
  | Q_select of Ast.t  (** a SELECT over one BGP: the BGP engine's input *)
  | Q_algebra of Algebra.t
      (** any other SELECT: UNION, OPTIONAL, FILTER or joined subgroups,
          for the algebra evaluator *)
  | Q_ask of Ast.t  (** the WHERE clause, as a [SELECT *] *)
  | Q_construct of Ast.triple_pattern list * Ast.t
      (** template, and the WHERE clause as a [SELECT *] *)

val parse_any : ?namespaces:Rdf.Namespace.t -> string -> any_query
(** Parse any query and say which evaluator answers it. ASK and
    CONSTRUCT take BGPs only.
    @raise Error on syntax errors or unbound prefixes. *)
