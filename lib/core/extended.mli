(** Evaluation of the extended SPARQL algebra ([UNION] / [OPTIONAL] /
    [FILTER]) on top of the AMbER engine — the paper's Section 8 future
    work.

    Basic graph patterns are answered by {!Engine.query}; the algebra
    operators combine their binding sets:

    - [Join]: compatible-mapping join (nested loop; mappings can be
      partial because of [OPTIONAL]);
    - [Union]: concatenation;
    - [Optional]: left outer join — left bindings survive unextended
      when no compatible right binding exists;
    - [Filter]: SPARQL-style evaluation where a type error (e.g. an
      unbound variable in a comparison) makes the condition false.
      Comparisons are numeric when both operands have numeric lexical
      forms, lexicographic on literal values otherwise; [REGEX] uses
      OCaml [Str] syntax and searches anywhere in the value. One
      simplification against SPARQL's full three-valued logic: [&&] and
      [||] short-circuit left to right, so an error in the left operand
      eliminates the row even when SPARQL's truth table would recover
      (e.g. [error || true]). *)

val query :
  ?timeout:float ->
  ?limit:int ->
  ?open_objects:bool ->
  Engine.t ->
  Sparql.Algebra.t ->
  Engine.answer
(** Evaluate a query that {!Sparql.Parser.parse_any} parsed as
    [Q_algebra] (or a basic SELECT lifted with {!Sparql.Algebra.of_basic}).
    DISTINCT keys the projected rows; ORDER BY, OFFSET and LIMIT (the
    smaller of [limit] and the query's) are {!Sparql.Ast.apply_modifiers}.
    @raise Engine.Unsupported on out-of-fragment BGPs.
    @raise Deadline.Expired on timeout. *)
