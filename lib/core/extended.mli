(** Evaluation of the extended SPARQL algebra ([UNION] / [OPTIONAL] /
    [FILTER]) on top of the AMbER engine — the paper's Section 8 future
    work.

    Basic graph patterns are answered by a callback (the engine's BGP
    pipeline); the algebra operators combine their binding sets:

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

type binding = (string * Rdf.Term.t) list
(** A partial solution mapping: variable name to term; unbound
    variables are absent. *)

val eval :
  deadline:Deadline.t ->
  bgp:(Sparql.Ast.triple_pattern list -> binding list) ->
  Sparql.Algebra.pattern ->
  binding list
(** The solution mappings of a pattern, in evaluation order. [bgp]
    answers each non-empty basic graph pattern leaf ({!Engine.run} runs
    it through the engine's pipeline); the empty group is the one empty
    mapping. Projection and the solution modifiers are the caller's.
    @raise Deadline.Expired when [deadline] passes between operators or
    left rows. *)
