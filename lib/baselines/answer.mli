(** Result assembly shared by the baseline engines: projection and
    DISTINCT, then ORDER BY, OFFSET and LIMIT by
    {!Sparql.Ast.apply_modifiers}, mirroring {!Amber.Engine.answer},
    whose record every engine answers with. *)

type t = Amber.Engine.answer = {
  variables : string list;
  rows : Rdf.Term.t option list list;
  truncated : bool;
}

val empty : string list -> t

type collector

val collector :
  dict:Term_dict.t ->
  encoded:Encoded.t ->
  ast:Sparql.Ast.t ->
  limit:int option ->
  collector

val add : collector -> int array -> [ `Continue | `Stop ]
(** Feed one full assignment (slot -> term id). [`Stop] once the
    effective limit is reached. *)

val finish : collector -> t
