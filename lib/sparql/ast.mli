(** Abstract syntax for the SPARQL fragment of the paper:
    [SELECT ... WHERE] over basic graph patterns, plus [DISTINCT] and
    [LIMIT]. No [FILTER] / [UNION] / [GROUP BY] (explicitly out of the
    paper's scope). *)

type term =
  | Var of string  (** [?X0] — without the leading [?] *)
  | Iri of string  (** absolute IRI (prefixes already expanded) *)
  | Lit of Rdf.Term.literal

type triple_pattern = { subject : term; predicate : term; obj : term }

type selection =
  | Select_all  (** [SELECT *] *)
  | Select_vars of string list  (** in declaration order *)

type sort_direction = Asc | Desc

type t = {
  select : selection;
  distinct : bool;
  where : triple_pattern list;
  order_by : (string * sort_direction) list;  (** sort keys, major first *)
  limit : int option;
  offset : int option;
}

val make :
  ?distinct:bool ->
  ?order_by:(string * sort_direction) list ->
  ?limit:int ->
  ?offset:int ->
  selection ->
  triple_pattern list ->
  t

val pattern : term -> term -> term -> triple_pattern

val variables : t -> string list
(** All variables of the WHERE clause, in first-occurrence order. *)

val selected_variables : t -> string list
(** Variables the query projects: the SELECT list, or for [SELECT *] all
    of {!variables}. *)

val is_basic : t -> bool
(** [true] when every predicate is an IRI and every subject is a
    variable or an IRI — the fragment AMbER supports (Section 2.2). *)

val term_equal : term -> term -> bool
val pp_term : Format.formatter -> term -> unit
val pp_pattern : Format.formatter -> triple_pattern -> unit

val term_to_string : term -> string
(** One-line concrete-syntax rendering of a term. *)

val pattern_to_string : triple_pattern -> string
(** One-line concrete-syntax rendering of a pattern — the span text the
    analyzer and rewriter report diagnostics against. *)

val pp : Format.formatter -> t -> unit
(** Print as concrete SPARQL syntax (re-parseable by {!Parser}). *)

val to_string : t -> string

val compare_rows :
  (string * sort_direction) list ->
  string list ->
  Rdf.Term.t option list ->
  Rdf.Term.t option list ->
  int
(** [compare_rows order_by variables r1 r2] — the ORDER BY comparator
    over projected rows ([variables] gives the column names, in row
    order). Unbound sorts lowest; ties keep the original order when used
    with a stable sort. *)

(** {1 Solution modifiers}

    One implementation of ORDER BY, OFFSET and LIMIT for every evaluator
    (the BGP engine, the algebra evaluator and the baselines). Each
    evaluator projects and deduplicates its own rows first. *)

val effective_limit : int option -> int option -> int option
(** [effective_limit cap limit]: the smaller of a caller's row cap and
    the query's LIMIT. *)

val gather_cap :
  order_by:(string * sort_direction) list -> offset:int option -> int option -> int option
(** [gather_cap ~order_by ~offset limit]: how many projected rows an
    evaluator must produce before {!apply_modifiers} — all of them under
    ORDER BY, else [limit] plus the rows OFFSET skips ([None] when
    [limit] is). *)

val apply_modifiers :
  order_by:(string * sort_direction) list ->
  offset:int option ->
  limit:int option ->
  stopped_early:bool ->
  string list ->
  Rdf.Term.t option list list ->
  Rdf.Term.t option list list * bool
(** [apply_modifiers ~order_by ~offset ~limit ~stopped_early variables
    rows] sorts (stably, by {!compare_rows}), then skips OFFSET rows,
    then keeps [limit] (the effective limit). The flag says whether the
    answer is truncated: the evaluator stopped at its {!gather_cap}, or
    rows were cut at [limit]. *)
