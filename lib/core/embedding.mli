(** Embedding generation — the paper's [GenEmb] step.

    A matcher solution binds core vertices to singletons and satellites
    to candidate sets; the embeddings it denotes are the Cartesian
    product of those sets (Lemma 2). Queries may further decompose into
    several connected components, whose solution sets also combine by
    Cartesian product, and open-object patterns (the literal extension)
    multiply each embedding by their binding lists.

    Embeddings are enumerated by a {!cursor}: an odometer over
    (component, solution, satellite, open-object binding) indices that
    writes the current embedding into one mutable array of data vertex
    ids, building no per-embedding structure. Callers read the slots
    they need and decode only those ({!term}). Enumeration is lazy: a
    query with a huge result set costs what the caller consumes.

    {b Order.} Every enumeration here yields embeddings in one order,
    which fixes the rows a row limit keeps:
    - component 0 is the outermost loop, the last component the
      innermost of the core-and-satellite loops;
    - within a component, solutions run in list order, and within a
      solution the {e first} satellite varies fastest;
    - open objects loop inside all of those, the first open object
      outermost. *)

type slots = {
  names : string array;
      (** slot index -> variable name: the query-graph variables first,
          then the open-object variables *)
  of_var : string -> int option;
}

val slots : Query_graph.t -> slots

type cursor
(** Mutable enumeration state; one traversal, not shareable across
    domains. *)

val cursor :
  q:Query_graph.t ->
  lits:Literal_bindings.t ->
  solutions:Matcher.solution list array ->
  cursor
(** A cursor before the first embedding. [solutions] holds, per query
    component, the solutions the matcher emitted; an empty component
    list yields no embeddings, and no components at all yields one
    empty embedding. Embeddings whose open-object patterns have no
    binding are skipped. *)

val next : cursor -> bool
(** Advance to the next embedding; [false] once there is none left. *)

val term : Database.t -> cursor -> int -> Rdf.Term.t
(** [term db c slot]: the current embedding's term at [slot] (see
    {!slots}). *)

val key : cursor -> int array -> int array
(** [key c slots]: the current embedding's cells at [slots], undecoded —
    the data vertex id for a vertex slot, the cursor-local id of the
    bound term for an open-object slot. Two embeddings of one cursor
    have equal keys iff they bind equal terms at [slots]. *)

val rows :
  db:Database.t ->
  q:Query_graph.t ->
  lits:Literal_bindings.t ->
  solutions:Matcher.solution list array ->
  Rdf.Term.t array Seq.t
(** The cursor's embeddings in its order, every slot decoded: one fresh
    array per embedding. Each traversal from the head runs its own
    cursor. *)

val count :
  q:Query_graph.t ->
  lits:Literal_bindings.t ->
  solutions:Matcher.solution list array ->
  int
(** Number of embeddings, computed by products without enumerating
    (open-object binding lists still have to be sized, by running a
    cursor). *)
