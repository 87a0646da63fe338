(** The sub-multigraph homomorphism search (paper Section 5,
    Algorithms 1–4).

    Matching runs per connected component of the query graph. Within a
    component the recursion walks the ordered core vertices; when a core
    vertex is assigned a data vertex, its anchored satellites are
    matched in one shot ({!MatchSatVertices}) — each satellite yields a
    {e set} of data vertices, and Lemma 2 lets the sets combine by
    Cartesian product instead of recursion. A reported solution
    therefore binds every core vertex to a single data vertex and every
    satellite to a non-empty candidate set.

    The search is cache-accelerated on two levels: a {e query-scoped}
    {!Probe_cache.t} memoizes neighbourhood probes and [ProcessVertex]
    results that hub vertices would otherwise recompute for every
    enumerated candidate, and an {e engine-scoped} {!shared} pair of
    LRUs reuses attribute/synopsis candidate sets across queries. Both
    are optional; a context without them reproduces the uncached
    baseline (the ablation the kernels benchmark measures). *)

type stats = {
  mutable index_probes : int;
      (** neighbourhood-index lookups actually performed (the paper's
          [QueryNeighIndex]); cache hits do not count *)
  mutable synopsis_probes : int;
      (** synopsis dominance scans — index [S] *)
  mutable attribute_probes : int;
      (** attribute inverted-list lookups — index [A] *)
  mutable attribute_cache_hits : int;
      (** engine-scoped attribute-candidate LRU hits *)
  mutable attribute_cache_misses : int;  (** … and misses *)
  mutable synopsis_cache_hits : int;
      (** engine-scoped synopsis-candidate LRU hits *)
  mutable synopsis_cache_misses : int;  (** … and misses *)
  mutable probe_cache_hits : int;
      (** query-scoped probe-cache hits (neighbourhood probes +
          memoized [ProcessVertex] results) *)
  mutable probe_cache_misses : int;  (** … and misses *)
  mutable candidates_scanned : int;
      (** data vertices tried as a core-vertex candidate *)
  mutable satellite_rejections : int;
      (** candidates discarded because a satellite had no match *)
  mutable solutions : int;  (** solutions emitted *)
}

val fresh_stats : unit -> stats

val merge_into : into:stats -> stats -> unit
(** [merge_into ~into s] adds every counter of [s] into [into] — how the
    engine folds per-domain matcher stats into the query's aggregate
    (field-wise sums, so the merged totals are deterministic whatever
    the domain scheduling was). *)

type shared
(** Cross-query LRU caches (attribute and synopsis candidate sets),
    owned by the engine and shared — behind a mutex — by every context
    it builds, including parallel domains. Attribute entries are the
    index's resident {!Mgraph.Posting} lists (possibly compressed),
    shared zero-copy. *)

val make_shared : ?cap:int -> unit -> shared
(** [cap] bounds each LRU (default 256 entries). *)

val shared_counters : shared -> (int * int) * (int * int)
(** [((attr_hits, attr_misses), (synopsis_hits, synopsis_misses))] —
    lifetime counters of the two LRUs. The
    [amber_engine_{attribute,synopsis}_cache_*] metrics count the same
    events per query, from {!stats}, so they survive the fresh LRUs of
    each live overlay. *)

type ctx = {
  db : Database.t;
  attribute : Attribute_index.t;
  synopsis : Synopsis_index.t;
  neighbourhood : Neighbourhood_index.t;
  deadline : Deadline.t;
  stats : stats;
  probe_cache : Probe_cache.t option;
      (** query-scoped memo; [None] disables (ablation) *)
  shared : shared option;
      (** engine-scoped LRUs; [None] disables (ablation) *)
  plan : Stats.mode;
      (** seed-strategy policy for {!initial_candidates}; the default
          [Paper] reproduces the fixed synopsis-then-refine probe *)
  model : Stats.t option;
      (** the cost model driving non-[Paper] plans; [None] forces the
          paper behaviour whatever [plan] says *)
}

val make_ctx :
  ?probe_cache:Probe_cache.t ->
  ?shared:shared ->
  ?plan:Stats.mode ->
  ?model:Stats.t ->
  db:Database.t ->
  attribute:Attribute_index.t ->
  synopsis:Synopsis_index.t ->
  neighbourhood:Neighbourhood_index.t ->
  deadline:Deadline.t ->
  stats:stats ->
  unit ->
  ctx

type solution = {
  core : (int * int) list;  (** (query vertex, data vertex), core order *)
  sats : (int * int array) list;
      (** (satellite vertex, sorted candidate data vertices) *)
}

val process_vertex : ctx -> Query_graph.t -> int -> Mgraph.Posting.t option
(** Algorithm 1: candidates implied by vertex attributes and IRI
    constraints alone, as a (possibly compressed) posting list. [None]
    when the vertex has neither (no information, not an empty candidate
    set). Memoized per query when the context carries a probe cache. *)

val initial_candidates : ctx -> Query_graph.t -> Decompose.component -> int array
(** Candidate data vertices of the component's initial core vertex: the
    synopsis index probe refined by {!process_vertex} (Algorithm 3,
    lines 4-5) — or, under a non-[Paper] plan with a cost model, the
    strategy {!Stats.choice_for} picks. Both strategies materialize the
    {e same} sorted candidate set (the scan-then-refine and the
    attrs-then-dominance filter compute one intersection two ways), so
    plans never change answers. *)

val initial_candidates_choice :
  ctx -> Query_graph.t -> Decompose.component -> int array * Stats.seed_report option
(** {!initial_candidates} plus the recorded strategy choice (estimates,
    costs and the actual candidate count) — [None] for an empty
    component or a context without a cost model. *)

val solve_component_seeded :
  ctx ->
  Query_graph.t ->
  Decompose.plan ->
  Decompose.component ->
  seeds:int array ->
  emit:(solution -> [ `Continue | `Stop ]) ->
  unit
(** Algorithms 3 and 4 on one component, from the given initial
    candidates: with the seeds of {!initial_candidates_choice} (Algorithm
    3, lines 4-5) this is the whole of Algorithm 3. [emit] receives each
    solution; returning [`Stop] aborts the search (used for row limits).
    The seeds are also the work-partitioning primitive of the parallel
    engine: the seed set can be split across domains, and the union of
    the emissions over a partition of {!initial_candidates} equals the
    sequential run.
    @raise Deadline.Expired when the context deadline passes. *)

val count_embeddings : solution -> int
(** Number of embeddings the solution denotes: the product of its
    satellite set sizes (1 for a purely-core solution). *)
