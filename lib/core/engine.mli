(** AMbER — the complete engine: offline build + online query.

    [build] runs the paper's offline stage (multigraph transformation
    plus the indexes [I = {A, S, N}]); [run] the online stage (parse,
    query-multigraph construction, decomposition, homomorphic matching,
    embedding generation, projection) for every query form: SELECT over
    one basic graph pattern or over the {!Extended} algebra, ASK and
    CONSTRUCT. [query] and [query_with_stats] are [run] on a parsed
    SELECT over one BGP.

    The choices that never change an answer — plan, core order,
    satellite decomposition, rewriter, parallelism — travel together as
    one {!Opts.t}, shared by [run], [query], [query_with_stats] and
    [explain]; [open_objects], [timeout], [limit] and [profile] stay
    separate arguments, because they change what is answered or
    reported. *)

type t

val build : ?domains:int -> Rdf.Triple.t list -> t
(** Transform triples into the multigraph database and build the
    indexes. [A] and [S] are built; [N] is the multigraph's adjacency
    ({!Neighbourhood_index}) and costs nothing to build. Every frozen
    posting list, in the adjacency and in [A], takes the physical layout
    {!Mgraph.Posting.of_array} picks for it.

    @param domains build the indexes on up to this many domains (default
    1 — strictly sequential). [A] builds as one task while the
    per-vertex loop of [S] (synopsis computation) is sharded into
    deterministic vertex ranges on the shared {!Domain_pool}; assembly
    is sequential, so the resulting indexes are identical —
    byte-for-byte under the {!Snapshot} encoding — to the sequential
    build. Build times land in the
    [amber_index_build_seconds{index=attribute|synopsis|stats}]
    histograms. *)

val of_database : ?domains:int -> Database.t -> t
(** The index half of {!build}: [A], [S] and the planner statistics over
    a frozen database ({!build} is [of_database] over
    {!Database.of_triples}). Live compaction runs it over
    {!Database.freeze}. [domains] as for {!build}. *)

val db : t -> Database.t

val attribute_index : t -> Attribute_index.t
val synopsis_index : t -> Synopsis_index.t
val neighbourhood_index : t -> Neighbourhood_index.t

val of_parts :
  ?stats:Stats.t Lazy.t ->
  db:Database.t ->
  attribute:Attribute_index.t ->
  synopsis:Synopsis_index.t ->
  neighbourhood:Neighbourhood_index.t ->
  unit ->
  t
(** Assemble an engine from a database and prebuilt indexes
    ([neighbourhood] is [Neighbourhood_index.build db]). The engine
    gets fresh matcher caches. [stats] supplies the cost-model
    statistics; omitted, they are computed on first adaptive use. The
    engine forces [stats] at most once, under a lock, so callers must
    not force it themselves. *)

val with_parts :
  t ->
  db:Database.t ->
  attribute:Attribute_index.t ->
  synopsis:Synopsis_index.t ->
  t
(** [with_parts t ~db ...] — the delta compiler's entry point for
    overlay engines: new parts (the index [N] read
    from [db]'s graph), with fresh matcher
    caches (so two engines over the same base never share LRU state;
    epoch isolation falls out by construction) and {e the same}
    statistics cell as [t]. Every overlay of a generation thus plans
    with its base's statistics — stale against the overlay, but
    estimates only steer plans, never answers — computed at most once,
    and an overlay never keeps the engine it was derived from alive. *)

val statistics : t -> Stats.t
(** The engine's cost-model statistics (computed on first use, once,
    even when several domains ask at the same time) — the
    input of adaptive planning and the payload of the snapshot stats
    section. {!build} computes them eagerly (the [stats] bar of
    [amber_index_build_seconds]); snapshot loads reuse the persisted
    section. *)

type answer = {
  variables : string list;  (** projected variables, in SELECT order *)
  rows : Rdf.Term.t option list list;
      (** one binding per variable; [None] for variables that do not
          occur in the WHERE clause *)
  truncated : bool;  (** a row limit stopped the enumeration *)
}

exception Unsupported of string
(** The query is outside the supported fragment (variable predicates,
    literal subjects). *)

type result =
  | Rows of answer  (** SELECT, over one BGP or the algebra *)
  | Boolean of bool  (** ASK: the pattern has a solution *)
  | Triples of Rdf.Triple.t list
      (** CONSTRUCT: the template instantiated once per solution;
          instantiations with an unbound variable or violating the RDF
          triple invariants (literal subject, non-IRI predicate) are
          skipped, and duplicate triples are emitted once — per the
          SPARQL spec *)

type run_result = {
  result : result;
  stats : Matcher.stats;
      (** the matcher's search counters (index probes, cache hits and
          misses, candidates scanned, satellite rejections, solutions),
          summed over the query's BGP leaves; under [domains > 1] the
          field-wise sum over every domain's private stats
          ({!Matcher.merge_into}) *)
  profile : Profile.t option;  (** [Some] exactly when [~profile:true] *)
}

(** {1 Query options} *)

module Opts : sig
  type t = {
    plan : Stats.mode;
        (** seed-strategy and ordering policy (default [Adaptive]):
            [Paper] reproduces the paper's fixed plan (r1/r2 order,
            synopsis-scan seeding) and touches no statistics; [Adaptive]
            orders core vertices by {!Stats.estimate_vertex} and picks
            each component's seed strategy by estimated cost
            ({!Stats.choice_for}); [Forced s] pins the seed strategy
            (ordering stays cardinality-driven). All strategies
            materialize the same candidate sets, so plans never change
            answers — only the work done to reach them. *)
    order : Decompose.strategy option;
        (** core-vertex ordering (default [None]: the plan's own). An
            order replaces the plan's core ordering under any [plan];
            seeding still follows [plan]. [By_degree] and [Arbitrary]
            are ablations. *)
    satellites : bool;
        (** [false] disables the core/satellite decomposition (ablation;
            default [true]). *)
    rewrite : bool;
        (** [true] (the default) runs the semantic rewriter
            ({!Rewrite.apply}) over each BGP before decomposition:
            duplicate and homomorphically redundant patterns are removed,
            data-forced variables are substituted (and re-attached to
            projected rows), and Cartesian products are flagged. Every
            pass is equivalence-preserving, so the answer is identical
            either way — [false] is the ablation/debugging escape hatch.
            Applied steps land in [amber_rewrite_steps_total{kind=…}],
            the flight record and the profile. *)
    domains : int;
        (** run the matcher on up to this many domains (default 1 —
            strictly sequential). Each component's initial candidate set
            is split into work-stealing chunks solved on the shared
            {!Domain_pool}; per-domain solutions and stats merge
            deterministically, so without a row limit the answer (rows
            and their order) is identical to the sequential run. With a
            limit the chunks race to the cap and the prefix taken may
            differ (row count and [truncated] are still exact). A
            profiled run grafts each chunk's span subtree under [match],
            in chunk order. *)
  }
  (** Every value of every field gives the oracle's answer; with a row
      limit, [domains] may change which rows the limit keeps. *)

  val default : t

  val parse :
    ?plan:string ->
    ?rewrite:string ->
    ?domains:string ->
    t ->
    (t, string) Stdlib.result
  (** [parse ?plan ?rewrite ?domains base] is [base] with each given
      spelling applied — the one vocabulary of the CLI flags and the
      endpoint's request parameters: [plan] is
      [paper|adaptive|forced:<attrs|scan>]; [rewrite] is
      [on|off|true|false|1|0|yes|no] (any case); [domains] is an
      integer, clamped to 1..8 (the shared pool's width). A malformed
      value is [Error] with a one-line message naming it. *)

  val flag : string -> default:bool -> string option -> (bool, string) Stdlib.result
  (** [flag name ~default v] reads the on/off spelling [v] of the
      switch [name] in [rewrite]'s vocabulary; [None] is [default]. A
      malformed value is [Error] with [parse]'s message shape
      ([unknown NAME "v" (expected on or off)]). The endpoint's
      [profile=], [analyze=] and [compact=] are read by it. *)
end

val run :
  ?opts:Opts.t ->
  ?open_objects:bool ->
  ?timeout:float ->
  ?limit:int ->
  ?profile:bool ->
  t ->
  [ `Text of string | `Parsed of Sparql.Parser.any_query ] ->
  run_result
(** Answer a SPARQL query of any form: the online stage as one pipeline
    of phases. [`Text] input is parsed once by
    {!Sparql.Parser.parse_any}, as the run's [parse] phase; [`Parsed]
    input skips it. Each basic graph pattern then runs rewrite →
    decompose → analyze → candidates → match → enumerate. The form
    decides what happens around it:
    - SELECT over one BGP ([Q_select]): [Rows] of that BGP, its solution
      modifiers applied during enumeration;
    - SELECT over the algebra ([Q_algebra]: UNION / OPTIONAL / FILTER /
      joined groups): every BGP leaf runs with no row limit and
      {!Extended.eval} combines their mappings; DISTINCT, ORDER BY,
      OFFSET and LIMIT then apply once, to the whole result ([Rows]);
    - ASK ([Q_ask]): its BGP with a row limit of 1 ([Boolean]);
    - CONSTRUCT ([Q_construct]): the template over its BGP's rows
      ([Triples]).

    Every leaf shares the run's options, deadline, matcher counters and
    phase timings: a phase that runs once per leaf sums into one entry
    of the flight record and appears once per leaf in the profile's
    span tree. [rewrite] runs only when enabled, [analyze] only when
    the query graph builds, [candidates] only when profiling, and a BGP
    proven unsatisfiable stops before [candidates]. The static analyzer
    always runs: the AST lints plus either the build failure's proof
    ({!Analysis.of_build_failure}) or the index screening of the built
    query graph ({!Analysis.screen}). A BGP proven unsatisfiable
    short-circuits to the empty answer without searching; every proof
    implies zero embeddings, so this never changes an answer. A query
    whose BGP is proven empty is counted in [amber_analysis_unsat_total]
    and recorded [unsat]; an algebra query is never (a leaf proven
    empty does not empty a UNION or an OPTIONAL), and its report keeps
    only its leaves' warnings and hints. Warnings land in
    [amber_analysis_warning_total]. Each run adds 1 to
    [amber_queries_total] (when it answers) and offers one record to
    the flight recorder, whatever its form and however many leaves it
    has. Every phase is timed into that record (kept when the phase
    raises, so a timed-out query still shows where its time went) and,
    when profiling, into the profile's span tree under the same name;
    the metrics, the flight record and the profile are filled from one
    per-run state.

    @param opts the answer-preserving choices (default {!Opts.default}).
    @param open_objects enable the literal-binding extension (default
    [false] — the faithful model).
    @param timeout seconds of wall clock for the whole query; raises
    {!Deadline.Expired} when exceeded — the caller decides how to record
    unanswered queries.
    @param limit cap on returned rows (combined with the query's own
    [LIMIT], whichever is smaller); for CONSTRUCT, a cap on the rows
    the template is instantiated over. ASK ignores it.
    @param profile [true] also builds a {!Profile.t}: the phase tree,
    the chosen core order, per-vertex candidate-set sizes before/after
    synopsis pruning (the [candidates] phase — a few extra index probes
    outside the run's counters), the analyzer's report and the plan
    decisions. Default [false]; leave it off when benchmarking.
    @raise Sparql.Parser.Error on bad [`Text] syntax (nothing is
    recorded: there is no query to name).
    @raise Unsupported on out-of-fragment queries.
    @raise Deadline.Expired on timeout (each domain polls its own
    deadline clone; the run joins every chunk before re-raising). *)

val query :
  ?opts:Opts.t -> ?open_objects:bool -> ?timeout:float -> ?limit:int -> t ->
  Sparql.Ast.t -> answer
(** The rows of [run t (`Parsed (Q_select ast))]. *)

val query_with_stats :
  ?opts:Opts.t -> ?open_objects:bool -> ?timeout:float -> ?limit:int -> t ->
  Sparql.Ast.t -> answer * Matcher.stats
(** {!query}'s answer and the run's matcher counters. *)

val count_embeddings : t -> Sparql.Ast.t -> int
(** Total number of homomorphic embeddings, without materializing rows
    (satellite sets and components multiply combinatorially). *)

val resident_bytes : t -> (string * int) list
(** Bytes resident in each index structure: the reachable-heap walk plus
    the out-of-heap ([Bigarray]) payload bytes of compressed posting
    lists — [("adjacency", …)] (the multigraph, which also serves as
    the index [N]), [("attribute", …)] (the inverted lists) and
    [("synopsis", …)] (the packed synopses). Linear in index size — call per
    metrics scrape or per report, not per query. Heap blocks shared
    between structures are counted from each structure reaching them. *)

val posting_stats : t -> Mgraph.Posting.stats
(** Census of every frozen posting list the indexes hold: per-layout
    list counts, total elements, and out-of-heap payload bytes —
    published as [amber_posting_lists{layout=…}] by
    {!sync_resource_metrics}. *)

val sync_resource_metrics : t -> unit
(** Publish {!resident_bytes} as the
    [amber_index_resident_bytes{index=…}] gauges in the default
    registry — called by the endpoint before rendering
    [GET /metrics]. *)

(** {1 Static analysis}

    The compile-time twin of the runtime pruning: typed diagnostics over
    the query before (or instead of) any matching. See {!Analysis} for
    the diagnostic vocabulary and the soundness contract. *)

val analyze : ?open_objects:bool -> t -> Sparql.Ast.t -> Analysis.report
(** Full analyzer pipeline over this engine's dictionaries and indexes:
    AST lints, build-time dictionary proofs, index screening. Never
    raises on out-of-fragment queries (they become an [Out_of_fragment]
    warning). Outcomes land in [amber_analysis_{unsat,warning}_total]. *)

(** {1 Plan introspection} *)

type core_step = {
  variable : string;
  r1 : int;  (** #satellites anchored (the paper's first rank) *)
  r2 : int;  (** total incident edge-type count (second rank) *)
  estimate : int;  (** {!Stats.estimate_vertex} candidate estimate *)
  strategy : string option;
      (** seed-strategy slug the plan would use — only for the first
          core vertex of its component *)
  satellite_vars : string list;
  initial_candidates : int option;
      (** |C_init| from the synopsis index ∩ ProcessVertex — only for
          the first core vertex of its component *)
}

type explanation =
  | Unsat of string
  | Plan of {
      plan_mode : string;  (** {!Stats.mode_to_string} of the policy *)
      components : core_step list list;  (** matching order per component *)
      open_objects : (string * string) list;  (** (subject var, predicate) *)
      rewrites : Rewrite.step list;
          (** rewrite steps the query would run under (the plan describes
              the rewritten clause); empty when [opts.rewrite] is
              [false] *)
    }

val explain : ?opts:Opts.t -> ?open_objects:bool -> t -> Sparql.Ast.t -> explanation
(** Describe how {!run} would attack the query under [opts] (default
    {!Opts.default}; [domains] plays no part), without running it.
    Explain always forces the statistics, so even [Paper] reports
    estimates.
    @raise Unsupported on out-of-fragment queries. *)

val pp_explanation : Format.formatter -> explanation -> unit

val explanation_to_json : explanation -> string
(** Machine-readable form of {!explain} — the CLI's [--json] and the
    CI plan-schema check consume this. *)

(** {1 Persistence}

    {!save_snapshot}/{!load_snapshot} persist the {e built indexes}
    ([Snapshot], ["AMBERIX1"]): loading is O(read) — the cold-start
    path for serving. Triples alone travel as {!Rdf.Binary}
    (["AMBERDB1"]); {!build} over {!Rdf.Binary.read_file} replays the
    offline stage. *)

val snapshot_contents : t -> Snapshot.contents
(** The engine state a snapshot persists — exposed for the snapshot
    tests' byte-identity comparisons ({!Snapshot.to_string}). *)

val save_snapshot : t -> string -> unit
(** Write the fully built engine state to [path] as an ["AMBERIX1"]
    index snapshot; observed in [amber_snapshot_save_seconds]. *)

val load_snapshot : string -> t
(** Load a snapshot written by {!save_snapshot}: dictionaries, graph and
    all three indexes are read back directly — nothing is rebuilt except
    the derived literal bindings. Each stored attribute list comes back
    in its frozen physical layout, the adjacency is re-frozen under
    {!Mgraph.Posting.of_array}'s rule (the layouts it had when saved),
    and the planner statistics are the persisted ones. Observed in [amber_snapshot_load_seconds].
    @raise Rdf.Binary.Corrupt on malformed or corrupt input (every
    section is CRC-guarded). *)
