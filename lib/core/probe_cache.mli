(** Query-scoped memo for the matcher's repeated index probes.

    During one query the matcher re-issues identical
    {!Neighbourhood_index} probes many times: every enumerated candidate
    of a hub vertex re-probes the same [(matched data vertex, direction,
    edge types)] triples while matching satellites and extending the
    core, and [ProcessVertex] (Algorithm 1) is recomputed per candidate
    although its result depends only on the query vertex. Both are
    memoized here; the cache lives for one query (one matcher context)
    and is dropped afterwards, so it never sees index updates. Cached
    results are {!Mgraph.Posting} lists — often the index's resident
    (possibly compressed) posting itself, shared zero-copy.

    Hit/miss accounting lives in {!Matcher.stats}
    ([probe_cache_hits]/[probe_cache_misses]), surfaced through
    {!Engine.run} (its [stats], and its profile's) and the
    [amber_matcher_probe_cache_*] metrics. *)

type t

val create : unit -> t

val find_probe :
  t -> int -> Mgraph.Multigraph.direction -> int array -> Mgraph.Posting.t option
(** [find_probe t v dir types] — memoized neighbourhood probe, keyed by
    data vertex, probe direction and (sorted) edge-type set. *)

val add_probe :
  t -> int -> Mgraph.Multigraph.direction -> int array -> Mgraph.Posting.t -> unit

val find_vertex : t -> int -> Mgraph.Posting.t option option
(** Memoized [ProcessVertex] result for a query vertex ([None] = not
    yet computed; [Some None] = computed, unconstrained). *)

val add_vertex : t -> int -> Mgraph.Posting.t option -> unit
