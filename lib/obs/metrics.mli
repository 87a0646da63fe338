(** Metrics registry: named counters and histograms.

    A registry owns a set of uniquely-named metrics; registration is
    idempotent — asking twice for the same name returns the same metric,
    so instrumentation sites can register at point of use without
    coordination. Counters are [Atomic.t] ints: increments from parallel
    worker domains are never lost, at the cost of one atomic RMW per
    increment (in the single-store case this compiles to the same
    uncontended fetch-and-add — still cheap enough to leave enabled on
    hot paths). Histograms remain single-writer: the engine observes
    latencies only from the domain that ran the query, so their plain
    mutable fields are not a race in practice; concurrent [observe] of
    one histogram from several domains would drop updates. Registration
    itself (the name table) is not synchronised — register metrics at
    module init or from one domain, as the engine does.

    Rendering targets the Prometheus text exposition format (scraped by
    [GET /metrics] on the endpoint) and a JSON object (embedded in
    benchmark reports). *)

type t
(** A metric registry. *)

val create : unit -> t

val default : t
(** The process-wide registry: the engine, endpoint and CLI all record
    here unless told otherwise. *)

(** {1 Counters} *)

type counter

val counter :
  ?help:string -> ?labels:(string * string) list -> t -> string -> counter
(** Register (or look up) a counter. [labels] (default none) key the
    sample: each distinct label combination under one base name is its
    own counter, rendered Prometheus-style as [name{k="v",…}] while
    sharing a single [# HELP]/[# TYPE] family header. @raise
    Invalid_argument if the keyed name is already registered as a
    histogram. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : counter -> int -> unit
(** Overwrite the value — for gauges mirrored from an external source
    (e.g. an index's resident bytes). *)

val counter_value : counter -> int

(** {1 Histograms} *)

type histogram

val log_buckets : lo:float -> ratio:float -> count:int -> float array
(** [count] upper bounds [lo, lo*ratio, lo*ratio², …] — the fixed
    log-scale ladder used for latency histograms. *)

val default_latency_buckets : float array
(** 18 buckets from 10 µs to ~1.3 s, ratio 2 (seconds). *)

val histogram :
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  t ->
  string ->
  histogram
(** Register (or look up) a histogram. [labels] behave as for
    {!counter}; on [_bucket] samples they are merged with the [le]
    label. [buckets] (sorted upper bounds, exclusive of the implicit
    [+Inf]) defaults to {!default_latency_buckets}; it is fixed at first
    registration. @raise Invalid_argument on a name/type clash. *)

val observe : histogram -> float -> unit

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val bucket_counts : histogram -> (float * int) array
(** Cumulative counts per upper bound, Prometheus-style: the pair
    [(le, n)] counts observations [<= le]; the last entry is
    [(infinity, total)]. *)

(** {1 Rendering} *)

val render_prometheus : t -> string
(** Prometheus text exposition format (version 0.0.4): [# HELP] /
    [# TYPE] comments, counter samples, and [_bucket]/[_sum]/[_count]
    series per histogram. *)

val render_json : t -> string
(** One JSON object keyed by metric name (labeled metrics by the full
    keyed name, e.g. ["name{k=\"v\"}"]):
    [{"name":{"type":"counter","value":n}}] and
    [{"name":{"type":"histogram","count":n,"sum":s,"buckets":[{"le":b,"count":n},…]}}]. *)

val reset : t -> unit
(** Zero every metric (tests and between-run isolation). *)
