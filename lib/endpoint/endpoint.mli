(** Minimal SPARQL-protocol HTTP endpoint over an AMbER engine.

    Implements the useful core of the W3C SPARQL 1.1 Protocol:

    - [GET /sparql?query=<urlencoded>]
    - [POST /sparql] with [application/x-www-form-urlencoded]
      ([query=...]) or [application/sparql-query] (raw query) bodies;

    content negotiation via [Accept]: [application/sparql-results+json]
    (default), [text/csv], [text/tab-separated-values]. [GET /] serves a
    small service description. Every query form runs as one
    {!Amber.Engine.run} over the request text (one parse, one flight
    record, one [amber_queries_total] increment): SELECT answers with
    results, [ASK] with a results-JSON boolean and [CONSTRUCT] with
    [application/n-triples].

    Observability: [GET /metrics] renders the default {!Obs.Metrics}
    registry in the Prometheus text exposition format (HTTP/query
    counters, a query-latency histogram, index-probe and cache
    counters summed per answered query, per-index
    [amber_index_resident_bytes] gauges and the [amber_build_info]
    version gauge). [GET /queries]
    returns the flight recorder's last captured records —
    per-query status, phase timings, GC delta, core order — as a JSON
    array, newest first ([?n=K] caps the count); the recorder's
    sampling rate, slow-query threshold and JSONL sink come from the
    config. [GET /healthz] answers a constant liveness document.
    Adding [profile=1] to a SELECT or ASK request answered as JSON embeds
    the {!Amber.Profile} report (phase timings, per-vertex candidate
    counts, matcher counters) as a top-level ["profile"] member of the
    JSON results; [analyze=1] likewise embeds the {!Amber.Analysis}
    report (unsatisfiability proofs, warnings, hints) of a SELECT over
    one BGP as a top-level ["analysis"] member. Both switches, like
    [compact=] on [POST /update], read [rewrite=]'s on/off spellings
    ({!Amber.Engine.Opts.flag}): absent means off, and a malformed value
    answers 400 naming it.

    The server is single-threaded and handles one connection at a time —
    plenty for the embedded use it targets; run it in its own domain if
    the application must not block. *)

type config = {
  host : string;  (** default "127.0.0.1" *)
  port : int;  (** 0 = ephemeral, see {!bound_port} *)
  timeout : float option;  (** per-query budget *)
  limit : int option;  (** per-query row cap *)
  open_objects : bool;
  opts : Amber.Engine.Opts.t;
      (** default answer-preserving options for every query, of every
          form (default {!Amber.Engine.Opts.default}). A request's
          [plan=], [rewrite=] and [domains=] parameters override them,
          spelled as {!Amber.Engine.Opts.parse} reads them; a malformed
          value answers 400 with its message. *)
  snapshot : string option;
      (** path to an ["AMBERIX1"] index snapshot for instant boot via
          {!boot}; [None] (the default) when the caller builds the
          engine itself. *)
  live_dir : string option;
      (** path to an {!Amber.Live_engine} directory. When set, {!boot}
          opens it (taking precedence over [snapshot]) and the server
          accepts [POST /update]; [None] (the default) serves a frozen
          engine and [/update] answers 405. *)
  slow_query : float option;
      (** flight-recorder slow-query threshold in seconds (default 1.0):
          queries at or past it are always captured, whatever the
          sampling rate; [None] disables the threshold. *)
  log_sample : float;
      (** flight-recorder sampling rate in [0, 1] (default 1.0 — keep
          every query). Applied deterministically; slow and failed
          queries are captured regardless. *)
  log_sink : string option;
      (** append captured flight records to this file as JSON lines
          (default [None] — in-memory ring only). *)
}

val default_config : config

(** What the server queries: a frozen engine, or a {!Amber.Live_engine}
    whose current epoch is pinned once per request — every response is
    computed against a single consistent snapshot, however many updates
    land while it is being rendered. *)
type source = Static of Amber.Engine.t | Live of Amber.Live_engine.t

type t

val create : ?config:config -> Amber.Engine.t -> t
(** Bind and listen on a frozen engine ([Static]).
    @raise Unix.Unix_error when binding fails. *)

val create_live : ?config:config -> Amber.Live_engine.t -> t
(** Bind and listen on a live engine: queries pin the current epoch per
    request, and [POST /update] applies write batches (form-encoded
    [add] / [remove] N-Triples bodies, [compact=1] to force a
    compaction). @raise Unix.Unix_error when binding fails. *)

val boot : config -> t
(** Cold-start: with [config.live_dir], {!Amber.Live_engine.open_dir}
    then {!create_live}; otherwise {!Amber.Engine.load_snapshot} from
    [config.snapshot] then {!create} — no index rebuild, boot time is
    O(read).
    @raise Invalid_argument when both [snapshot] and [live_dir] are
    [None].
    @raise Rdf.Binary.Corrupt on a damaged snapshot or manifest.
    @raise Unix.Unix_error when binding fails. *)

val bound_port : t -> int
(** Actual port (useful with [port = 0]). *)

val serve : ?max_requests:int -> t -> unit
(** Accept loop. With [max_requests] the loop returns after that many
    connections (used by the tests); otherwise it runs forever. Sets
    [SIGPIPE] to ignored for the process, so a client that leaves
    mid-response costs only its own connection. A request whose
    Content-Length is not a decimal number answers 400, one declaring
    more than 16 MiB of body answers 413, and a head over 64 KiB
    answers 431; none of them is read further. Accepted sockets set
    [TCP_NODELAY]; a response is written as its head, then the body
    string as the handler returned it. *)

val stop : t -> unit
(** Close the listening socket; a blocked {!serve} raises and returns. *)

(** {1 Request handling, exposed for tests} *)

val handle_request :
  config ->
  source ->
  meth:string ->
  target:string ->
  headers:(string * string) list ->
  body:string ->
  int * string * string
(** [(status, content_type, body)] for one parsed HTTP request. A
    handler that raises answers 500 with the exception's text, and like
    every 4xx/5xx answer counts in [amber_http_errors_total]; {!serve}
    writes exactly this triple. *)

val url_decode : string -> string
