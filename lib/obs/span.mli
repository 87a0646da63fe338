(** Tracing spans: a per-operation tree of named, timed scopes.

    A profiled operation opens a {e root} span; nested {!with_} calls
    attach timed child spans, forming the phase tree a profile report
    prints (parse → rewrite → decompose → analyze → candidates → match →
    enumerate). When no root is active, {!with_} runs its thunk directly
    — one ref read, no clock call — so instrumentation left in hot paths
    is near-free unless a profiler asked for it.

    Collection is {e domain-safe}: each domain carries its own collector
    stack in domain-local storage ([Domain.DLS]), so the parallel engine
    is profiled too — every worker domain records its chunk under its
    own root ({!collect}) and the finished subtree is merged back into
    the parent phase tree with {!graft} (in deterministic chunk order,
    by the caller). Each span remembers which domain ran it, which the
    Chrome-trace exporter renders as separate thread lanes. *)

type t
(** A finished span: name, start time, duration, owning domain,
    annotations, children. *)

val name : t -> string

val start : t -> float
(** Wall-clock time (Unix epoch seconds) when the span opened. *)

val duration : t -> float
(** Seconds of wall clock spent inside the span (children included). *)

val domain : t -> int
(** Id of the OCaml domain that ran the span — the trace exporter's
    thread id, separating the parallel engine's per-domain lanes. *)

val children : t -> t list
(** In start order. *)

val meta : t -> (string * string) list
(** Annotations attached with {!annotate}, in attachment order. *)

val find : t -> string -> t option
(** First child (depth-first, the span itself included) with the given
    name. *)

val active : unit -> bool
(** Is a root span currently collecting {e on this domain}? *)

val root : name:string -> (unit -> 'a) -> 'a * t
(** Run the thunk under a fresh root span on the current domain and
    return its result plus the completed tree. Exceptions propagate
    after the tree is closed. *)

val collect : name:string -> (unit -> 'a) -> 'a * t
(** Alias of {!root}, named for the worker-domain side of the parallel
    engine: collect a subtree on this domain for a later {!graft} into
    the parent tree. *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** Time the thunk as a child of the innermost open span of the current
    domain; without an active root, just run it. *)

val annotate : string -> string -> unit
(** Attach a key/value pair to the innermost open span of the current
    domain; no-op without an active root. *)

val graft : t -> unit
(** Append an already-finished tree as a child of the innermost open
    span of the current domain; no-op without an active root. The merge
    point for per-domain subtrees — call it from the domain that owns
    the open parent, in whatever order should appear in the report. *)

val pp : Format.formatter -> t -> unit
(** Indented phase tree with millisecond durations and annotations. *)

val to_json : t -> string
(** [{"name":…,"ms":…,"meta":{…},"children":[…]}]. *)

val to_chrome_json : ?pid:int -> t -> string
(** The tree as Chrome trace-event JSON (openable in Perfetto or
    [chrome://tracing]): one complete ["ph":"X"] event per span, with
    microsecond [ts]/[dur] relative to the root's start, [tid] the
    span's domain id, and annotations as [args]. [pid] defaults to 0. *)
