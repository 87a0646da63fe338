(** Query flight recorder: a bounded in-memory log of per-query records.

    Every engine entry point offers the finished query here — outcome,
    per-phase durations, matcher counters, GC delta, the core order the
    planner chose — and the recorder keeps the last [capacity] captured
    records in a mutex-protected ring. A sampling rate thins the steady
    [Ok] traffic; slow queries (past {!configure}'s threshold) and
    non-[Ok] outcomes are always captured, because those are the records
    an operator actually goes looking for. An optional JSONL sink writes
    one line per captured record for offline analysis.

    All operations take the lock; safe to call from any domain. *)

type status =
  | Ok
  | Timeout  (** the query's deadline expired *)
  | Unsat  (** static analysis proved the query empty *)
  | Error of string  (** the engine raised; the exception message *)
  | Update  (** a live-engine write published a new epoch *)
  | Compaction  (** the delta was merged into a new base generation *)

val status_slug : status -> string
(** ["ok"] / ["timeout"] / ["unsat"] / ["error"] / ["update"] /
    ["compaction"]. Mutation records ([Update], [Compaction]) bypass
    sampling like every non-[Ok] status — operators reading the flight
    ring see writes interleaved with the queries they raced. *)

type record = {
  id : int;  (** sequence number, assigned at capture *)
  at : float;  (** epoch seconds when the query finished *)
  query : string;
      (** canonical text of the query in its own form (the
          {!Sparql.Ast.to_string} / {!Sparql.Algebra.to_string}
          printers) *)
  hash : string;  (** 12 hex chars of the canonical text's digest *)
  status : status;
  seconds : float;  (** wall-clock duration *)
  rows : int;
  truncated : bool;  (** hit the row limit *)
  domains : int;  (** domains requested for the match phase *)
  core_order : string list list;  (** chosen vertex order per component *)
  plan_mode : string;
      (** plan policy slug (["paper"], ["adaptive"], ["forced:<s>"]);
          [""] for records that ran no planner (updates, compactions) *)
  plan_seeds : (string * string * int * int) list;
      (** per-component seed decisions:
          [(variable, strategy_slug, estimate, actual)] — kept as plain
          strings/ints so the recorder stays engine-agnostic *)
  rewrites : string list;
      (** kind slugs of the rewrite steps applied before planning
          (["duplicate-pattern"], ["core-minimization"],
          ["constant-propagation"], ["cartesian-product"]); [[]] when
          the rewriter was off or found nothing *)
  phases : (string * float) list;
      (** phase name, seconds; query order. A phase that runs once per
          basic graph pattern of an algebra query is summed into one
          entry. *)
  candidates_scanned : int;
  solutions : int;
  index_probes : int;
  cache_hits : int;
  cache_misses : int;
  analysis : string option;  (** analyzer outcome slug, if it ran *)
  gc : Resource.gc_delta;  (** calling domain only; see {!Resource} *)
  slow : bool;  (** crossed the slow threshold at capture time *)
}

val hash_query : string -> string
(** The 12-hex-char digest prefix used for {!record.hash}. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh recorder. Default capacity 256; rate 1.0 (keep everything);
    no slow threshold; no sink. @raise Invalid_argument if
    [capacity < 1]. *)

val default : t
(** The process-wide recorder the engine and endpoint use. *)

val configure :
  ?capacity:int ->
  ?sample_rate:float ->
  ?slow_threshold:float option ->
  t ->
  unit
(** Adjust settings; omitted ones are unchanged. Changing [capacity]
    drops the buffered records. [sample_rate] is clamped to [0,1] and
    applied as a deterministic fractional accumulator (rate 0.25 keeps
    every 4th [Ok] query, not a random quarter). [slow_threshold] is in
    seconds; [Some None] removes it. *)

val set_sink : t -> string option -> unit
(** Append captured records to this file as JSON lines (one object per
    line, flushed per record). [None] closes the current sink. *)

val sink_path : t -> string option

val record : t -> record -> unit
(** Offer a finished query. The recorder decides capture (sampling,
    slow threshold, status) and assigns [id] and [slow] itself — the
    values in the offered record are ignored. *)

val recent : ?n:int -> t -> record list
(** The last [n] captured records (default: everything buffered),
    newest first. *)

val to_json : ?n:int -> t -> string
(** {!recent} as a JSON array, newest first. *)

val record_to_json : record -> string
(** One record as a compact JSON object — the JSONL sink line. *)

val stats : t -> int * int * int
(** [(seen, captured, sampled_out)] since creation or {!clear}. *)

val capacity : t -> int

val clear : t -> unit
(** Drop buffered records and reset counters; keeps configuration and
    sink. *)
