(** Per-query profile report — EXPLAIN ANALYZE for the engine.

    Produced by {!Engine.run} with [~profile:true]: the phase tree of
    the run (parse → rewrite → decompose → analyze → candidates → match
    → enumerate, each present only when it ran, and rewrite to
    enumerate once per basic graph pattern of an algebra query), the
    chosen core order, per-query-vertex candidate-set sizes before and after
    synopsis/attribute pruning, and the matcher's search counters. This
    is the observable form of the paper's Section 7.2 instrumentation:
    index pruning power and where the time goes, per query. *)

type vertex_report = {
  variable : string;
  core : bool;  (** core vertex ([false] = satellite) *)
  structural : int;
      (** candidate-set size from the synopsis index alone (index [S]) *)
  refined : int;
      (** after intersecting attribute / IRI-constraint candidates
          (indexes [A] and [N]) — the set the matcher actually scans *)
}

type t = {
  core_order : string list list;
      (** matching order of the core vertices, per component *)
  vertices : vertex_report list;  (** every query vertex, vertex order *)
  stats : Matcher.stats;  (** the run's search counters *)
  span : Obs.Span.t;  (** phase tree with wall-clock durations *)
  rows : int;
  truncated : bool;
  analysis : Amber_analysis.report;
      (** the static analyzer's report; an unsat proof here means the
          run was short-circuited to the empty answer *)
  plan_mode : string;
      (** the plan policy the run executed under
          ({!Stats.mode_to_string}: ["paper"], ["adaptive"] or
          ["forced:<strategy>"]) *)
  plan_seeds : Stats.seed_report list;
      (** per-component seed-strategy decisions (choice, cost estimates
          and the actual candidate count) — empty under the paper plan,
          which carries no cost model *)
  rewrites : Amber_rewrite.step list;
      (** rewrite steps applied before decomposition, in application
          order — empty when the run passed [?rewrite:false] or the
          rewriter found nothing to simplify *)
}

val pp : Format.formatter -> t -> unit
(** Human-readable report: phase tree, core order, candidate table,
    matcher counters. *)

val to_json : t -> string
(** Machine-readable form, embedded in endpoint responses
    ([?profile=1]) and benchmark JSON. *)

val json_string : string -> string
(** JSON string literal (quoted, escaped) — shared by the other
    hand-rolled JSON emitters of this layer ({!Engine.explanation_to_json}). *)

val plan_to_json : plan_mode:string -> plan_seeds:Stats.seed_report list -> string
(** The [{"mode":…,"seeds":[…]}] object embedded by {!to_json}. *)
