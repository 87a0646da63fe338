(** A small reusable pool of worker domains (OCaml 5 [Domain]s).

    The engine's parallel matcher splits the initial candidate set of a
    query component into many more chunks than domains; idle domains
    steal the next unclaimed chunk from a shared atomic counter, so a
    skewed chunk (one hub candidate hiding an enormous subtree) does not
    leave the other domains idle. Worker domains are spawned lazily, kept
    alive between queries — domain spawn costs a few hundred
    microseconds, far too much to pay per query under heavy traffic —
    and joined at process exit.

    The pool itself holds no query state: every chunk closure carries its
    own matcher context, so the only sharing between domains is whatever
    the closures capture (read-only indexes, mutex-guarded LRUs, atomic
    counters). *)

type t

val create : workers:int -> t
(** A pool with [workers] worker domains (spawned lazily on first use).
    [workers] may be 0: {!run_chunks} then degrades to the calling
    domain processing every chunk itself. *)

val workers : t -> int
(** Current number of spawned worker domains. *)

val global : unit -> t
(** The process-wide pool used by {!Engine}. Created on first use with
    no workers; {!run_chunks} grows it on demand up to {!max_workers}.
    Joined automatically at process exit. *)

val max_workers : int
(** Hard cap on the global pool's worker count (7 — caller plus workers
    never exceed 8 domains, the bound {!Engine.Opts.parse} clamps a
    requested domain count to). *)

val shutdown : t -> unit
(** Drain queued jobs, stop and join every worker domain. Subsequent
    {!run_chunks} calls still complete — the calling domain does all the
    work itself. The global pool is shut down via [at_exit]; call this
    only on pools you {!create}. *)

val quiesce : t -> unit
(** Drain queued jobs and join every worker domain, but leave the pool
    usable: the next {!run_chunks} respawns workers on demand.

    An idle worker is {e not} free: every parked domain must be
    coordinated with on each stop-the-world minor collection, which
    measurably slows all single-domain work in the process (snapshot
    decoding runs ~1.7x slower with three parked workers). Callers that
    use the pool for a one-shot burst — parallel index construction —
    should quiesce it afterwards; steady query traffic keeps its workers
    and pays one respawn after each quiesce. *)

val run_chunks :
  t -> participants:int -> chunks:int -> (int -> 'a) -> 'a array
(** [run_chunks pool ~participants ~chunks f] evaluates [f c] once for
    every chunk index [0 <= c < chunks] and returns the results in chunk
    order (the deterministic-merge guarantee the engine relies on).

    At most [participants] domains run chunks concurrently: the calling
    domain always participates, joined by up to [participants - 1] pool
    workers (grown on demand, capped by the pool size). Chunks are
    claimed dynamically — each participant repeatedly takes the lowest
    unclaimed index — so long chunks are balanced by the remaining
    participants picking up the rest.

    The call returns only after every chunk has finished; no domain is
    left running chunk work afterwards. If chunk evaluations raise, the
    exception of the {e lowest} chunk index is re-raised (again
    deterministic, independent of scheduling). *)
