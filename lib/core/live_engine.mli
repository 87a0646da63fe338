(** Live engine: MVCC epochs over a frozen base plus a {!Delta} write
    store, with snapshot-isolated readers and background compaction.

    The mutable state is one atomic reference to an immutable {e epoch}:
    the current generation's frozen base engine, the cumulative delta,
    and the overlay engine compiled from them. Readers {!pin} the
    current epoch with a single atomic read and keep querying it for as
    long as they like — a pinned epoch is fully immutable (its own
    matcher caches included), so a query started before a write never
    observes that write, on any number of domains. Writers serialize on
    an internal mutex, patch the current epoch's overlay by their batch
    ({!Delta.extend}), and publish a fresh epoch with one atomic store;
    {!compact} freezes the current epoch into a brand-new generation —
    in id space ({!Database.freeze}), then
    the indexes over it — and swaps it in the same way. Readers are
    never paused.

    With a live {e directory}, every publish also persists: the base
    generation as an [AMBERIX1] snapshot ([gen-<N>.amberix]) plus a
    CRC-framed [live.manifest] recording generation, version and the
    delta triples — each written to a temp file and atomically renamed,
    the previous generation's snapshot retained until the next
    compaction lands. A process killed mid-compaction therefore always
    restarts from a loadable state. *)

type t

type epoch

val generation : epoch -> int
(** Compaction generation (starts at 0, bumped by {!compact}). *)

val version : epoch -> int
(** Publish sequence number (bumped by every {!update} and {!compact});
    strictly monotone over a [t]'s lifetime. *)

val engine : epoch -> Engine.t
(** The queryable engine of this epoch — the frozen base when the delta
    is empty, otherwise the overlay. Immutable; safe to query
    from any number of domains while writes land. *)

val base : epoch -> Engine.t
val delta : epoch -> Delta.t

val pin : t -> epoch
(** The current epoch — one atomic read, never blocks, never sees a
    torn state. *)

val dir : t -> string option

val of_engine : ?dir:string -> Engine.t -> t
(** Wrap a frozen engine as generation 0 with an empty delta. With
    [dir], initialise the live directory: write [gen-0.amberix] and the
    manifest (creating the directory if needed). *)

val open_dir : string -> t
(** Reopen a live directory: decode the manifest, load the generation
    snapshot it names, and compile the whole delta onto it in one step
    ({!Delta.compile}).
    @raise Rdf.Binary.Corrupt on a damaged manifest (any single-byte
    corruption is caught by the CRC frame).
    @raise Sys_error when the directory or files are missing. *)

val update :
  t -> adds:Rdf.Triple.t list -> dels:Rdf.Triple.t list -> epoch
(** Apply one write batch (deletions first, then insertions): fold it
    into the cumulative delta, patch the current epoch's engine by the
    batch alone ({!Delta.extend} — the cost tracks the batch and the
    degree of the vertices it touches, not the delta), persist the
    manifest (when durable), and publish the new epoch — returned for
    convenience. When the batch empties the delta, the new epoch's
    engine is the frozen base itself. New terms are numbered in publish
    order, so {!open_dir} (which compiles the whole delta at once) may
    number them differently; answers are the same. Serialized with
    other writers; in-flight readers keep their pinned epochs. Records
    an [Update] flight-recorder event and refreshes the delta gauges. *)

val compact : t -> epoch
(** Merge the delta into a fresh generation: freeze the current epoch's
    database in id space ({!Database.freeze}: dead vertices, predicates and attributes
    dropped, nothing decoded back to triples), build [A], [S] and the
    statistics over it ({!Engine.of_database}), snapshot it, atomically
    swap epochs, and prune generation files older than the previous
    one. The result is the engine {!Engine.build} gives over
    [Database.to_triples] of the epoch, snapshot byte for byte. The
    previous generation's snapshot survives until the {e next}
    compaction, so an interrupted compaction never loses a loadable
    base. Records a [Compaction] flight event with one phase per step
    ([freeze], [index], and with a live directory [snapshot] and
    [manifest]) and observes the pause in [amber_compaction_seconds]. *)
