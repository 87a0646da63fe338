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
    ({!Delta.extend}), and publish a fresh epoch with one atomic store.

    {!compact} builds the next generation on a domain of its own, from
    an epoch pinned when it was asked: it freezes that epoch in id space
    ({!Database.freeze}), builds the indexes over it and writes its
    snapshot, all without the writer mutex, so {!update} and readers
    keep going. It then takes the mutex to {e rebase}: the batches
    published since the pin are folded into one delta ({!Delta.apply})
    and lowered onto the new base in one step ({!Delta.compile}), and
    the result is published like any write. {!settle} waits for that
    publish. At most one compaction runs at a time; neither readers nor
    writers wait for the build.

    With a live {e directory}, every publish also persists: the base
    generation as an [AMBERIX1] snapshot ([gen-<N>.amberix]) plus a
    CRC-framed [live.manifest] recording generation, version and the
    delta triples — each written to a temp file and atomically renamed.
    A compaction writes the new generation's snapshot first, then, under
    the writer mutex, the rebased manifest, then publishes; the previous
    generation's snapshot is retained until the next compaction lands. A
    process killed mid-compaction therefore always restarts from a
    loadable state: the old manifest still names the old generation,
    with every batch acknowledged meanwhile in its delta. *)

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
(** Start merging the delta into a fresh generation, and return the
    current epoch without waiting for the build. First waits for a
    compaction still running (so at most one runs, and no request is
    folded into another) and re-raises its failure if it was never
    {!settle}d; then pins the current epoch and starts the build on a
    domain of its own, which ends when the compaction does.

    The build freezes the pinned epoch's database in id space
    ({!Database.freeze}: dead vertices, predicates and attributes
    dropped, nothing decoded back to triples), builds [A], [S] and the
    statistics over it ({!Engine.of_database}) and, with a live
    directory, writes [gen-<N+1>.amberix]; the new base is the engine
    {!Engine.build} gives over [Database.to_triples] of the pinned
    epoch, snapshot byte for byte. Then, under the writer mutex, it
    rebases the batches published since the pin onto the new base,
    writes the manifest, prunes generation files older than the previous
    one and publishes an epoch of generation [N+1] whose delta is the
    net of those batches. Records one [Compaction] flight event with one
    phase per step ([freeze], [index], with a live directory
    [snapshot], then [rebase], and with a live directory [manifest]) —
    status [Error] if the build failed — and observes the pin-to-publish
    time in [amber_compaction_seconds]. *)

val settle : t -> epoch
(** Wait for the running compaction, if any, to publish, and return the
    current epoch — after [compact t], one whose generation went up.
    @raise e the exception the compaction failed with (for example
    [Sys_error] when its snapshot cannot be written). A failed
    compaction leaves the epoch, the manifest and the generation files
    as they were; the next {!compact} starts afresh. *)
