(** Directed, vertex-attributed multigraph (paper Definition 1).

    A multigraph [G = (V, E, L_V, L_E)]: vertices are dense ints
    [0 .. vertex_count-1]; between an ordered pair [(v, v')] there is at
    most one {e multi-edge}, labelled with a non-empty sorted set of edge
    types; every vertex carries a (possibly empty) sorted set of
    attribute ids. The structure is immutable once built — construct it
    with {!Builder}.

    Internally the adjacency is {e packed}: each direction keeps one
    frozen {!Posting} neighbour list per vertex (in the layout
    {!Posting.of_array} picks for it) plus flat pools for the multi-edge
    type sets and attribute sets, instead of one heap block per edge.
    Queries run directly over this form, and so do the offline passes:
    {!iter_type_sets}, {!iter_out} and {!with_attributes} hand out the
    type sets and attribute sets in place, as slices of the pools, so
    the synopsis and statistics builds and the snapshot writer allocate
    nothing per edge. Only {!adjacency} materializes the classic tuple
    view, on demand. One packer builds this form from flat CSR arrays,
    whichever way a graph is made: {!Builder.build}, {!of_csr} (the
    snapshot decoder's arrays) and {!freeze} (compaction) all feed it.

    A graph is either {e packed} (the frozen form above) or a {e delta
    overlay}: a packed base plus the fully merged adjacency/attribute
    state of every vertex a write store has touched (see {!overlay}).
    Every accessor answers identically over either form, so the matcher
    and indexes need not know which one they hold. *)

type vertex = int
type edge_type = int
type attribute = int

type t

(** {1 Construction} *)

module Builder : sig
  type graph := t
  type t

  val create : ?vertex_hint:int -> unit -> t

  val add_vertex : t -> vertex -> unit
  (** Ensure [vertex] exists (vertices are also created implicitly by
      {!add_edge} / {!add_attribute}). *)

  val add_edge : t -> vertex -> edge_type -> vertex -> unit
  (** [add_edge b v t v'] adds type [t] to the multi-edge [v → v'].
      Duplicate insertions are idempotent. *)

  val add_attribute : t -> vertex -> attribute -> unit

  val build : t -> graph
  (** Freeze into an immutable multigraph. The
      builder keeps the edges and attributes in flat int arrays; [build]
      groups them by counting sorts on the vertex ids and deduplicates,
      so the result depends only on the set of edges and attributes
      added, not on their order. The builder must not be used
      afterwards. *)
end

(** {1 Accessors} *)

type direction = Out | In
(** [Out] = edges leaving the vertex (paper's negative '−'); [In] =
    edges arriving at it (paper's positive '+'). *)

val vertex_count : t -> int
val edge_type_count : t -> int
(** 1 + the largest edge type id present (0 for an edgeless graph). *)

val multi_edge_count : t -> int
(** Number of ordered vertex pairs connected by a multi-edge — the
    paper's |E|. *)

val triple_edge_count : t -> int
(** Total number of (v, t, v') atomic edges — one per RDF triple with an
    IRI object. *)

val attributes : t -> vertex -> attribute array
(** Sorted attribute ids of a vertex (a fresh array sliced from the
    attribute pool). *)

val neighbours : t -> direction -> vertex -> Posting.t
(** The vertex's resident neighbour posting list — zero-copy, possibly
    compressed. [neighbours g Out v] holds the [v'] with [v → v']. *)

val adjacency : t -> direction -> vertex -> (vertex * edge_type array) array
(** Neighbours with their multi-edge type sets, sorted by neighbour id.
    [adjacency g Out v] lists [v'] with [v → v']; [In] lists [v'] with
    [v' → v]. Materialized fresh from the packed form, except for a
    vertex an overlay patches: then it is the stored patch itself,
    shared with every overlay layered on this one — read-only. *)

val iter_neighbours_with :
  t -> direction -> vertex -> edge_type array -> (vertex -> unit) -> unit
(** [iter_neighbours_with g dir v types f] calls [f] on each neighbour
    of [v] (in {!adjacency}'s direction and order) whose multi-edge
    carries every type of the sorted set [types]. It reads the type sets
    in place and walks (decodes) the neighbour list only when some
    multi-edge qualifies, allocating nothing per neighbour; [f] may raise
    to stop the walk. *)

val edge_types_between : t -> vertex -> vertex -> edge_type array
(** [edge_types_between g v v'] is the multi-edge [v → v'] ([||] when
    absent). *)

val has_edge : t -> vertex -> edge_type -> vertex -> bool
(** [has_edge g v t v'] — does the atomic edge [v →t v'] exist?
    Allocation-free. *)

val degree : t -> vertex -> int
(** Number of distinct neighbour vertices, irrespective of edge
    direction or multi-edge cardinality — the degree used by the paper's
    core/satellite decomposition (a vertex linked to one neighbour by
    edges in both directions still has degree 1). *)

val fold_edges : (vertex -> edge_type array -> vertex -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over all multi-edges [(v, types, v')] in [Out] orientation. *)

(** {1 Slices in place}

    The iterators below call [f cells lo len] on a sorted id set stored
    as [cells.(lo) .. cells.(lo+len-1)]: a slice of the graph's own
    pools (or of an overlay patch), shared — read it, never write it,
    and do not keep [cells] past the call. *)

val iter_type_sets :
  t -> direction -> vertex -> (int array -> int -> int -> unit) -> unit
(** [iter_type_sets g dir v f] calls [f] on the edge-type set of each
    multi-edge of [v] in direction [dir] (as {!adjacency}), in neighbour
    order, without reading the neighbour list. *)

val iter_out : t -> vertex -> (vertex -> int array -> int -> int -> unit) -> unit
(** [iter_out g v f] calls [f v' cells lo len] on each out multi-edge
    [v → v'], in increasing [v'], with its type set as a slice. *)

val with_attributes : t -> vertex -> (int array -> int -> int -> 'a) -> 'a
(** [with_attributes g v f] applies [f] to the sorted attribute set of
    [v] as a slice. *)

(** {1 Snapshot decoding}

    The out-adjacency plus the per-vertex attribute sets determine the
    whole structure; the in-adjacency and all counts are derived. The
    snapshot codec writes exactly that minimal representation through
    {!iter_out} and {!with_attributes}, and reads it back into flat
    arrays for {!of_csr}. *)

val of_csr :
  offs:int array ->
  nbrs:int array ->
  toffs:int array ->
  tys:int array ->
  aoffs:int array ->
  apool:int array ->
  unit ->
  t
(** Pack a graph of [n = Array.length offs - 1] vertices from CSR
    arrays: vertex [v]'s out multi-edges are [offs.(v) .. offs.(v+1)-1],
    multi-edge [e] goes to [nbrs.(e)] and carries the types
    [tys.(toffs.(e)) .. tys.(toffs.(e+1)-1)]; [v]'s attributes are
    [apool.(aoffs.(v)) .. apool.(aoffs.(v+1)-1)]. Derives the
    in-adjacency (each in-list sorted by source vertex) and the counts
    exactly as {!Builder.build} does. The arrays are taken over, not copied.
    @raise Invalid_argument on malformed input: offsets that do not
    start at 0, decrease or disagree with a pool's length, a neighbour
    out of range, neighbours, types or attributes not strictly
    increasing or negative, an empty multi-edge. *)

(** {1 Delta overlay} *)

val overlay :
  base:t ->
  vertex_count:int ->
  out:(vertex * (vertex * edge_type array) array) list ->
  in_:(vertex * (vertex * edge_type array) array) list ->
  attrs:(vertex * attribute array) list ->
  unit ->
  t
(** [overlay ~base ~vertex_count ~out ~in_ ~attrs ()] layers a write
    batch over [base] — a packed graph, or a previous overlay of one.
    [vertex_count >= vertex_count base]; ids in
    [vertex_count base .. vertex_count-1] are new vertices. [out] /
    [in_] give the {e fully merged} post-batch adjacency of every vertex
    the batch touches in that direction (sorted by neighbour, each type
    set non-empty and sorted, as {!adjacency} returns it); [attrs] the
    fully merged attribute set of every vertex whose attributes
    changed. The two directions must mirror
    each other — the caller (the delta compiler) is responsible for
    consistency. Over a previous overlay, its patch tables are copied
    (O(patched vertices), the patches themselves shared) and the listed
    vertices replace their entries; the result is still one layer over
    the packed base, so reads cost what they cost on a first overlay.
    Counts are carried forward from [base] and adjusted exactly by the
    patches; the reported {!edge_type_count} is an upper bound (a
    deletion that removes the last use of the top edge type does not
    shrink it). Neither [base] nor anything it shares is copied deeply
    or mutated.
    @raise Invalid_argument on malformed patches or a vertex listed
    twice. *)

val is_overlay : t -> bool
(** True on graphs built by {!overlay}; packed graphs (from {!Builder},
    {!of_csr}, {!freeze}) answer false. *)

(** {1 Accounting} *)

val posting_stats : t -> Posting.stats -> unit
(** Accumulate the per-layout counts and out-of-heap payload bytes of
    all neighbour postings (both directions) into the stats record. *)

val out_of_heap_bytes : t -> int
(** Total [Bigarray]-backed payload bytes of the neighbour postings —
    bytes a reachable-heap walk cannot see. *)

val pp_stats : Format.formatter -> t -> unit

(** {1 Freezing} *)

type renumbering = {
  graph : t;  (** the packed graph, in the new ids *)
  vertices : vertex array;  (** new vertex id -> old id *)
  edge_types : edge_type array;  (** new edge type -> old one *)
  attributes : attribute array;  (** new attribute id -> old one *)
}

val freeze : t -> renumbering
(** [freeze g] packs the graph [g] denotes (packed or overlay) afresh,
    without going back to triples. It
    keeps the vertices that still have an edge or an attribute, the edge
    types that still label an edge and the attributes some vertex still
    carries. Each kind is numbered densely in order of first appearance
    in one scan: the out-adjacency in vertex order (a source before its
    targets, types in order), then the attribute sets in vertex order,
    each from its largest id down. That is the numbering that interning
    the triples in [Database.to_triples] order assigns, and it places
    each vertex's out-neighbours next to it in id space. The three arrays map
    each new id back to its old one. [g] is not modified. *)
