(** Versioned binary index snapshots — the offline stage as an on-disk
    artifact.

    An ["AMBERIX1"] file holds the {e fully built} engine state in nine
    sections: the three dictionaries (paper Table 2), the multigraph,
    and two of the three indexes of Section 4 — [A] (attribute inverted
    lists) and [S] (every vertex's synopsis). The third, [N], is the
    multigraph's in/out adjacency ({!Neighbourhood_index}) and has no
    section of its own. Loading a snapshot is O(read); contrast [Rdf.Binary]'s ["AMBERDB1"] triple interchange
    format, which replays the whole multigraph transformation and index
    build on load.

    Every section is length-prefixed and CRC-32-guarded; corruption
    anywhere fails with {!Rdf.Binary.Corrupt} before any parsing uses
    the damaged bytes. The encoding is canonical — identical indexes
    serialize to identical bytes regardless of how (or on how many
    domains) they were built. *)

val magic : string
(** ["AMBERIX1"]. *)

val version : int
(** The one format read and written, [6]: the attribute index stored
    as layout-tagged {!Mgraph.Posting} codecs in their frozen physical
    form (raw / Elias-Fano / partitioned blocks), the graph as delta
    varints re-frozen on load under {!Mgraph.Posting.of_array}'s rule,
    the synopses without a tree, and the planner statistics as the last
    of nine sections (v5 also stored the build's layout choice,
    automatic or forced, in the meta section, v4 the synopsis R-tree's structure, v3 the two
    neighbourhood trie families). Compressed payloads decode straight
    into [Bigarray] buffers, so loading never re-expands a list to
    rebuild heap structure. Files of any other version are rejected;
    rebuild them with [amber build]. *)

type contents = {
  db : Database.t;
  attribute : Attribute_index.t;
  synopsis : Synopsis_index.t;
  stats : Stats.t;  (** the cost-model statistics *)
}
(** The persisted engine state. Derived structures (the index [N],
    literal bindings, caches) are rebuilt on load. *)

val encode : Buffer.t -> contents -> unit

val to_string : contents -> string
(** [encode] into a fresh string — the canonical byte representation,
    used by tests for byte-identity comparisons. *)

val decode : string -> contents
(** @raise Rdf.Binary.Corrupt on bad magic, a version other than
    {!version}, CRC mismatch, truncation, an unknown posting layout tag,
    or mutually inconsistent sections. *)

val write_file : string -> contents -> unit
(** Stream the sections to [path] one at a time; on a failure the
    partial file is removed. *)

val read_file : string -> contents

(** {1 Static validation}

    [amber fsck]: check a snapshot without serving it. *)

type fsck_report = {
  sections : (string * int) list;
      (** (section name, payload bytes), file order — every one
          CRC-verified *)
  f_vertices : int;
  f_edge_types : int;
  f_attributes : int;
  f_triples : int;
}

val fsck : string -> (fsck_report, string) result
(** Validate snapshot bytes: the full decode — magic, version, and each
    section's tag, length and CRC before its payload is parsed;
    delta-coded id-set monotonicity, dictionary id ranges and
    cross-section consistency are all proven by construction there — and
    finally that every stored synopsis equals {!Mgraph.Synopsis.of_vertex}
    recomputed from the decoded graph. [Error] carries the first violation; nothing is mutated and no engine state escapes. *)

val fsck_file : string -> (fsck_report, string) result
(** {!fsck} over a file's bytes; I/O errors become [Error]. *)

val pp_fsck_report : Format.formatter -> fsck_report -> unit

val sniff_file : string -> bool
(** Does the file start with the snapshot magic? Never raises — [false]
    for unreadable or short files. Used by the CLI to dispatch between
    triple files and snapshots. *)
