(* Versioned binary index snapshots ("AMBERIX1"): the fully built
   offline stage — dictionaries, multigraph, and the A/S indexes — in
   one file, so cold start is a read instead of a rebuild. The index N
   is the multigraph's own adjacency and needs no section.

   Layout: the 8-byte magic, a format version, a section count, then the
   sections. Every section is framed as

     tag varint · length varint · payload · CRC-32 (4 bytes, LE)

   and the CRC is verified over the raw payload bytes before any of them
   are parsed, so a flipped bit fails with {!Rdf.Binary.Corrupt} instead
   of a misparse. Integers reuse [Rdf.Binary]'s LEB128 varints (zigzag
   for the signed synopsis coordinates), terms its tagged term codec.

   The encoding is canonical: every list is written in a deterministic
   order (dictionary id order, vertex id order, sorted symbols), so two
   engines holding the same indexes — however they were built —
   serialize to identical bytes. The parallel-build tests rely on this
   to compare a sequential and a 4-domain build for byte equality. *)

module B = Rdf.Binary
module Vec = Mgraph.Int_vec

let magic = "AMBERIX1"

(* Format v6 stores the attribute index as layout-tagged
   {!Mgraph.Posting} codecs in their frozen physical form (raw /
   Elias-Fano / partitioned blocks). The graph section holds delta
   varints; its neighbour lists re-freeze on load under
   {!Mgraph.Posting.of_array}'s one layout rule, so the meta section
   holds only the triple count (v5 also stored there the build's layout
   choice, automatic or forced). The synopsis section holds the
   synopses alone (v5 dropped v4's packed R-tree structure after them).
   The planner statistics close every file. This is the only version
   read; older files are rebuilt with [amber build]. *)
let version = 6

type contents = {
  db : Database.t;
  attribute : Attribute_index.t;
  synopsis : Synopsis_index.t;
  stats : Stats.t;
}

let corrupt fmt = Printf.ksprintf (fun s -> raise (B.Corrupt s)) fmt

(* Section tags, in file order. *)
let tag_meta = 1
let tag_vertices = 2
let tag_edge_types = 3
let tag_attributes = 4
let tag_attribute_data = 5
let tag_graph = 6
let tag_attribute_index = 7
let tag_synopsis = 8
let tag_stats = 9

(* Section names, in file order: a section's tag is its index + 1. *)
let section_names =
  [|
    "meta";
    "vertices";
    "edge-types";
    "attributes";
    "attribute-data";
    "graph";
    "attribute-index";
    "synopsis";
    "stats";
  |]

let section_name tag = section_names.(tag - 1)

(* ------------------------------------------------------------------ *)
(* Primitive payload codecs                                            *)
(* ------------------------------------------------------------------ *)

let write_string buf s =
  B.Varint.write buf (String.length s);
  Buffer.add_string buf s

let read_string src pos =
  let len = B.Varint.read src pos in
  if !pos + len > String.length src then corrupt "truncated string";
  let s = String.sub src !pos len in
  pos := !pos + len;
  s

(* A count, length or degree declared inside a payload ending at
   [stop]. Each of the things it counts takes at least [per] bytes, so
   a count above the bytes left is corrupt: rejected before it sizes an
   allocation. *)
let read_count ~what ~per src pos stop =
  let n = B.Varint.read src pos in
  if n > (stop - !pos) / per then corrupt "%s %d exceeds the section" what n;
  n

(* Strictly increasing id sets (edge-type sets, attribute sets) are
   delta-coded: the length, the first element verbatim, then the gaps
   minus one. Sorted sets have mostly tiny gaps, so almost every byte
   hits the varint fast path, and decoding restores — and thereby
   proves — sortedness for free. Written from a slice of a pool, read
   onto the end of one. *)
let write_sorted_slice buf cells lo len =
  B.Varint.write buf len;
  if len > 0 then begin
    B.Varint.write buf cells.(lo);
    for k = lo + 1 to lo + len - 1 do
      B.Varint.write buf (cells.(k) - cells.(k - 1) - 1)
    done
  end

let read_sorted_onto pool src pos stop =
  let len = read_count ~what:"set length" ~per:1 src pos stop in
  if len > 0 then begin
    let x = ref (B.Varint.read src pos) in
    Vec.push pool !x;
    for _ = 2 to len do
      x := !x + 1 + B.Varint.read src pos;
      Vec.push pool !x
    done
  end

let write_dict buf d =
  let n = Mgraph.Dict.size d in
  B.Varint.write buf n;
  for i = 0 to n - 1 do
    write_string buf (Mgraph.Dict.value d i)
  done

(* Every entry takes at least its length byte. *)
let read_dict src pos stop =
  let n = read_count ~what:"dictionary size" ~per:1 src pos stop in
  let d = Mgraph.Dict.create ~initial_capacity:(max 16 n) () in
  for i = 0 to n - 1 do
    let s = read_string src pos in
    if Mgraph.Dict.intern d s <> i then
      corrupt "duplicate dictionary entry %S" s
  done;
  d

(* ------------------------------------------------------------------ *)
(* Section payloads                                                    *)
(* ------------------------------------------------------------------ *)

(* Adjacency neighbours are strictly increasing within a vertex's list,
   so they delta-code the same way the id sets do. Written straight from
   the graph's pools and read straight into the CSR arrays the packer
   takes: no per-edge tuple or array on either side. *)
let write_graph buf g =
  let module MG = Mgraph.Multigraph in
  let n = MG.vertex_count g in
  B.Varint.write buf n;
  let prev = ref (-1) in
  let write_edge w cells lo len =
    B.Varint.write buf (w - !prev - 1);
    prev := w;
    write_sorted_slice buf cells lo len
  in
  for v = 0 to n - 1 do
    B.Varint.write buf (Mgraph.Posting.length (MG.neighbours g MG.Out v));
    prev := -1;
    MG.iter_out g v write_edge
  done;
  let write_set = write_sorted_slice buf in
  for v = 0 to n - 1 do
    MG.with_attributes g v write_set
  done

let write_posting b p = Mgraph.Posting.encode b p

let read_posting src pos =
  match Mgraph.Posting.decode src !pos with
  | p, next ->
      pos := next;
      p
  | exception Mgraph.Posting.Corrupt msg -> corrupt "%s" msg

let read_graph src pos stop =
  (* A vertex takes at least two bytes (its degree and its attribute
     count), a multi-edge at least three (gap, type count, one type). *)
  let n = read_count ~what:"vertex count" ~per:2 src pos stop in
  let offs = Array.make (n + 1) 0 in
  let nbrs = Vec.create n and toffs = Vec.create (n + 1) in
  let tys = Vec.create n in
  Vec.push toffs 0;
  for v = 0 to n - 1 do
    let deg = read_count ~what:"degree" ~per:3 src pos stop in
    let prev = ref (-1) in
    for _ = 1 to deg do
      prev := !prev + 1 + B.Varint.read src pos;
      Vec.push nbrs !prev;
      read_sorted_onto tys src pos stop;
      Vec.push toffs tys.Vec.len
    done;
    offs.(v + 1) <- nbrs.Vec.len
  done;
  let aoffs = Array.make (n + 1) 0 and apool = Vec.create n in
  for v = 0 to n - 1 do
    read_sorted_onto apool src pos stop;
    aoffs.(v + 1) <- apool.Vec.len
  done;
  match
    Mgraph.Multigraph.of_csr ~offs ~nbrs:(Vec.contents nbrs)
      ~toffs:(Vec.contents toffs) ~tys:(Vec.contents tys) ~aoffs
      ~apool:(Vec.contents apool) ()
  with
  | g -> g
  | exception Invalid_argument msg -> corrupt "bad graph section: %s" msg

let write_attribute_data buf data =
  B.Varint.write buf (Array.length data);
  Array.iter
    (fun (pred, lit) ->
      write_string buf pred;
      B.write_term buf (Rdf.Term.Literal lit))
    data

(* A datum takes at least three bytes: the predicate's length, the
   term tag and the value's length. *)
let read_attribute_data src pos stop =
  let n = read_count ~what:"attribute datum count" ~per:3 src pos stop in
  Array.init n (fun _ ->
      let pred = read_string src pos in
      match B.read_term src pos with
      | Rdf.Term.Literal lit -> (pred, lit)
      | Rdf.Term.Iri _ | Rdf.Term.Bnode _ ->
          corrupt "attribute datum is not a literal")

(* The packed synopses, vertex by vertex, as signed varints (the
   negated-minimum feature is negative); the maxima are recomputed on
   load. *)
let write_synopsis buf s =
  let packed = Synopsis_index.packed s in
  B.Varint.write buf (Array.length packed / Mgraph.Synopsis.dims);
  Array.iter (B.Varint.write_signed buf) packed

let read_synopsis src pos stop =
  (* Every coordinate takes at least one byte. *)
  let n =
    read_count ~what:"synopsis count" ~per:Mgraph.Synopsis.dims src pos stop
  in
  Synopsis_index.of_packed
    (Array.init (n * Mgraph.Synopsis.dims) (fun _ -> B.Varint.read_signed src pos))

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

(* Serialize through [emit] — a buffer's or a channel's [add_string].
   Sections are framed one at a time in one reused payload buffer, so a
   file write never holds the whole file in memory. *)
let emit_sections emit t =
  let head = Buffer.create 16 in
  Buffer.add_string head magic;
  B.Varint.write head version;
  B.Varint.write head (Array.length section_names);
  emit (Buffer.contents head);
  let payload = Buffer.create 65536 in
  let section tag fill =
    Buffer.clear payload;
    fill payload;
    let bytes = Buffer.contents payload in
    let crc = B.crc32 bytes in
    Buffer.clear head;
    B.Varint.write head tag;
    B.Varint.write head (String.length bytes);
    emit (Buffer.contents head);
    emit bytes;
    emit (String.init 4 (fun i -> Char.chr ((crc lsr (8 * i)) land 0xFF)))
  in
  let parts = Database.export t.db in
  section tag_meta (fun b -> B.Varint.write b parts.Database.p_triple_count);
  section tag_vertices (fun b -> write_dict b parts.Database.p_vertices);
  section tag_edge_types (fun b -> write_dict b parts.Database.p_edge_types);
  section tag_attributes (fun b -> write_dict b parts.Database.p_attributes);
  section tag_attribute_data (fun b ->
      write_attribute_data b parts.Database.p_attribute_data);
  section tag_graph (fun b -> write_graph b parts.Database.p_graph);
  section tag_attribute_index (fun b ->
      let lists = Attribute_index.postings t.attribute in
      B.Varint.write b (Array.length lists);
      Array.iter (write_posting b) lists);
  section tag_synopsis (fun b -> write_synopsis b t.synopsis);
  section tag_stats (fun b -> write_string b (Stats.encode t.stats))

let encode buf t = emit_sections (Buffer.add_string buf) t

let to_string t =
  let buf = Buffer.create (1 lsl 20) in
  encode buf t;
  Buffer.contents buf

(* Frame check first: tag as expected, payload in bounds, CRC over the
   raw bytes matches — only then parse, given the payload's end.
   [parse] must consume the payload exactly. Returns the parsed value
   and the payload length. *)
let read_section src pos expected_tag parse =
  let tag = B.Varint.read src pos in
  if tag <> expected_tag then
    corrupt "unexpected section tag %d (wanted %d, %s)" tag expected_tag
      (section_name expected_tag);
  let len = B.Varint.read src pos in
  if !pos + len + 4 > String.length src then
    corrupt "truncated section %d (%s)" tag (section_name tag);
  let payload_start = !pos in
  let payload_end = payload_start + len in
  let stored =
    let b i = Char.code src.[payload_end + i] in
    b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
  in
  if B.crc32 ~off:payload_start ~len src <> stored then
    corrupt "bad CRC in section %d (%s)" tag (section_name tag);
  let v = parse src pos payload_end in
  if !pos <> payload_end then
    corrupt "trailing bytes in section %d (%s)" tag (section_name tag);
  pos := payload_end + 4;
  (v, len)

(* The one reader: returns the contents and, for {!fsck}, every
   section's (name, payload bytes) in file order. *)
let decode_sections src =
  let mn = String.length magic in
  if String.length src < mn || String.sub src 0 mn <> magic then
    corrupt "bad magic (not an AMbER index snapshot)";
  let pos = ref mn in
  let v = B.Varint.read src pos in
  if v <> version then
    corrupt "unsupported snapshot version %d (rebuild it with amber build)" v;
  let count = B.Varint.read src pos in
  if count <> Array.length section_names then
    corrupt "unexpected section count %d" count;
  let seen = ref [] in
  let sect tag parse =
    let parsed, len = read_section src pos tag parse in
    seen := (section_name tag, len) :: !seen;
    parsed
  in
  let triple_count = sect tag_meta (fun s p _ -> B.Varint.read s p) in
  let vertices = sect tag_vertices read_dict in
  let edge_types = sect tag_edge_types read_dict in
  let attributes = sect tag_attributes read_dict in
  let attribute_data = sect tag_attribute_data read_attribute_data in
  let graph = sect tag_graph read_graph in
  let attr_lists =
    sect tag_attribute_index (fun s p stop ->
        (* A posting takes at least two bytes: layout tag and length. *)
        let n = read_count ~what:"attribute list count" ~per:2 s p stop in
        Array.init n (fun _ -> read_posting s p))
  in
  let synopsis = sect tag_synopsis read_synopsis in
  let stats =
    sect tag_stats (fun s p _ ->
        match Stats.decode (read_string s p) with
        | st -> st
        | exception B.Corrupt msg -> corrupt "bad stats section: %s" msg)
  in
  if !pos <> String.length src then corrupt "trailing bytes after sections";
  let db =
    match
      Database.import
        {
          Database.p_graph = graph;
          p_vertices = vertices;
          p_edge_types = edge_types;
          p_attributes = attributes;
          p_attribute_data = attribute_data;
          p_triple_count = triple_count;
        }
    with
    | db -> db
    | exception Invalid_argument msg -> corrupt "inconsistent snapshot: %s" msg
  in
  let n = Mgraph.Multigraph.vertex_count graph in
  if Array.length attr_lists <> Mgraph.Dict.size attributes then
    corrupt "attribute index / dictionary size mismatch";
  Array.iter
    (fun l ->
      match Mgraph.Posting.next_geq l n with
      | Some _ -> corrupt "attribute index vertex out of range"
      | None -> ())
    attr_lists;
  let attribute = Attribute_index.of_postings attr_lists in
  if Synopsis_index.vertex_count synopsis <> n then
    corrupt "synopsis index / graph size mismatch";
  if Stats.(stats.vertices) <> n then
    corrupt "stats section / graph size mismatch";
  ({ db; attribute; synopsis; stats }, List.rev !seen)

let decode src = fst (decode_sections src)

(* ------------------------------------------------------------------ *)
(* Static validation (fsck)                                            *)
(* ------------------------------------------------------------------ *)

type fsck_report = {
  sections : (string * int) list;
  f_vertices : int;
  f_edge_types : int;
  f_attributes : int;
  f_triples : int;
}

(* The first vertex whose stored synopsis differs from the one its
   decoded adjacency implies. *)
let stale_synopsis contents =
  let g = Database.graph contents.db in
  let n = Mgraph.Multigraph.vertex_count g in
  let rec loop v =
    if v >= n then None
    else if
      Synopsis_index.vertex_synopsis contents.synopsis v
      <> Mgraph.Synopsis.of_vertex g v
    then Some v
    else loop (v + 1)
  in
  loop 0

(* Validate without serving: the full decode — which checks every
   section's frame and CRC before parsing it, and re-derives and thereby
   proves dictionary id ranges, delta-coded monotonicity and
   cross-section consistency — then the check the decoder itself skips:
   every stored synopsis equals the one recomputed from the graph. *)
let fsck src =
  match decode_sections src with
  | exception B.Corrupt msg -> Error msg
  | contents, sections -> (
      match stale_synopsis contents with
      | Some v ->
          Error
            (Printf.sprintf
               "synopsis of vertex %d disagrees with the graph section" v)
      | None ->
          Ok
            {
              sections;
              f_vertices = Database.vertex_count contents.db;
              f_edge_types = Database.edge_type_count contents.db;
              f_attributes = Database.attribute_count contents.db;
              f_triples = Database.triple_count contents.db;
            })

let pp_fsck_report ppf r =
  Format.fprintf ppf "@[<v>sections:@,";
  List.iter
    (fun (name, len) -> Format.fprintf ppf "  %-16s %8d bytes  crc ok@," name len)
    r.sections;
  Format.fprintf ppf
    "vertices=%d edge_types=%d attributes=%d triples=%d@,all invariants hold@]"
    r.f_vertices r.f_edge_types r.f_attributes r.f_triples

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let write_file path t =
  let oc = open_out_bin path in
  match emit_sections (output_string oc) t with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove path with Sys_error _ -> ());
      raise e

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  decode src

let fsck_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    src
  with
  | exception Sys_error msg -> Error msg
  | src -> fsck src

let sniff_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      let ok =
        match really_input_string ic (String.length magic) with
        | s -> String.equal s magic
        | exception End_of_file -> false
      in
      close_in ic;
      ok
