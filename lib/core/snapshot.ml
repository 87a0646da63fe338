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

let magic = "AMBERIX1"

(* Format v5 stores the attribute index as layout-tagged
   {!Mgraph.Posting} codecs in their frozen physical form (raw /
   Elias-Fano / partitioned blocks), and the build-time layout policy in
   the meta section so the adjacency postings re-freeze identically on
   load. The synopsis section holds the synopses alone: v5 dropped v4's
   packed R-tree structure after them (v4 had already dropped v3's two
   neighbourhood trie sections). The planner statistics close every
   file. This is the only version read; older files are rebuilt with
   [amber build]. *)
let version = 5

type contents = {
  db : Database.t;
  attribute : Attribute_index.t;
  synopsis : Synopsis_index.t;
  layout : Mgraph.Posting.policy;
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

(* Strictly increasing id sets (edge-type sets, attribute sets, inverted
   vertex lists) are delta-coded: the first element verbatim, then the
   gaps minus one. Sorted sets have mostly tiny gaps, so almost every
   byte hits the varint fast path, and decoding restores — and thereby
   proves — sortedness for free. *)
let write_sorted_array buf a =
  let n = Array.length a in
  B.Varint.write buf n;
  if n > 0 then begin
    B.Varint.write buf a.(0);
    for i = 1 to n - 1 do
      B.Varint.write buf (a.(i) - a.(i - 1) - 1)
    done
  end

let read_sorted_array src pos =
  let len = B.Varint.read src pos in
  if len = 0 then [||]
  else begin
    let a = Array.make len (B.Varint.read src pos) in
    for i = 1 to len - 1 do
      a.(i) <- a.(i - 1) + 1 + B.Varint.read src pos
    done;
    a
  end

let write_dict buf d =
  let n = Mgraph.Dict.size d in
  B.Varint.write buf n;
  for i = 0 to n - 1 do
    write_string buf (Mgraph.Dict.value d i)
  done

let read_dict src pos =
  let n = B.Varint.read src pos in
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
   so they delta-code the same way the id sets do. *)
let write_graph buf g =
  let out_adj, attrs = Mgraph.Multigraph.export g in
  let n = Array.length out_adj in
  B.Varint.write buf n;
  Array.iter
    (fun adj ->
      B.Varint.write buf (Array.length adj);
      let prev = ref (-1) in
      Array.iter
        (fun (v', types) ->
          B.Varint.write buf (v' - !prev - 1);
          prev := v';
          write_sorted_array buf types)
        adj)
    out_adj;
  Array.iter (write_sorted_array buf) attrs

let write_posting b p = Mgraph.Posting.encode b p

let read_posting src pos =
  match Mgraph.Posting.decode src !pos with
  | p, next ->
      pos := next;
      p
  | exception Mgraph.Posting.Corrupt msg -> corrupt "%s" msg

let read_graph ?layout src pos =
  let n = B.Varint.read src pos in
  let out_adj =
    Array.init n (fun _ ->
        let deg = B.Varint.read src pos in
        let prev = ref (-1) in
        Array.init deg (fun _ ->
            let v' = !prev + 1 + B.Varint.read src pos in
            prev := v';
            (v', read_sorted_array src pos)))
  in
  let attrs = Array.init n (fun _ -> read_sorted_array src pos) in
  match Mgraph.Multigraph.import ?layout ~out_adj ~attrs () with
  | g -> g
  | exception Invalid_argument msg -> corrupt "bad graph section: %s" msg

let write_attribute_data buf data =
  B.Varint.write buf (Array.length data);
  Array.iter
    (fun (pred, lit) ->
      write_string buf pred;
      B.write_term buf (Rdf.Term.Literal lit))
    data

let read_attribute_data src pos =
  let n = B.Varint.read src pos in
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

let read_synopsis src pos =
  let n = B.Varint.read src pos in
  (* Every coordinate takes at least one byte. *)
  if n < 0 || n > (String.length src - !pos) / Mgraph.Synopsis.dims then
    corrupt "synopsis count %d exceeds the section" n;
  Synopsis_index.of_packed
    (Array.init (n * Mgraph.Synopsis.dims) (fun _ -> B.Varint.read_signed src pos))

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let add_section buf tag payload =
  B.Varint.write buf tag;
  B.Varint.write buf (Buffer.length payload);
  let bytes = Buffer.contents payload in
  Buffer.add_string buf bytes;
  let crc = B.crc32 bytes in
  for shift = 0 to 3 do
    Buffer.add_char buf (Char.chr ((crc lsr (8 * shift)) land 0xFF))
  done

let encode buf t =
  Buffer.add_string buf magic;
  B.Varint.write buf version;
  B.Varint.write buf (Array.length section_names);
  let parts = Database.export t.db in
  let section tag fill =
    let payload = Buffer.create 4096 in
    fill payload;
    add_section buf tag payload
  in
  section tag_meta (fun b ->
      B.Varint.write b parts.Database.p_triple_count;
      write_string b (Mgraph.Posting.policy_to_string t.layout));
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

let to_string t =
  let buf = Buffer.create (1 lsl 20) in
  encode buf t;
  Buffer.contents buf

(* Frame check first: tag as expected, payload in bounds, CRC over the
   raw bytes matches — only then parse. [parse] must consume the payload
   exactly. Returns the parsed value and the payload length. *)
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
  let v = parse src pos in
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
  let triple_count, layout =
    sect tag_meta (fun s p ->
        let n = B.Varint.read s p in
        let name = read_string s p in
        match Mgraph.Posting.policy_of_string name with
        | Some policy -> (n, policy)
        | None -> corrupt "unknown layout policy %S" name)
  in
  let vertices = sect tag_vertices read_dict in
  let edge_types = sect tag_edge_types read_dict in
  let attributes = sect tag_attributes read_dict in
  let attribute_data = sect tag_attribute_data read_attribute_data in
  let graph = sect tag_graph (read_graph ~layout) in
  let attr_lists =
    sect tag_attribute_index (fun s p ->
        let n = B.Varint.read s p in
        Array.init n (fun _ -> read_posting s p))
  in
  let synopsis = sect tag_synopsis read_synopsis in
  let stats =
    sect tag_stats (fun s p ->
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
  ({ db; attribute; synopsis; layout; stats }, List.rev !seen)

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
  let buf = Buffer.create (1 lsl 20) in
  encode buf t;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

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
