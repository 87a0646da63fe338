(* Index snapshot ("AMBERIX1") tests: save/load round-trips preserve
   query answers, any single-byte corruption is rejected, truncations and
   foreign magics are rejected, sequential and parallel builds serialize
   to identical bytes, and the deserialized synopses equal the ones
   recomputed from the deserialized graph. *)

module Reference = Baselines.Reference_eval

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_temp_file suffix f =
  let path = Filename.temp_file "amber_test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let canonical engine ast =
  Reference.canonical_rows (Amber.Engine.query engine ast).Amber.Engine.rows

let snapshot_string engine =
  Amber.Snapshot.to_string (Amber.Engine.snapshot_contents engine)

(* --- round trips ------------------------------------------------------- *)

let test_roundtrip_fixture () =
  with_temp_file ".amberix" @@ fun path ->
  let original = Amber.Engine.build Fixtures.paper_triples in
  Amber.Engine.save_snapshot original path;
  checkb "sniffs as snapshot" true (Amber.Snapshot.sniff_file path);
  let loaded = Amber.Engine.load_snapshot path in
  let ast = Sparql.Parser.parse Fixtures.paper_query_text in
  checkb "answers survive the snapshot" true
    (canonical original ast = canonical loaded ast);
  checki "two embeddings still" 2
    (List.length (Amber.Engine.query loaded ast).Amber.Engine.rows);
  (* A reload of a reloaded engine serializes to the same bytes. *)
  Alcotest.(check string)
    "re-encoding is canonical" (snapshot_string original)
    (snapshot_string loaded)

let test_triple_file_not_snapshot () =
  with_temp_file ".adb" @@ fun path ->
  Rdf.Binary.write_file path Fixtures.paper_triples;
  checkb "AMBERDB1 is not an index snapshot" false
    (Amber.Snapshot.sniff_file path)

(* --- corruption -------------------------------------------------------- *)

let rejects src =
  match Amber.Snapshot.decode src with
  | exception Rdf.Binary.Corrupt _ -> true
  | _ -> false

(* Every single-byte corruption must surface as [Corrupt]: framing
   errors are caught by the strict varint reader and the section
   checks, payload errors by the per-section CRC-32. *)
let test_corrupt_every_byte () =
  let good = snapshot_string (Amber.Engine.build Fixtures.paper_triples) in
  checkb "pristine bytes decode" true
    (match Amber.Snapshot.decode good with
    | _ -> true
    | exception Rdf.Binary.Corrupt _ -> false);
  let bad = ref [] in
  for i = 0 to String.length good - 1 do
    let flipped = Bytes.of_string good in
    Bytes.set flipped i (Char.chr (Char.code good.[i] lxor 0x01));
    if not (rejects (Bytes.to_string flipped)) then bad := i :: !bad
  done;
  checkb
    (Printf.sprintf "all %d single-byte flips rejected (passing offsets: %s)"
       (String.length good)
       (String.concat "," (List.map string_of_int !bad)))
    true (!bad = [])

let test_corrupt_truncations () =
  let good = snapshot_string (Amber.Engine.build Fixtures.paper_triples) in
  let n = String.length good in
  List.iter
    (fun k ->
      checkb
        (Printf.sprintf "prefix of %d bytes rejected" k)
        true
        (rejects (String.sub good 0 k)))
    [ 0; 1; 7; 12; n / 2; n - 5; n - 1 ];
  checkb "trailing garbage rejected" true (rejects (good ^ "\x00"))

let test_corrupt_magic () =
  checkb "empty" true (rejects "");
  checkb "foreign magic" true (rejects "NOTANIDX\x01\x00");
  (* The triple-interchange format shares varint conventions but is a
     different container: each reader must reject the other's magic. *)
  let buf = Buffer.create 256 in
  Rdf.Binary.write buf Fixtures.paper_triples;
  checkb "AMBERDB1 bytes rejected by the snapshot reader" true
    (rejects (Buffer.contents buf));
  let snap = snapshot_string (Amber.Engine.build Fixtures.paper_triples) in
  checkb "AMBERIX1 bytes rejected by the triple reader" true
    (match Rdf.Binary.read snap ~pos:0 with
    | exception Rdf.Binary.Corrupt _ -> true
    | _ -> false)

(* --- layout-tag validation --------------------------------------------- *)

let contains_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec loop i =
    i + n <= h && (String.sub hay i n = needle || loop (i + 1))
  in
  loop 0

(* Payload bounds of the first section carrying [want] in a snapshot:
   (payload_start, payload_len). Framing only — no parsing. *)
let find_section src want =
  let pos = ref (String.length Amber.Snapshot.magic) in
  let _version = Rdf.Binary.Varint.read src pos in
  let count = Rdf.Binary.Varint.read src pos in
  let rec loop i =
    if i >= count then Alcotest.failf "section tag %d not found" want
    else
      let tag = Rdf.Binary.Varint.read src pos in
      let len = Rdf.Binary.Varint.read src pos in
      let start = !pos in
      pos := start + len + 4;
      if tag = want then (start, len) else loop (i + 1)
  in
  loop 0

(* Rewrite the CRC of the section payload at [start, start + len) so a
   deliberately edited payload passes the frame check. *)
let fix_crc bad ~start ~len =
  let crc = Rdf.Binary.crc32 ~off:start ~len (Bytes.to_string bad) in
  for shift = 0 to 3 do
    Bytes.set bad
      (start + len + shift)
      (Char.chr ((crc lsr (8 * shift)) land 0xFF))
  done

(* The byte-flip sweep above only ever trips the CRC guard. To reach the
   posting decoder's own validation, poison a layout tag *and* recompute
   the section CRC: the frame check passes, so the decoder must reject
   the unknown tag itself — cleanly, as [Corrupt], not a crash. *)
let test_poisoned_layout_tag () =
  let good = snapshot_string (Amber.Engine.build Fixtures.paper_triples) in
  (* Attribute-index section (tag 7): varint list count, then each
     posting opens with its layout-tag varint. *)
  let start, len = find_section good 7 in
  let pos = ref start in
  let lists = Rdf.Binary.Varint.read good pos in
  checkb "fixture has attribute lists" true (lists > 0);
  let bad = Bytes.of_string good in
  Bytes.set bad !pos '\x09' (* valid varint, not a layout tag *);
  fix_crc bad ~start ~len;
  let bad = Bytes.to_string bad in
  (match Amber.Snapshot.decode bad with
  | exception Rdf.Binary.Corrupt msg ->
      checkb "error names the unknown layout tag" true
        (contains_sub msg "layout tag")
  | _ -> Alcotest.fail "poisoned layout tag must raise Corrupt");
  match Amber.Snapshot.fsck bad with
  | Error msg ->
      checkb "fsck reports the unknown layout tag" true
        (contains_sub msg "layout tag")
  | Ok _ -> Alcotest.fail "fsck must reject a poisoned layout tag"

(* A synopsis the graph does not imply decodes (the loader trusts the
   CRC-guarded section), but fsck recomputes every synopsis from the
   decoded graph and names the first vertex that disagrees. *)
let test_stale_synopsis_fsck () =
  let good = snapshot_string (Amber.Engine.build Fixtures.paper_triples) in
  (* Synopsis section (tag 8): vertex count, then zigzag varints. *)
  let start, len = find_section good 8 in
  let pos = ref start in
  checkb "fixture has vertices" true (Rdf.Binary.Varint.read good pos > 0);
  let first = !pos in
  checkb "vertex 0's first feature is not 50" true
    (Rdf.Binary.Varint.read_signed good pos <> 50);
  checki "and is a one-byte varint" (first + 1) !pos;
  let bad = Bytes.of_string good in
  Bytes.set bad first '\x64' (* zigzag 50 *);
  fix_crc bad ~start ~len;
  let bad = Bytes.to_string bad in
  checkb "the edited file still decodes" true
    (match Amber.Snapshot.decode bad with _ -> true | exception _ -> false);
  match Amber.Snapshot.fsck bad with
  | Error msg ->
      checkb "fsck names the stale vertex" true
        (contains_sub msg "synopsis of vertex 0 disagrees")
  | Ok _ -> Alcotest.fail "fsck must reject a synopsis the graph does not imply"

(* --- declared counts ---------------------------------------------------- *)

(* [good] with the payload of section [tag] replaced by [edit payload],
   re-framed: new length varint, new CRC. *)
let reframe good tag edit =
  let start, len = find_section good tag in
  let payload = edit (String.sub good start len) in
  (* The length varint ends right before the payload: walk back over its
     continuation bytes to the one-byte tag. *)
  let len_start =
    let rec back p =
      if Char.code good.[p - 1] land 0x80 <> 0 then back (p - 1) else p
    in
    back (start - 1)
  in
  let buf = Buffer.create (String.length good + 16) in
  Buffer.add_string buf (String.sub good 0 len_start);
  Rdf.Binary.Varint.write buf (String.length payload);
  Buffer.add_string buf payload;
  let crc = Rdf.Binary.crc32 payload in
  for shift = 0 to 3 do
    Buffer.add_char buf (Char.chr ((crc lsr (8 * shift)) land 0xFF))
  done;
  let rest = start + len + 4 in
  Buffer.add_string buf (String.sub good rest (String.length good - rest));
  Buffer.contents buf

(* Replace the [skip]-th varint of a payload (0 = the first) by [value]. *)
let set_varint ~skip value payload =
  let pos = ref 0 in
  for _ = 1 to skip do
    ignore (Rdf.Binary.Varint.read payload pos)
  done;
  let at = !pos in
  ignore (Rdf.Binary.Varint.read payload pos);
  let buf = Buffer.create (String.length payload + 8) in
  Buffer.add_string buf (String.sub payload 0 at);
  Rdf.Binary.Varint.write buf value;
  Buffer.add_string buf
    (String.sub payload !pos (String.length payload - !pos));
  Buffer.contents buf

(* A CRC-valid section declaring 2^40 entries must fail as [Corrupt]
   naming the count, before anything is sized by it — not die with
   [Out_of_memory]. One case per count a section opens with, plus the
   first vertex's degree and first type-set length in the graph. *)
let test_oversized_counts () =
  let good = snapshot_string (Amber.Engine.build Fixtures.paper_triples) in
  let huge = 1 lsl 40 in
  List.iter
    (fun (name, tag, skip, what) ->
      let bad = reframe good tag (set_varint ~skip huge) in
      checkb (name ^ ": re-framing alone decodes") true
        (match Amber.Snapshot.decode (reframe good tag Fun.id) with
        | _ -> true
        | exception _ -> false);
      match Amber.Snapshot.fsck bad with
      | Error msg ->
          checkb
            (Printf.sprintf "%s: fsck names the %s (%s)" name what msg)
            true
            (contains_sub msg (Printf.sprintf "%s %d exceeds the section" what huge))
      | Ok _ -> Alcotest.failf "%s: fsck must reject a count of 2^40" name
      | exception e ->
          Alcotest.failf "%s: fsck raised %s" name (Printexc.to_string e))
    [
      ("vertices", 2, 0, "dictionary size");
      ("edge-types", 3, 0, "dictionary size");
      ("attributes", 4, 0, "dictionary size");
      ("attribute-data", 5, 0, "attribute datum count");
      ("graph", 6, 0, "vertex count");
      ("graph degree", 6, 1, "degree");
      ("graph type set", 6, 3, "set length");
      ("attribute-index", 7, 0, "attribute list count");
      ("synopsis", 8, 0, "synopsis count");
    ]

(* A CRC-valid dictionary section whose first key appears twice (the
   entry count raised by one to make room) must fail to decode naming
   the repeated key: ids are positions, so a repeat would alias two ids. *)
let test_duplicate_dictionary_entry () =
  let good = snapshot_string (Amber.Engine.build Fixtures.paper_triples) in
  let repeat_first payload =
    let pos = ref 0 in
    let n = Rdf.Binary.Varint.read payload pos in
    let first_at = !pos in
    let len = Rdf.Binary.Varint.read payload pos in
    let first_end = !pos + len in
    let first = String.sub payload first_at (first_end - first_at) in
    let buf = Buffer.create (String.length payload + String.length first) in
    Rdf.Binary.Varint.write buf (n + 1);
    Buffer.add_string buf first;
    Buffer.add_string buf
      (String.sub payload first_at (String.length payload - first_at));
    Buffer.contents buf
  in
  List.iter
    (fun (name, tag) ->
      match Amber.Snapshot.decode (reframe good tag repeat_first) with
      | exception Rdf.Binary.Corrupt msg ->
          checkb
            (Printf.sprintf "%s: error names the repeat (%s)" name msg)
            true
            (contains_sub msg "duplicate dictionary entry")
      | _ -> Alcotest.failf "%s: a repeated key must raise Corrupt" name)
    [ ("vertices", 2); ("edge-types", 3); ("attributes", 4) ]

(* --- per-layout round trips -------------------------------------------- *)

(* Every physical layout survives a snapshot round trip, on data whose
   adjacency and attribute index hold Raw, Elias-Fano and Blocked lists:
   each list reloads in the layout it was saved in (the attribute lists
   from their tags, the adjacency re-frozen), answers are unchanged, and
   re-encoding the loaded engine is byte-identical. *)
let test_layout_roundtrips () =
  let triples =
    Fixtures.with_compressed_attributes
      (Datagen.Lubm.generate ~universities:1 ())
  in
  let corpus = Datagen.Workload.corpus triples in
  let queries =
    Datagen.Workload.generate ~seed:7 corpus ~shape:Datagen.Workload.Star
      ~size:3 ~count:2
    @ Datagen.Workload.generate ~seed:8 corpus
        ~shape:Datagen.Workload.Complex ~size:4 ~count:2
  in
  let original = Amber.Engine.build triples in
  Fixtures.check_compressed "lubm" original;
  with_temp_file ".amberix" @@ fun path ->
  Amber.Engine.save_snapshot original path;
  let loaded = Amber.Engine.load_snapshot path in
  checkb "every list reloads in its layout" true
    (Fixtures.compressed_census loaded = Fixtures.compressed_census original
    && Amber.Engine.posting_stats loaded = Amber.Engine.posting_stats original);
  Alcotest.(check string)
    "re-encoding is canonical" (snapshot_string original)
    (snapshot_string loaded);
  List.iter
    (fun ast ->
      checkb "answers survive the snapshot" true
        (canonical original ast = canonical loaded ast))
    queries

(* Every snapshot carries the planner statistics; the loaded engine
   reuses them verbatim. *)
let test_stats_section_roundtrip () =
  let original = Amber.Engine.build Fixtures.paper_triples in
  let good = snapshot_string original in
  let _, len = find_section good 9 in
  checkb "stats section is present and non-empty" true (len > 0);
  with_temp_file ".amberix" @@ fun path ->
  Amber.Engine.save_snapshot original path;
  let loaded = Amber.Engine.load_snapshot path in
  checkb "stats survive the snapshot" true
    (Amber.Engine.statistics loaded = Amber.Engine.statistics original)

(* Exactly one format is read: a file claiming any other version is
   rejected up front, naming the version — v5 (which still stored a
   layout policy) as much as v4 (the synopsis R-tree) and v3. *)
let test_other_version_rejected () =
  let good = snapshot_string (Amber.Engine.build Fixtures.paper_triples) in
  let at = String.length Amber.Snapshot.magic in
  checki "version varint is one byte" Amber.Snapshot.version (Char.code good.[at]);
  List.iter
    (fun v ->
      let old = Bytes.of_string good in
      Bytes.set old at (Char.chr v);
      match Amber.Snapshot.decode (Bytes.to_string old) with
      | exception Rdf.Binary.Corrupt msg ->
          checkb
            (Printf.sprintf "error names the unsupported version %d" v)
            true
            (contains_sub msg (Printf.sprintf "unsupported snapshot version %d" v))
      | _ -> Alcotest.failf "a version-%d snapshot must raise Corrupt" v)
    [ 3; 4; 5 ]

(* --- golden bytes --------------------------------------------------------- *)

(* A small fixed scale-free graph (multi-type edges, literals) plus a
   blank-node fringe: each blank node reaches an entity over two types
   at once, carries a language-tagged literal and is reached from the
   next entity. Two literals put Elias-Fano and Blocked lists in the
   attribute index. *)
let golden_triples =
  let ex s = Rdf.Term.iri ("http://example.org/golden/" ^ s) in
  let entity i = Rdf.Term.iri (Datagen.Scale_free.entity_iri i) in
  let blank i = Rdf.Term.bnode (Printf.sprintf "g%d" i) in
  Fixtures.with_compressed_attributes
    (Datagen.Scale_free.generate ~seed:27 ~skew:1.0
       (Datagen.Scale_free.dbpedia_like ~scale:0.01 ())
    @ List.concat
        (List.init 12 (fun i ->
             [
               Rdf.Triple.make (blank i) (ex "p") (entity i);
               Rdf.Triple.make (blank i) (ex "q") (entity i);
               Rdf.Triple.make (entity (i + 1)) (ex "r") (blank i);
               Rdf.Triple.make (blank i) (ex "label")
                 (Rdf.Term.literal ~lang:"en" (Printf.sprintf "blank %d" i));
             ])))

(* Four write batches over [golden_triples]: each deletes a stride of
   base triples (edges and literals) and adds fresh entities, blank
   nodes and literals, some linked to surviving vertices. *)
let golden_compacted () =
  let live =
    Amber.Live_engine.of_engine (Amber.Engine.build golden_triples)
  in
  let base = Array.of_list golden_triples in
  let n = Array.length base in
  let ex s = Rdf.Term.iri ("http://example.org/golden/" ^ s) in
  for k = 0 to 3 do
    let dels = List.init 15 (fun i -> base.(((k * 97) + (i * 13)) mod n)) in
    let adds =
      List.concat
        (List.init 5 (fun i ->
             let fresh = ex (Printf.sprintf "new%d_%d" k i) in
             [
               Rdf.Triple.make fresh (ex "p")
                 (Rdf.Term.iri (Datagen.Scale_free.entity_iri (k + i)));
               Rdf.Triple.make
                 (Rdf.Term.bnode (Printf.sprintf "nb%d_%d" k i))
                 (ex "q") fresh;
               Rdf.Triple.make fresh (ex "label")
                 (Rdf.Term.literal (Printf.sprintf "new %d" i));
             ]))
    in
    ignore (Amber.Live_engine.update live ~adds ~dels)
  done;
  ignore (Amber.Live_engine.compact live);
  Amber.Live_engine.engine (Amber.Live_engine.settle live)

(* The snapshot bytes (and the planner-statistics bytes inside them)
   of the golden graph, and of a compaction of it, pinned by digest: a
   codec or index-build change that alters a single byte fails here.
   The golden graph's attribute index holds every layout, so its section
   (the one stored layout-tagged) pins compressed codec bytes too. Regenerate only with a format
   version bump. *)
let golden_digests =
  [
    ( "auto",
      "6b4267f52117bbc1eefbdba4f5f731df",
      "4081381bad4efbbe62c8f3d8dee6972d" );
    ( "compacted",
      "c5b9d11150c5b562716ec451e2a6f071",
      "cf0a7175fb2b0515a6875cf5bda65ae7" );
  ]

let test_golden_digests () =
  let engines =
    [
      ( "auto",
        fun () ->
          let e = Amber.Engine.build golden_triples in
          let s =
            Amber.Attribute_index.posting_stats (Amber.Engine.attribute_index e)
          in
          checkb "golden attribute index holds Ef and Blocked lists" true
            (s.Mgraph.Posting.ef_lists > 0 && s.Mgraph.Posting.blocked_lists > 0);
          e );
      ("compacted", golden_compacted);
    ]
  in
  List.iter
    (fun (name, snapshot, stats) ->
      let engine = (List.assoc name engines) () in
      Alcotest.(check string)
        (name ^ ": snapshot digest") snapshot
        (Digest.to_hex (Digest.string (snapshot_string engine)));
      Alcotest.(check string)
        (name ^ ": stats digest") stats
        (Digest.to_hex
           (Digest.string (Amber.Stats.encode (Amber.Engine.statistics engine)))))
    golden_digests

(* --- parallel build determinism ---------------------------------------- *)

let test_parallel_byte_identical () =
  let triples = Datagen.Lubm.generate ~universities:1 () in
  let seq = Amber.Engine.build ~domains:1 triples in
  let par = Amber.Engine.build ~domains:4 triples in
  checkb "4-domain build serializes byte-identically to sequential" true
    (snapshot_string seq = snapshot_string par)

(* Index construction quiesces the pool: parked worker domains would
   slow every stop-the-world minor collection for the rest of the
   process. *)
let test_build_quiesces_pool () =
  ignore (Amber.Engine.build ~domains:4 Fixtures.paper_triples);
  checki "no worker domains parked after a parallel build" 0
    (Amber.Domain_pool.workers (Amber.Domain_pool.global ()))

(* --- randomized differential property ---------------------------------- *)

(* Random small multigraph in the common fragment; independent of the
   differential suite's generator (different salt and shape mix) so the
   two suites do not share blind spots. *)
let random_triples seed =
  let rng = Datagen.Prng.create (0x51a9 + seed) in
  let n = 8 + Datagen.Prng.int rng 16 in
  let e i = Printf.sprintf "http://s/e%d" i in
  let p i = Printf.sprintf "http://s/p%d" i in
  let triples = ref [] in
  for _ = 1 to 25 + Datagen.Prng.int rng 55 do
    triples :=
      Rdf.Triple.spo
        (e (Datagen.Prng.int rng n))
        (p (Datagen.Prng.int rng 5))
        (Rdf.Term.iri (e (Datagen.Prng.int rng n)))
      :: !triples
  done;
  for v = 0 to n - 1 do
    if Datagen.Prng.bool rng 0.4 then
      triples :=
        Rdf.Triple.spo (e v) "http://s/name"
          (Rdf.Term.literal (Printf.sprintf "n%d" (Datagen.Prng.int rng 4)))
        :: !triples
  done;
  !triples

let queries_for seed triples =
  let corpus = Datagen.Workload.corpus triples in
  Datagen.Workload.generate ~seed corpus ~shape:Datagen.Workload.Star ~size:3
    ~count:2
  @ Datagen.Workload.generate ~seed:(seed + 900) corpus
      ~shape:Datagen.Workload.Complex ~size:4 ~count:2

let prop_snapshot_differential =
  QCheck.Test.make
    ~name:"snapshot-loaded engine = fresh engine = oracle on random graphs"
    ~count:30
    (QCheck.make
       ~print:(fun seed ->
         Printf.sprintf "seed %d (%d triples)" seed
           (List.length (random_triples seed)))
       ~shrink:QCheck.Shrink.int
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let triples = random_triples seed in
      let fresh = Amber.Engine.build triples in
      with_temp_file ".amberix" @@ fun path ->
      Amber.Engine.save_snapshot fresh path;
      let loaded = Amber.Engine.load_snapshot path in
      (let g = Amber.Database.graph (Amber.Engine.db loaded) in
       let syn = Amber.Engine.synopsis_index loaded in
       for v = 0 to Mgraph.Multigraph.vertex_count g - 1 do
         if
           Amber.Synopsis_index.vertex_synopsis syn v
           <> Mgraph.Synopsis.of_vertex g v
         then
           QCheck.Test.fail_reportf
             "seed %d: decoded synopsis of vertex %d differs from the one \
              recomputed from the decoded graph"
             seed v
       done);
      List.for_all
        (fun ast ->
          let expected = Reference.canonical_answer triples ast in
          let got = canonical loaded ast in
          if got <> expected then
            QCheck.Test.fail_reportf
              "seed %d: snapshot-loaded engine disagrees with oracle (%d vs \
               %d rows) on:@.%s"
              seed (List.length got) (List.length expected)
              (Sparql.Ast.to_string ast)
          else if got <> canonical fresh ast then
            QCheck.Test.fail_reportf
              "seed %d: snapshot-loaded engine disagrees with the fresh \
               engine on:@.%s"
              seed (Sparql.Ast.to_string ast)
          else true)
        (queries_for seed triples))

(* [random_triples seed] plus two hubs of the shapes the layout rule
   compresses. 640 fresh leaves point at [e0] over a hub predicate, so
   [e0]'s in-list is a contiguous run (Blocked); [e1] points at every
   tenth leaf, 64 ids spread over 631 (Elias-Fano). The first 80 leaves
   carry the name "n1" and every tenth carries "n0", the random part's
   own values, so those two attribute lists compress the same two ways.
   Queries come from the random part alone: they reach the hubs and the
   compressed lists without a star over 640 leaves. *)
let with_hubs triples =
  let leaf i = Printf.sprintf "http://s/leaf%d" i in
  let hub = "http://s/hub" and e i = Printf.sprintf "http://s/e%d" i in
  let name i v = Rdf.Triple.spo (leaf i) "http://s/name" (Rdf.Term.literal v) in
  triples
  @ List.init 640 (fun i -> Rdf.Triple.spo (leaf i) hub (Rdf.Term.iri (e 0)))
  @ List.init 64 (fun i -> Rdf.Triple.spo (e 1) hub (Rdf.Term.iri (leaf (10 * i))))
  @ List.init 80 (fun i -> name i "n1")
  @ List.init 64 (fun i -> name (10 * i) "n0")

(* Same shape, but every engine holds hubs whose lists freeze compressed:
   query evaluation runs directly over the Elias-Fano / blocked lists a
   snapshot restored, and must still agree with the oracle. *)
let prop_compressed_snapshot_differential =
  QCheck.Test.make
    ~name:"compressed-layout engine loaded from snapshot = oracle" ~count:15
    (QCheck.make
       ~print:(fun seed ->
         Printf.sprintf "seed %d (%d triples before the hubs)" seed
           (List.length (random_triples seed)))
       ~shrink:QCheck.Shrink.int
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let random = random_triples seed in
      let triples = with_hubs random in
      let fresh = Amber.Engine.build triples in
      with_temp_file ".amberix" @@ fun path ->
      Amber.Engine.save_snapshot fresh path;
      let loaded = Amber.Engine.load_snapshot path in
      List.iter
        (fun (what, count) ->
          if count = 0 then
            QCheck.Test.fail_reportf "seed %d: no %s lists" seed what)
        (Fixtures.compressed_census loaded);
      List.for_all
        (fun ast ->
          let expected = Reference.canonical_answer triples ast in
          let got = canonical loaded ast in
          if got <> expected then
            QCheck.Test.fail_reportf
              "seed %d: compressed snapshot engine disagrees with oracle (%d \
               vs %d rows) on:@.%s"
              seed (List.length got) (List.length expected)
              (Sparql.Ast.to_string ast)
          else true)
        (queries_for seed random))

(* --- endpoint cold start ------------------------------------------------ *)

let test_endpoint_boot () =
  with_temp_file ".amberix" @@ fun path ->
  Amber.Engine.save_snapshot (Amber.Engine.build Fixtures.paper_triples) path;
  let server =
    Endpoint.boot
      { Endpoint.default_config with snapshot = Some path; port = 0 }
  in
  let port = Endpoint.bound_port server in
  checkb "bound an ephemeral port" true (port > 0);
  let server_domain =
    Domain.spawn (fun () -> Endpoint.serve ~max_requests:1 server)
  in
  let encode s =
    let buf = Buffer.create (String.length s * 2) in
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
            Buffer.add_char buf c
        | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents buf
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let request =
    Printf.sprintf "GET /sparql?query=%s HTTP/1.1\r\nHost: localhost\r\n\r\n"
      (encode Fixtures.paper_query_text)
  in
  let _ = Unix.write fd (Bytes.of_string request) 0 (String.length request) in
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    end
  in
  drain ();
  Unix.close fd;
  Domain.join server_domain;
  Endpoint.stop server;
  let response = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and h = String.length response in
    let rec loop i =
      i + n <= h && (String.sub response i n = needle || loop (i + 1))
    in
    loop 0
  in
  checkb "booted server answers" true (contains "HTTP/1.1 200 OK");
  checkb "with real bindings" true (contains "Amy_Winehouse")

let test_boot_requires_snapshot () =
  match Endpoint.boot { Endpoint.default_config with snapshot = None } with
  | exception Invalid_argument _ -> ()
  | server ->
      Endpoint.stop server;
      Alcotest.fail "boot without a snapshot path must raise Invalid_argument"

let suite =
  [
    ( "snapshot",
      [
        Alcotest.test_case "fixture roundtrip" `Quick test_roundtrip_fixture;
        Alcotest.test_case "sniffing" `Quick test_triple_file_not_snapshot;
        Alcotest.test_case "every byte flip rejected" `Quick
          test_corrupt_every_byte;
        Alcotest.test_case "truncations rejected" `Quick
          test_corrupt_truncations;
        Alcotest.test_case "foreign magics rejected" `Quick test_corrupt_magic;
        Alcotest.test_case "poisoned layout tag rejected" `Quick
          test_poisoned_layout_tag;
        Alcotest.test_case "fsck rejects a stale synopsis" `Quick
          test_stale_synopsis_fsck;
        Alcotest.test_case "oversized counts rejected" `Quick
          test_oversized_counts;
        Alcotest.test_case "duplicate dictionary entry rejected" `Quick
          test_duplicate_dictionary_entry;
        Alcotest.test_case "per-layout roundtrips" `Quick
          test_layout_roundtrips;
        Alcotest.test_case "stats section roundtrip" `Quick
          test_stats_section_roundtrip;
        Alcotest.test_case "other versions rejected" `Quick
          test_other_version_rejected;
        Alcotest.test_case "golden digests" `Quick test_golden_digests;
        Alcotest.test_case "parallel build byte-identical" `Quick
          test_parallel_byte_identical;
        Alcotest.test_case "parallel build quiesces pool" `Quick
          test_build_quiesces_pool;
        QCheck_alcotest.to_alcotest prop_snapshot_differential;
        QCheck_alcotest.to_alcotest prop_compressed_snapshot_differential;
        Alcotest.test_case "endpoint boots from snapshot" `Quick
          test_endpoint_boot;
        Alcotest.test_case "boot requires a snapshot path" `Quick
          test_boot_requires_snapshot;
      ] );
  ]
