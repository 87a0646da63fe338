(* Tests for the binary RDF codec, database round-tripping, engine
   persistence and the result serializers. *)

module Reference = Baselines.Reference_eval

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- varints ----------------------------------------------------------- *)

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 8 in
      Rdf.Binary.Varint.write buf n;
      let pos = ref 0 in
      checki (Printf.sprintf "varint %d" n) n
        (Rdf.Binary.Varint.read (Buffer.contents buf) pos);
      checki "consumed all" (Buffer.length buf) !pos)
    [ 0; 1; 127; 128; 255; 300; 16383; 16384; 1_000_000; max_int / 2 ]

let test_varint_corrupt () =
  let truncated = "\x80\x80" in
  (match Rdf.Binary.Varint.read truncated (ref 0) with
  | exception Rdf.Binary.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on truncated varint");
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Binary.Varint.write: negative") (fun () ->
      Rdf.Binary.Varint.write (Buffer.create 4) (-1))

let corrupt_varint src =
  match Rdf.Binary.Varint.read src (ref 0) with
  | exception Rdf.Binary.Corrupt _ -> true
  | _ -> false

let test_varint_edges () =
  let roundtrip n =
    let buf = Buffer.create 10 in
    Rdf.Binary.Varint.write buf n;
    let pos = ref 0 in
    checki (Printf.sprintf "roundtrip %d" n) n
      (Rdf.Binary.Varint.read (Buffer.contents buf) pos);
    checki "consumed exactly" (Buffer.length buf) !pos
  in
  roundtrip 0;
  roundtrip 1;
  roundtrip max_int;
  (* max_int = 2^62 - 1 fills nine groups: eight continued, final 0x3F. *)
  let buf = Buffer.create 10 in
  Rdf.Binary.Varint.write buf max_int;
  checki "max_int is nine bytes" 9 (Buffer.length buf);
  (* Truncated buffers: continuation bit promised more. *)
  checkb "empty" true (corrupt_varint "");
  checkb "lone continuation byte" true (corrupt_varint "\x80");
  checkb "cut mid-sequence" true (corrupt_varint "\xFF\xFF\xFF");
  (* Non-minimal encodings: a redundant trailing zero group must not
     silently decode to the same value. *)
  checkb "0 padded to two bytes" true (corrupt_varint "\x80\x00");
  checkb "1 padded to two bytes" true (corrupt_varint "\x81\x00");
  checkb "127 padded" true (corrupt_varint "\xFF\x00");
  (* Overflow past the 63-bit int range. *)
  checkb "ten-group encoding" true
    (corrupt_varint "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x7F");
  checkb "bit 62 set in final group" true
    (corrupt_varint "\x80\x80\x80\x80\x80\x80\x80\x80\x40")

(* The sliced CRC-32 equals the bit-at-a-time definition for every
   offset and length: aligned and unaligned heads, short tails, bytes
   with the top bit set. *)
let test_crc32 () =
  checki "CRC-32 check value" 0xCBF43926 (Rdf.Binary.crc32 "123456789");
  let reference s off len =
    let c = ref 0xFFFFFFFF in
    for i = off to off + len - 1 do
      c := !c lxor Char.code s.[i];
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done
    done;
    !c lxor 0xFFFFFFFF
  in
  let s = String.init 67 (fun i -> Char.chr (((i * 151) + 7) land 0xFF)) in
  let bad = ref [] in
  for off = 0 to 20 do
    for len = 0 to String.length s - off do
      if Rdf.Binary.crc32 ~off ~len s <> reference s off len then
        bad := (off, len) :: !bad
    done
  done;
  checki "ranges disagreeing with the bitwise CRC" 0 (List.length !bad)

let test_varint_signed () =
  let roundtrip n =
    let buf = Buffer.create 10 in
    Rdf.Binary.Varint.write_signed buf n;
    let pos = ref 0 in
    checki (Printf.sprintf "signed roundtrip %d" n) n
      (Rdf.Binary.Varint.read_signed (Buffer.contents buf) pos);
    checki "consumed exactly" (Buffer.length buf) !pos
  in
  List.iter roundtrip
    [ 0; 1; -1; 63; -64; 64; -65; 1_000_000; -1_000_000; max_int; min_int ];
  (* Zigzag keeps small magnitudes short regardless of sign. *)
  let len n =
    let buf = Buffer.create 10 in
    Rdf.Binary.Varint.write_signed buf n;
    Buffer.length buf
  in
  checki "-64 fits one byte" 1 (len (-64));
  checki "64 needs two" 2 (len 64);
  let corrupt src =
    match Rdf.Binary.Varint.read_signed src (ref 0) with
    | exception Rdf.Binary.Corrupt _ -> true
    | _ -> false
  in
  checkb "signed truncation" true (corrupt "\x80");
  checkb "signed non-minimal" true (corrupt "\x80\x00");
  checkb "signed ten-group overflow" true
    (corrupt "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x7F")

(* --- binary triples ------------------------------------------------------ *)

let test_binary_roundtrip_fixture () =
  let buf = Buffer.create 256 in
  Rdf.Binary.write buf Fixtures.paper_triples;
  let back = Rdf.Binary.read (Buffer.contents buf) ~pos:0 in
  checkb "identical triples, same order" true
    (List.for_all2 Rdf.Triple.equal Fixtures.paper_triples back)

let test_binary_file_roundtrip () =
  let path = Filename.temp_file "amber" ".adb" in
  let triples = Datagen.Lubm.generate ~universities:1 () in
  Rdf.Binary.write_file path triples;
  let back = Rdf.Binary.read_file path in
  let nt_size = String.length (Rdf.Ntriples.to_string triples) in
  let bin_size = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  checkb "identical" true (List.for_all2 Rdf.Triple.equal triples back);
  checkb "compact (at least 3x smaller than N-Triples)" true
    (bin_size * 3 < nt_size)

let test_binary_corrupt_inputs () =
  let bad src =
    match Rdf.Binary.read src ~pos:0 with
    | exception Rdf.Binary.Corrupt _ -> true
    | _ -> false
  in
  checkb "bad magic" true (bad "NOTAMBER\x00");
  checkb "empty" true (bad "");
  (* Valid header but truncated body. *)
  let buf = Buffer.create 64 in
  Rdf.Binary.write buf Fixtures.paper_triples;
  let full = Buffer.contents buf in
  checkb "truncated body" true (bad (String.sub full 0 (String.length full / 2)))

let gen_term =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun s -> Rdf.Term.iri ("http://x/" ^ s))
             (string_size ~gen:(char_range 'a' 'z') (int_range 0 10)));
        (2, map Rdf.Term.literal (string_size ~gen:(char_range ' ' '~') (int_range 0 12)));
        (1, map (fun s -> Rdf.Term.literal ~lang:"en" s)
             (string_size ~gen:(char_range 'a' 'z') (int_range 0 6)));
        (1, map (fun s -> Rdf.Term.literal ~datatype:"http://dt" s)
             (string_size ~gen:(char_range '0' '9') (int_range 1 6)));
        (1, map Rdf.Term.bnode (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)));
      ])

let gen_triples =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (map3
         (fun s p o -> Rdf.Triple.make (Rdf.Term.iri ("http://s/" ^ s)) (Rdf.Term.iri ("http://p/" ^ p)) o)
         (string_size ~gen:(char_range 'a' 'c') (int_range 1 2))
         (string_size ~gen:(char_range 'a' 'c') (int_range 1 2))
         gen_term))

let prop_binary_roundtrip =
  QCheck.Test.make ~name:"binary write/read roundtrip" ~count:300
    (QCheck.make gen_triples) (fun triples ->
      let buf = Buffer.create 128 in
      Rdf.Binary.write buf triples;
      let back = Rdf.Binary.read (Buffer.contents buf) ~pos:0 in
      List.length back = List.length triples
      && List.for_all2 Rdf.Triple.equal triples back)

(* --- Database.to_triples -------------------------------------------------- *)

let test_database_to_triples () =
  let db = Amber.Database.of_triples Fixtures.paper_triples in
  let back = Amber.Database.to_triples db in
  checki "same count (no duplicates in fixture)"
    (List.length Fixtures.paper_triples)
    (List.length back);
  let canon ts = List.sort Rdf.Triple.compare ts in
  checkb "same set" true
    (List.for_all2 Rdf.Triple.equal
       (canon Fixtures.paper_triples)
       (canon back))

let prop_db_roundtrip_preserves_answers =
  QCheck.Test.make ~name:"of_triples ∘ to_triples preserves answers" ~count:40
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let rng = Datagen.Prng.create seed in
      let n = 6 + Datagen.Prng.int rng 6 in
      let e i = Printf.sprintf "http://t/e%d" i in
      let p i = Printf.sprintf "http://t/p%d" i in
      let triples =
        List.init (20 + Datagen.Prng.int rng 20) (fun _ ->
            Rdf.Triple.spo
              (e (Datagen.Prng.int rng n))
              (p (Datagen.Prng.int rng 3))
              (Rdf.Term.iri (e (Datagen.Prng.int rng n))))
        @ List.init n (fun v ->
              Rdf.Triple.spo (e v) "http://t/lp"
                (Rdf.Term.literal (string_of_int (Datagen.Prng.int rng 3))))
      in
      let e1 = Amber.Engine.build triples in
      let e2 =
        Amber.Engine.build (Amber.Database.to_triples (Amber.Engine.db e1))
      in
      let ast =
        Sparql.Parser.parse
          {|SELECT * WHERE { ?a <http://t/p0> ?b . ?b <http://t/p1> ?c }|}
      in
      Reference.canonical_rows (Amber.Engine.query e1 ast).Amber.Engine.rows
      = Reference.canonical_rows (Amber.Engine.query e2 ast).Amber.Engine.rows)

(* --- Engine save/load ------------------------------------------------------ *)

(* An engine's triples through the binary interchange format and back:
   the rebuilt engine answers as the original. *)
let test_engine_save_load () =
  let path = Filename.temp_file "amber" ".adb" in
  let original = Amber.Engine.build Fixtures.paper_triples in
  Rdf.Binary.write_file path
    (Amber.Database.to_triples (Amber.Engine.db original));
  let loaded = Amber.Engine.build (Rdf.Binary.read_file path) in
  Sys.remove path;
  let a1 = Fixtures.select original Fixtures.paper_query_text in
  let a2 = Fixtures.select loaded Fixtures.paper_query_text in
  checkb "answers survive persistence" true
    (Reference.canonical_rows a1.Amber.Engine.rows
    = Reference.canonical_rows a2.Amber.Engine.rows);
  checki "two embeddings still" 2 (List.length a2.Amber.Engine.rows)

(* --- Results serializers ---------------------------------------------------- *)

let sample_answer () =
  {
    Amber.Engine.variables = [ "x"; "y" ];
    rows =
      [
        [ Some (Rdf.Term.iri "http://a"); Some (Rdf.Term.literal "v,1") ];
        [ Some (Rdf.Term.literal ~lang:"en" "hi"); None ];
        [ Some (Rdf.Term.literal ~datatype:"http://dt" "7"); Some (Rdf.Term.bnode "b0") ];
      ];
    truncated = false;
  }

let test_results_json () =
  let json = Amber.Results.to_json (sample_answer ()) in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec loop i = i + n <= h && (String.sub json i n = needle || loop (i + 1)) in
    loop 0
  in
  checkb "head vars" true (contains {|"vars":["x","y"]|});
  checkb "uri binding" true (contains {|"x":{"type":"uri","value":"http://a"}|});
  checkb "lang literal" true (contains {|"xml:lang":"en"|});
  checkb "datatype" true (contains {|"datatype":"http://dt"|});
  checkb "bnode" true (contains {|{"type":"bnode","value":"b0"}|});
  (* Unbound y in the second row: the key must not appear there. *)
  checkb "unbound omitted" true (contains {|{"x":{"type":"literal","value":"hi","xml:lang":"en"}}|})

let test_results_csv () =
  let csv = Amber.Results.to_csv (sample_answer ()) in
  let lines = String.split_on_char '\n' csv in
  checks "header" "x,y\r" (List.nth lines 0);
  checks "quoted comma field" "http://a,\"v,1\"\r" (List.nth lines 1);
  checks "unbound empty" "hi,\r" (List.nth lines 2)

let test_results_tsv () =
  let tsv = Amber.Results.to_tsv (sample_answer ()) in
  let lines = String.split_on_char '\n' tsv in
  checks "header" "?x\t?y" (List.nth lines 0);
  checks "nt terms" "<http://a>\t\"v,1\"" (List.nth lines 1)

(* Exact bytes. These are the bytes the served path compares against
   its in-process answer, so a writer change must keep every one:
   escapes for '"', '\\', tab, CR, LF and other control bytes; 0x7F and
   multi-byte UTF-8 copied as is; empty strings; unbound cells omitted
   (JSON) or empty (CSV/TSV); a row with no bound cell. *)
let golden_answer =
  {
    Amber.Engine.variables = [ "s"; "o"; "q\"v" ];
    rows =
      [
        [
          Some (Rdf.Term.iri "http://ex/caf\xc3\xa9");
          Some (Rdf.Term.literal "q\"b\\s\tt\rc\nl\x01\x1f\x7fz");
          None;
        ];
        [ None; Some (Rdf.Term.literal ~lang:"en" ""); Some (Rdf.Term.bnode "b0") ];
        [
          Some
            (Rdf.Term.literal ~datatype:"http://www.w3.org/2001/XMLSchema#integer"
               "42");
          Some (Rdf.Term.literal "a,b \xe2\x82\xac");
          Some (Rdf.Term.iri "");
        ];
        [ None; None; None ];
      ];
    truncated = false;
  }

let no_rows = { Amber.Engine.variables = [ "x"; "y" ]; rows = []; truncated = false }
let no_vars = { Amber.Engine.variables = []; rows = [ [] ]; truncated = false }

let test_results_json_golden () =
  checks "escapes, UTF-8, unbound"
    ({|{"head":{"vars":["s","o","q\"v"]},"results":{"bindings":[|}
    ^ "{\"s\":{\"type\":\"uri\",\"value\":\"http://ex/caf\xc3\xa9\"},"
    ^ "\"o\":{\"type\":\"literal\",\"value\":\"q\\\"b\\\\s\\tt\\rc\\nl\\u0001\\u001F\x7fz\"}},"
    ^ {|{"o":{"type":"literal","value":"","xml:lang":"en"},|}
    ^ {|"q\"v":{"type":"bnode","value":"b0"}},|}
    ^ {|{"s":{"type":"literal","value":"42","datatype":"http://www.w3.org/2001/XMLSchema#integer"},|}
    ^ "\"o\":{\"type\":\"literal\",\"value\":\"a,b \xe2\x82\xac\"},"
    ^ {|"q\"v":{"type":"uri","value":""}},|}
    ^ {|{}]}}|})
    (Amber.Results.to_json golden_answer);
  checks "zero rows" {|{"head":{"vars":["x","y"]},"results":{"bindings":[]}}|}
    (Amber.Results.to_json no_rows);
  checks "zero variables" {|{"head":{"vars":[]},"results":{"bindings":[{}]}}|}
    (Amber.Results.to_json no_vars)

let test_results_csv_golden () =
  checks "quoting, unbound"
    ("s,o,\"q\"\"v\"\r\n"
    ^ "http://ex/caf\xc3\xa9,\"q\"\"b\\s\tt\rc\nl\x01\x1f\x7fz\",\r\n"
    ^ ",,_:b0\r\n"
    ^ "42,\"a,b \xe2\x82\xac\",\r\n"
    ^ ",,\r\n")
    (Amber.Results.to_csv golden_answer);
  checks "zero rows" "x,y\r\n" (Amber.Results.to_csv no_rows);
  checks "zero variables" "\r\n\r\n" (Amber.Results.to_csv no_vars)

let test_results_tsv_golden () =
  checks "N-Triples terms, unbound"
    ("?s\t?o\t?q\"v\n"
    ^ "<http://ex/caf\xc3\xa9>\t\"q\\\"b\\\\s\\tt\\rc\\nl\x01\x1f\x7fz\"\t\n"
    ^ "\t\"\"@en\t_:b0\n"
    ^ "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>\t\"a,b \xe2\x82\xac\"\t<>\n"
    ^ "\t\t\n")
    (Amber.Results.to_tsv golden_answer);
  checks "zero rows" "?x\t?y\n" (Amber.Results.to_tsv no_rows);
  checks "zero variables" "\n\n" (Amber.Results.to_tsv no_vars)

(* Random answers over strings of any byte: the JSON parses, and gives
   back the variables and every bound term; unbound cells are absent. *)
let gen_any_string =
  QCheck.Gen.(
    string_size (int_range 0 12)
      ~gen:
        (frequency
           [
             (3, char);
             (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\x00'; '\x1f'; '\x7f' ]);
           ]))

let gen_any_term =
  QCheck.Gen.(
    oneof
      [
        map Rdf.Term.iri gen_any_string;
        map Rdf.Term.bnode gen_any_string;
        map Rdf.Term.literal gen_any_string;
        map2 (fun v dt -> Rdf.Term.literal ~datatype:dt v) gen_any_string gen_any_string;
        map2 (fun v l -> Rdf.Term.literal ~lang:l v) gen_any_string gen_any_string;
      ])

let gen_answer =
  QCheck.Gen.(
    list_size (int_range 0 5) gen_any_string >>= fun vars ->
    let variables = List.sort_uniq compare vars in
    list_size (int_range 0 6)
      (flatten_l (List.map (fun _ -> opt ~ratio:0.7 gen_any_term) variables))
    >|= fun rows -> { Amber.Engine.variables; rows; truncated = false })

let term_of_json j =
  let field k = Option.bind (Obs.Json.member k j) Obs.Json.to_string in
  match (field "type", field "value") with
  | Some "uri", Some v -> Some (Rdf.Term.iri v)
  | Some "bnode", Some v -> Some (Rdf.Term.bnode v)
  | Some "literal", Some v ->
      Some (Rdf.Term.literal ?datatype:(field "datatype") ?lang:(field "xml:lang") v)
  | _ -> None

let prop_results_json_roundtrip =
  QCheck.Test.make ~name:"to_json parses back to the answer" ~count:500
    (QCheck.make gen_answer) (fun (a : Amber.Engine.answer) ->
      let j = Obs.Json.parse (Amber.Results.to_json a) in
      let vars =
        Option.map Obs.Json.to_list
          (Option.bind (Obs.Json.member "head" j) (Obs.Json.member "vars"))
      in
      let bindings =
        Option.map Obs.Json.to_list
          (Option.bind (Obs.Json.member "results" j) (Obs.Json.member "bindings"))
      in
      let row_matches row binding =
        let bound = List.filter Option.is_some row in
        (match binding with
        | Obs.Json.Obj members -> List.length members = List.length bound
        | _ -> false)
        && List.for_all2
             (fun v cell ->
               match (cell, Obs.Json.member v binding) with
               | None, None -> true
               | Some t, Some tj -> term_of_json tj = Some t
               | _ -> false)
             a.variables row
      in
      vars = Some (List.map (fun v -> Obs.Json.Str v) a.variables)
      && match bindings with
         | Some bs -> List.length bs = List.length a.rows && List.for_all2 row_matches a.rows bs
         | None -> false)

let suite =
  [
    ( "rdf.binary",
      [
        Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
        Alcotest.test_case "varint corrupt" `Quick test_varint_corrupt;
        Alcotest.test_case "varint edge cases" `Quick test_varint_edges;
        Alcotest.test_case "signed varint edge cases" `Quick test_varint_signed;
        Alcotest.test_case "crc32 = bitwise reference" `Quick test_crc32;
        Alcotest.test_case "fixture roundtrip" `Quick test_binary_roundtrip_fixture;
        Alcotest.test_case "file roundtrip + compactness" `Quick test_binary_file_roundtrip;
        Alcotest.test_case "corrupt inputs" `Quick test_binary_corrupt_inputs;
        QCheck_alcotest.to_alcotest prop_binary_roundtrip;
      ] );
    ( "amber.persistence",
      [
        Alcotest.test_case "to_triples" `Quick test_database_to_triples;
        QCheck_alcotest.to_alcotest prop_db_roundtrip_preserves_answers;
        Alcotest.test_case "engine save/load" `Quick test_engine_save_load;
      ] );
    ( "amber.results",
      [
        Alcotest.test_case "json" `Quick test_results_json;
        Alcotest.test_case "csv" `Quick test_results_csv;
        Alcotest.test_case "tsv" `Quick test_results_tsv;
        Alcotest.test_case "json golden bytes" `Quick test_results_json_golden;
        Alcotest.test_case "csv golden bytes" `Quick test_results_csv_golden;
        Alcotest.test_case "tsv golden bytes" `Quick test_results_tsv_golden;
        QCheck_alcotest.to_alcotest prop_results_json_roundtrip;
      ] );
  ]
