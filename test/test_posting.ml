(* Agreement harness for the compressed posting-list substrate: every
   layout's [mem]/[next_geq]/[inter]/[inter_many]/iteration must match
   the raw-array kernels ([Sorted_ints] is the oracle), on adversarial
   distributions — runs of consecutive ids, single-element lists,
   max-id boundaries — plus wire-codec round trips per layout. *)

module P = Mgraph.Posting
module S = Mgraph.Sorted_ints

let layouts = [ P.Raw; P.Ef; P.Blocked ]

let freeze l a = P.of_array ~policy:(P.Force l) a

(* ---------- generators ---------- *)

let sorted_of_list l =
  List.sort_uniq compare (List.filter (fun x -> x >= 0) l) |> Array.of_list

(* Adversarial shapes: dense runs, sparse spreads, block-boundary
   sizes, huge ids near the EF bucket edges. *)
let gen_sorted =
  QCheck.Gen.(
    let run = map2 (fun start len -> List.init (min len 300) (fun i -> start + i))
        (int_bound 100_000) (int_bound 300) in
    let spread = list_size (int_bound 300) (int_bound 5_000_000) in
    let boundary =
      map (fun start -> [ start; start + 1; 1 lsl 40; (1 lsl 40) + 1 ])
        (int_bound 1000)
    in
    let singleton = map (fun x -> [ x ]) (int_bound 1_000_000) in
    let mixed = map2 (fun a b -> a @ b) run spread in
    map sorted_of_list (oneof [ run; spread; boundary; singleton; mixed; return [] ]))

let arb_sorted = QCheck.make ~print:(fun a ->
    Printf.sprintf "[|%s|]" (String.concat ";" (Array.to_list (Array.map string_of_int a))))
    gen_sorted

let qtest name arb ~count f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ---------- properties ---------- *)

let prop_roundtrip (a : int array) =
  List.for_all
    (fun l ->
      let p = freeze l a in
      P.to_array p = a
      && P.length p = Array.length a
      && (Array.length a = 0 || P.layout p = l))
    layouts

let prop_mem a =
  let probes =
    Array.to_list (Array.map (fun x -> [ x; x - 1; x + 1 ]) a)
    |> List.concat
    |> List.filter (fun x -> x >= 0)
  in
  let probes = 0 :: max_int :: probes in
  List.for_all
    (fun l ->
      let p = freeze l a in
      List.for_all (fun x -> P.mem p x = S.mem a x) probes)
    layouts

let oracle_next_geq a x =
  let n = Array.length a in
  let rec go i = if i >= n then None else if a.(i) >= x then Some a.(i) else go (i + 1) in
  go 0

let prop_next_geq a =
  let probes =
    Array.to_list (Array.map (fun x -> [ x; x - 1; x + 1 ]) a)
    |> List.concat
    |> List.filter (fun x -> x >= 0)
  in
  let probes = 0 :: probes in
  List.for_all
    (fun l ->
      let p = freeze l a in
      List.for_all (fun x -> P.next_geq p x = oracle_next_geq a x) probes)
    layouts

let prop_index_of a =
  List.for_all
    (fun l ->
      let p = freeze l a in
      Array.for_all (fun x -> P.index_of p x <> None) a
      && Array.to_list a
         |> List.mapi (fun i x -> (i, x))
         |> List.for_all (fun (i, x) -> P.index_of p x = Some i))
    layouts

let arb_pair = QCheck.pair arb_sorted arb_sorted

let prop_inter (a, b) =
  let expect = S.inter a b in
  List.for_all
    (fun la ->
      List.for_all
        (fun lb ->
          let r = P.inter (freeze la a) (freeze lb b) in
          P.to_array r = expect)
        layouts)
    layouts

let prop_inter_many (a, b) =
  let c = Array.of_list (List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list a)) in
  let expect = S.inter (S.inter a b) c in
  List.for_all
    (fun l ->
      let r = P.inter_many [ freeze l a; freeze P.Raw b; freeze l c ] in
      P.to_array r = expect)
    layouts

let prop_codec a =
  List.for_all
    (fun l ->
      let p = freeze l a in
      let buf = Buffer.create 64 in
      P.encode buf p;
      let s = Buffer.contents buf in
      let q, consumed = P.decode s 0 in
      consumed = String.length s && P.equal p q && P.layout q = P.layout p
      && P.to_array q = a)
    layouts

let prop_auto_matches_raw a =
  let p = P.of_array a in
  P.to_array p = a

(* ---------- unit edge cases ---------- *)

let test_empty () =
  Alcotest.(check int) "length" 0 (P.length P.empty);
  Alcotest.(check bool) "mem" false (P.mem P.empty 0);
  Alcotest.(check bool) "next_geq" true (P.next_geq P.empty 0 = None);
  List.iter
    (fun l ->
      let p = freeze l [||] in
      Alcotest.(check bool) "forced empty is Raw" true (P.layout p = P.Raw))
    layouts

let test_unsorted_rejected () =
  Alcotest.check_raises "descending" (Invalid_argument "Posting.of_array: not strictly increasing")
    (fun () -> ignore (P.of_array [| 3; 1 |]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Posting.of_array: not strictly increasing")
    (fun () -> ignore (P.of_array [| 1; 1 |]));
  Alcotest.check_raises "negative" (Invalid_argument "Posting.of_array: negative element")
    (fun () -> ignore (P.of_array [| -1; 1 |]))

let test_aliasing () =
  let a = Array.init 200 (fun i -> i * 3) in
  List.iter
    (fun l ->
      let p = freeze l a in
      let r = P.inter p p in
      Alcotest.(check bool) "self-inter aliases" true (r == p);
      let sub = P.raw [| 0; 3; 6 |] in
      let r = P.inter p sub in
      Alcotest.(check bool) "subset aliases the small side" true (r == sub))
    layouts

let test_unknown_tag () =
  let buf = Buffer.create 8 in
  Buffer.add_char buf '\007';
  Alcotest.check_raises "unknown layout tag"
    (P.Corrupt "unknown posting layout tag 7") (fun () ->
      ignore (P.decode (Buffer.contents buf) 0))

let test_out_of_heap () =
  let a = Array.init 5000 (fun i -> i * 17) in
  Alcotest.(check int) "raw has none" 0 (P.out_of_heap_bytes (freeze P.Raw a));
  Alcotest.(check bool) "ef payload out of heap" true
    (P.out_of_heap_bytes (freeze P.Ef a) > 0);
  Alcotest.(check bool) "ef smaller than raw words" true
    (P.out_of_heap_bytes (freeze P.Ef a) < 8 * 5000);
  Alcotest.(check bool) "blocked payload out of heap" true
    (P.out_of_heap_bytes (freeze P.Blocked a) > 0)

(* Fixed lists of the shapes the layouts are for: a solid run, a
   sparse spread, a run then a spread, and a short list reaching past
   2^40. *)
let golden_arrays =
  [
    Array.init 300 (fun i -> 1000 + i);
    Array.init 200 (fun i -> (7 * i * i) + 3);
    Array.init 400 (fun i -> if i < 200 then i else 5000 + (37 * i));
    [| 5; 9; 1 lsl 40 |];
  ]

(* The wire bytes of [golden_arrays] under each forced layout, pinned by
   digest: a codec change that alters a single byte fails here. The
   snapshot's attribute-index section embeds these bytes. *)
let golden_codec_digests =
  [
    ("raw", P.Raw, "574f2078bdf67611fdcdf3a8c31d74f4");
    ("ef", P.Ef, "cab05eff50ddd42c4399b7cf1af57603");
    ("blocked", P.Blocked, "40b5ae002294bbe8d3843096c6b3ef7e");
  ]

let test_golden_codec () =
  List.iter
    (fun (name, l, digest) ->
      let buf = Buffer.create 4096 in
      List.iter (fun a -> P.encode buf (freeze l a)) golden_arrays;
      Alcotest.(check string) (name ^ ": codec digest") digest
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    golden_codec_digests

(* The one layout rule: under 64 elements Raw, a span of at most six
   times the length Blocked, anything wider Elias-Fano. *)
let test_layout_rule () =
  List.iter
    (fun (what, a, expect) ->
      Alcotest.(check bool) what true (P.layout (P.of_array a) = expect))
    [
      ("63 elements stay Raw", Array.init 63 (fun i -> 1000 * i), P.Raw);
      ("64 contiguous are Blocked", Array.init 64 Fun.id, P.Blocked);
      ("span 6n is Blocked", Array.init 64 (fun i -> if i = 63 then 383 else i), P.Blocked);
      ("span 6n + 1 is Ef", Array.init 64 (fun i -> if i = 63 then 384 else i), P.Ef);
      ("a sparse spread is Ef", Array.init 100 (fun i -> 97 * i), P.Ef);
    ]

let test_dense_run () =
  (* a solid run of consecutive ids: blocked must pick bitset blocks
     and EF must survive a fully dense universe *)
  let a = Array.init 1000 (fun i -> i + 42) in
  List.iter
    (fun l ->
      let p = freeze l a in
      Alcotest.(check bool) "round trip" true (P.to_array p = a);
      Alcotest.(check bool) "mem mid" true (P.mem p 541);
      Alcotest.(check bool) "mem miss" false (P.mem p 41))
    layouts

let suite =
  [
    ( "posting",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "unsorted rejected" `Quick test_unsorted_rejected;
        Alcotest.test_case "aliasing returns" `Quick test_aliasing;
        Alcotest.test_case "unknown layout tag" `Quick test_unknown_tag;
        Alcotest.test_case "out-of-heap accounting" `Quick test_out_of_heap;
        Alcotest.test_case "golden codec digests" `Quick test_golden_codec;
        Alcotest.test_case "one layout rule" `Quick test_layout_rule;
        Alcotest.test_case "dense run" `Quick test_dense_run;
        qtest "decode(freeze) round trip per layout" arb_sorted ~count:300 prop_roundtrip;
        qtest "mem agrees with Sorted_ints" arb_sorted ~count:200 prop_mem;
        qtest "next_geq agrees with linear oracle" arb_sorted ~count:200 prop_next_geq;
        qtest "index_of is the rank" arb_sorted ~count:150 prop_index_of;
        qtest "inter agrees across all layout pairs" arb_pair ~count:150 prop_inter;
        qtest "inter_many agrees" arb_pair ~count:150 prop_inter_many;
        qtest "wire codec round trip" arb_sorted ~count:300 prop_codec;
        qtest "auto policy preserves content" arb_sorted ~count:200 prop_auto_matches_raw;
      ] );
  ]
