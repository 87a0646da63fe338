(* R-tree tests: invariants after bulk load, and containment search
   agreement with a linear scan on random rectangle sets. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let rect lo hi = Rect.make ~lo ~hi

let test_rect_basics () =
  let r = rect [| 0; 0 |] [| 4; 6 |] in
  checkb "contains inner" true (Rect.contains r (rect [| 1; 1 |] [| 2; 2 |]));
  checkb "contains itself" true (Rect.contains r r);
  checkb "not contains overlap" false
    (Rect.contains r (rect [| 3; 3 |] [| 5; 5 |]));
  checkb "equal itself" true (Rect.equal r (rect [| 0; 0 |] [| 4; 6 |]));
  checkb "not equal" false (Rect.equal r (rect [| 0; 0 |] [| 4; 5 |]))

let test_rect_validation () =
  Alcotest.check_raises "lo > hi rejected"
    (Invalid_argument "Rect.make: lo.(0) = 3 > hi.(0) = 1") (fun () ->
      ignore (rect [| 3 |] [| 1 |]));
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Rect.make: dimension mismatch") (fun () ->
      ignore (rect [| 1; 2 |] [| 3 |]))

let random_rects rng n dims span =
  List.init n (fun i ->
      let lo = Array.init dims (fun _ -> Datagen.Prng.int rng span - (span / 2)) in
      let hi = Array.init dims (fun d -> lo.(d) + Datagen.Prng.int rng span) in
      (rect lo hi, i))

let test_bulk_load_invariants () =
  let rng = Datagen.Prng.create 3 in
  List.iter
    (fun n ->
      let entries = random_rects rng n 8 20 in
      let t = Rtree.bulk_load ~max_entries:8 entries in
      checki (Printf.sprintf "size %d" n) n (Rtree.size t);
      match Rtree.check_invariants t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invariants broken at n=%d: %s" n e)
    [ 0; 1; 7; 8; 9; 64; 257; 1000 ]

let linear_containing entries q =
  List.filter_map (fun (r, v) -> if Rect.contains r q then Some v else None) entries

let prop_search_agreement =
  QCheck.Test.make ~name:"tree searches agree with linear scan" ~count:60
    (QCheck.make QCheck.Gen.(pair (int_range 0 300) int))
    (fun (n, seed) ->
      let rng = Datagen.Prng.create seed in
      let entries = random_rects rng n 5 12 in
      let bulk = Rtree.bulk_load ~max_entries:5 entries in
      let queries = List.map fst (random_rects rng 20 5 12) in
      List.for_all
        (fun q ->
          List.sort compare (Rtree.fold_containing q List.cons bulk [])
          = List.sort compare (linear_containing entries q))
        queries)

(* Every entry contains its own rectangle, so probing each one reaches
   every stored value. *)
let test_every_entry_reachable () =
  let rng = Datagen.Prng.create 9 in
  let entries = random_rects rng 50 3 10 in
  let t = Rtree.bulk_load entries in
  checkb "all values present" true
    (List.for_all
       (fun (r, v) -> List.mem v (Rtree.fold_containing r List.cons t []))
       entries)

let suite =
  [
    ( "rtree.rect",
      [
        Alcotest.test_case "basics" `Quick test_rect_basics;
        Alcotest.test_case "validation" `Quick test_rect_validation;
      ] );
    ( "rtree.tree",
      [
        Alcotest.test_case "bulk load invariants" `Quick test_bulk_load_invariants;
        Alcotest.test_case "entries reachable" `Quick test_every_entry_reachable;
        QCheck_alcotest.to_alcotest prop_search_agreement;
      ] );
  ]
