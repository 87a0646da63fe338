(* Tests for dictionaries, sorted-set algebra, the multigraph and the
   signature/synopsis machinery of Sections 2 and 4.2. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_arr = Alcotest.(check (array int))

(* --- Dict ----------------------------------------------------------- *)

let test_dict_basics () =
  let d = Mgraph.Dict.create () in
  checki "first id" 0 (Mgraph.Dict.intern d "a");
  checki "second id" 1 (Mgraph.Dict.intern d "b");
  checki "repeat id" 0 (Mgraph.Dict.intern d "a");
  checki "size" 2 (Mgraph.Dict.size d);
  Alcotest.(check string) "inverse" "b" (Mgraph.Dict.value d 1);
  Alcotest.(check (option int)) "find" (Some 1) (Mgraph.Dict.find_opt d "b");
  Alcotest.(check (option int)) "find missing" None (Mgraph.Dict.find_opt d "zz");
  Alcotest.check_raises "bad id"
    (Invalid_argument "Dict.value: unknown id 5 (size 2)") (fun () ->
      ignore (Mgraph.Dict.value d 5))

let test_dict_growth () =
  let d = Mgraph.Dict.create ~initial_capacity:2 () in
  for i = 0 to 999 do
    checki "fresh ids" i (Mgraph.Dict.intern d (string_of_int i))
  done;
  checki "all retained" 1000 (Mgraph.Dict.size d);
  Alcotest.(check string) "deep inverse" "734" (Mgraph.Dict.value d 734);
  let bindings = Mgraph.Dict.to_list d in
  checki "to_list length" 1000 (List.length bindings);
  checkb "id order" true
    (List.for_all2 (fun (_, id) i -> id = i) bindings (List.init 1000 Fun.id))

(* --- Sorted_ints ---------------------------------------------------- *)

let test_sorted_ints_basics () =
  check_arr "of_list sorts+dedups" [| 1; 2; 5 |]
    (Mgraph.Sorted_ints.of_list [ 5; 1; 2; 1; 5 ]);
  checkb "mem hit" true (Mgraph.Sorted_ints.mem [| 1; 3; 9 |] 3);
  checkb "mem miss" false (Mgraph.Sorted_ints.mem [| 1; 3; 9 |] 4);
  checkb "subset yes" true (Mgraph.Sorted_ints.subset [| 1; 9 |] [| 1; 3; 9 |]);
  checkb "subset no" false (Mgraph.Sorted_ints.subset [| 1; 4 |] [| 1; 3; 9 |]);
  checkb "empty subset" true (Mgraph.Sorted_ints.subset [||] [| 1 |]);
  check_arr "inter" [| 3; 7 |] (Mgraph.Sorted_ints.inter [| 1; 3; 7 |] [| 3; 7; 9 |]);
  check_arr "union" [| 1; 3; 7; 9 |] (Mgraph.Sorted_ints.union [| 1; 7 |] [| 3; 9 |]);
  check_arr "diff" [| 1 |] (Mgraph.Sorted_ints.diff [| 1; 3; 7 |] [| 3; 7; 9 |])

let arb_int_list = QCheck.(list_of_size (Gen.int_range 0 40) (int_range 0 30))

module IS = Set.Make (Int)

let set_of l = IS.of_list l
let arr_to_set a = IS.of_list (Array.to_list a)

let prop_inter =
  QCheck.Test.make ~name:"inter agrees with Set.inter" ~count:300
    (QCheck.pair arb_int_list arb_int_list) (fun (a, b) ->
      let got =
        arr_to_set
          (Mgraph.Sorted_ints.inter
             (Mgraph.Sorted_ints.of_list a)
             (Mgraph.Sorted_ints.of_list b))
      in
      IS.equal got (IS.inter (set_of a) (set_of b)))

let prop_union =
  QCheck.Test.make ~name:"union agrees with Set.union" ~count:300
    (QCheck.pair arb_int_list arb_int_list) (fun (a, b) ->
      IS.equal
        (arr_to_set
           (Mgraph.Sorted_ints.union
              (Mgraph.Sorted_ints.of_list a)
              (Mgraph.Sorted_ints.of_list b)))
        (IS.union (set_of a) (set_of b)))

let prop_diff =
  QCheck.Test.make ~name:"diff agrees with Set.diff" ~count:300
    (QCheck.pair arb_int_list arb_int_list) (fun (a, b) ->
      IS.equal
        (arr_to_set
           (Mgraph.Sorted_ints.diff
              (Mgraph.Sorted_ints.of_list a)
              (Mgraph.Sorted_ints.of_list b)))
        (IS.diff (set_of a) (set_of b)))

let prop_subset =
  QCheck.Test.make ~name:"subset agrees with Set.subset" ~count:300
    (QCheck.pair arb_int_list arb_int_list) (fun (a, b) ->
      Bool.equal
        (Mgraph.Sorted_ints.subset
           (Mgraph.Sorted_ints.of_list a)
           (Mgraph.Sorted_ints.of_list b))
        (IS.subset (set_of a) (set_of b)))

let prop_sorted =
  QCheck.Test.make ~name:"of_list output is strictly increasing" ~count:300
    arb_int_list (fun l ->
      Mgraph.Sorted_ints.is_sorted (Mgraph.Sorted_ints.of_list l))

(* --- Multigraph ------------------------------------------------------ *)

let small_graph () =
  let b = Mgraph.Multigraph.Builder.create () in
  (* 0 -t0,t2-> 1, 1 -t1-> 0, 0 -t0-> 2, attribute a0 on 2, loop on 3 *)
  Mgraph.Multigraph.Builder.add_edge b 0 0 1;
  Mgraph.Multigraph.Builder.add_edge b 0 2 1;
  Mgraph.Multigraph.Builder.add_edge b 0 2 1 (* duplicate, idempotent *);
  Mgraph.Multigraph.Builder.add_edge b 1 1 0;
  Mgraph.Multigraph.Builder.add_edge b 0 0 2;
  Mgraph.Multigraph.Builder.add_attribute b 2 0;
  Mgraph.Multigraph.Builder.add_edge b 3 1 3;
  Mgraph.Multigraph.Builder.build b

let test_multigraph_counts () =
  let g = small_graph () in
  checki "vertices" 4 (Mgraph.Multigraph.vertex_count g);
  checki "edge types" 3 (Mgraph.Multigraph.edge_type_count g);
  checki "multi-edges" 4 (Mgraph.Multigraph.multi_edge_count g);
  checki "atomic edges" 5 (Mgraph.Multigraph.triple_edge_count g)

let test_multigraph_adjacency () =
  let g = small_graph () in
  check_arr "multi-edge 0->1" [| 0; 2 |] (Mgraph.Multigraph.edge_types_between g 0 1);
  check_arr "multi-edge 1->0" [| 1 |] (Mgraph.Multigraph.edge_types_between g 1 0);
  check_arr "absent edge" [||] (Mgraph.Multigraph.edge_types_between g 2 0);
  checkb "has_edge yes" true (Mgraph.Multigraph.has_edge g 0 2 1);
  checkb "has_edge wrong type" false (Mgraph.Multigraph.has_edge g 0 1 1);
  check_arr "self loop" [| 1 |] (Mgraph.Multigraph.edge_types_between g 3 3);
  let out0 = Mgraph.Multigraph.adjacency g Mgraph.Multigraph.Out 0 in
  checki "out neighbours of 0" 2 (Array.length out0);
  let in1 = Mgraph.Multigraph.adjacency g Mgraph.Multigraph.In 1 in
  checki "in neighbours of 1" 1 (Array.length in1)

let test_multigraph_degree () =
  let g = small_graph () in
  (* 0 touches 1 (both directions) and 2: distinct neighbours = 2. *)
  checki "degree merges directions" 2 (Mgraph.Multigraph.degree g 0);
  checki "degree of satellite-like" 1 (Mgraph.Multigraph.degree g 2);
  checki "self loop counts once" 1 (Mgraph.Multigraph.degree g 3)

let test_multigraph_attributes () =
  let g = small_graph () in
  check_arr "attrs of 2" [| 0 |] (Mgraph.Multigraph.attributes g 2);
  check_arr "no attrs" [||] (Mgraph.Multigraph.attributes g 0);
  Alcotest.check_raises "vertex out of range"
    (Invalid_argument "Multigraph: vertex 9 out of range") (fun () ->
      ignore (Mgraph.Multigraph.attributes g 9))

let test_multigraph_fold_edges () =
  let g = small_graph () in
  let total =
    Mgraph.Multigraph.fold_edges (fun _ tys _ acc -> acc + Array.length tys) g 0
  in
  checki "fold sees all atomic edges" 5 total

(* --- Signature & Synopsis (paper Table 3 semantics) ----------------- *)

let paper_db () = Amber.Database.of_triples Fixtures.paper_triples

let vertex db name =
  match
    Amber.Database.vertex_of_term db
      (Rdf.Term.iri ("http://dbpedia.org/resource/" ^ name))
  with
  | Some v -> v
  | None -> Alcotest.failf "vertex %s missing" name

let test_synopsis_london () =
  let db = paper_db () in
  let g = Amber.Database.graph db in
  let syn = Mgraph.Synopsis.of_vertex g (vertex db "London") in
  (* Incoming: {hasCapital}, {wasBornIn}, {wasBornIn,diedIn}, {wasFormedIn}
     Outgoing: {isPartOf}, {hasStadium} — with edge types interned in
     first-use order: isPartOf=0 hasCapital=1 wasBornIn=2 livedIn=3
     hasStadium=4 diedIn=5 wasPartOf=6 wasFormedIn=7 wasMarriedTo=8. *)
  check_arr "london synopsis" [| 2; 4; -1; 7; 1; 2; 0; 4 |] syn

let test_synopsis_amy () =
  let db = paper_db () in
  let g = Amber.Database.graph db in
  let syn = Mgraph.Synopsis.of_vertex g (vertex db "Amy_Winehouse") in
  check_arr "amy synopsis"
    [| 0; 0; Mgraph.Synopsis.f3_empty; 0; 2; 5; -2; 8 |]
    syn

let test_synopsis_dominates_prunes () =
  let db = paper_db () in
  let g = Amber.Database.graph db in
  (* Query vertex u0 with a single outgoing wasBornIn edge (type 2). *)
  let query =
    Mgraph.Synopsis.of_signature
      (Mgraph.Signature.make ~incoming:[] ~outgoing:[ [| 2 |] ])
  in
  let dominates name expected =
    checkb name expected
      (Mgraph.Synopsis.dominates
         ~data:(Mgraph.Synopsis.of_vertex g (vertex db name))
         ~query)
  in
  dominates "Amy_Winehouse" true;
  dominates "Christopher_Nolan" true;
  (* Blake's only outgoing type is livedIn=3 > wasBornIn=2: pruned by f3. *)
  dominates "Blake_Fielder-Civil" false;
  (* England's single outgoing type hasCapital=1 < 2: pruned by f4. *)
  dominates "England" false;
  (* London (outgoing isPartOf=0, hasStadium=4) is a synopsis false
     positive — its [min,max] type range covers 2. Lemma 1 only promises
     no false negatives. *)
  dominates "London" true

let test_signature_sides () =
  let db = paper_db () in
  let g = Amber.Database.graph db in
  let s = Mgraph.Signature.of_vertex g (vertex db "Amy_Winehouse") in
  checki "no incoming" 0 (List.length s.Mgraph.Signature.incoming);
  checki "four outgoing multi-edges" 4 (List.length s.Mgraph.Signature.outgoing);
  let max_card =
    List.fold_left (fun m a -> max m (Array.length a)) 0 s.Mgraph.Signature.outgoing
  in
  checki "largest multi-edge" 2 max_card

let test_synopsis_empty_vertex () =
  let b = Mgraph.Multigraph.Builder.create () in
  Mgraph.Multigraph.Builder.add_vertex b 0;
  let g = Mgraph.Multigraph.Builder.build b in
  let e = Mgraph.Synopsis.f3_empty in
  check_arr "edgeless synopsis" [| 0; 0; e; 0; 0; 0; e; 0 |]
    (Mgraph.Synopsis.of_vertex g 0)

(* Lemma 1: every true candidate survives synopsis pruning. A data vertex
   that structurally embeds the query vertex's signature (superset of
   multi-edges) must dominate its synopsis. *)
let prop_lemma1 =
  let gen =
    QCheck.Gen.(
      let multi_edge = map Mgraph.Sorted_ints.of_list (list_size (int_range 1 3) (int_range 0 9)) in
      pair (list_size (int_range 0 4) multi_edge) (list_size (int_range 0 4) multi_edge))
  in
  QCheck.Test.make ~name:"lemma 1: signature containment implies domination"
    ~count:500 (QCheck.make gen) (fun (incoming, outgoing) ->
      let query_syn =
        Mgraph.Synopsis.of_signature (Mgraph.Signature.make ~incoming ~outgoing)
      in
      (* A data vertex whose signature is a superset (the query's
         multi-edges, one of them widened, plus extra multi-edges) must
         dominate the query synopsis. *)
      let widen = function
        | [] -> [ [| 0; 9 |] ]
        | first :: rest -> Mgraph.Sorted_ints.union first [| 0; 9 |] :: rest
      in
      let data_syn =
        Mgraph.Synopsis.of_signature
          (Mgraph.Signature.make
             ~incoming:(widen incoming @ [ [| 0; 9 |] ])
             ~outgoing:(widen outgoing @ [ [| 0; 9 |] ]))
      in
      Mgraph.Synopsis.dominates ~data:data_syn ~query:query_syn)

(* --- The packer against a set reference --------------------------- *)

type builder_op = Edge of int * int * int | Attr of int * int | Vertex of int

module Edge_set = Set.Make (struct
  type t = int * int * int

  let compare = compare
end)

module Attr_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* Kinds of input the property met: a repeated edge or attribute, a
   self-loop, a multi-type edge, an attribute-only vertex, an
   [add_vertex]-only vertex, and the neighbour lists that freeze
   compressed. *)
let builder_kinds = Array.make 7 0
let builder_kind_names =
  [|
    "duplicate"; "self-loop"; "multi-type edge"; "attribute-only vertex";
    "add_vertex-only vertex"; "Blocked neighbour list"; "Ef neighbour list";
  |]

let gen_builder_ops =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    let op =
      frequency
        [
          (6, map3 (fun v t v' -> Edge (v, t, v')) (int_bound (n - 1)) (int_bound 3) (int_bound (n - 1)));
          (* Ids past the edges' range are attribute- or add_vertex-only. *)
          (3, map2 (fun v a -> Attr (v, a)) (int_bound (n + 2)) (int_bound 4));
          (1, map (fun v -> Vertex v) (int_bound (n + 2)));
        ]
    in
    list_size (int_bound 50) op >>= fun ops ->
    (* Replay a prefix, so that every size of input can repeat itself. *)
    int_bound (List.length ops) >>= fun k ->
    (* Sometimes a hub: vertex 0 linked, in one direction, to 64-80
       vertices one id apart (a Blocked list) or eight apart (an
       Elias-Fano list). Every other list is too short to leave Raw. *)
    frequency
      [
        (2, return []);
        ( 1,
          map3
            (fun count stride out ->
              List.init count (fun i ->
                  if out then Edge (0, 1, stride * i) else Edge (stride * i, 1, 0)))
            (int_range 64 80) (oneofl [ 1; 8 ]) bool );
      ]
    >|= fun hub -> ops @ List.filteri (fun i _ -> i < k) ops @ hub)

let print_builder_ops ops =
  String.concat "; "
    (List.map
       (function
         | Edge (v, t, v') -> Printf.sprintf "%d-%d->%d" v t v'
         | Attr (v, a) -> Printf.sprintf "%d@%d" v a
         | Vertex v -> Printf.sprintf "v%d" v)
       ops)

(* [Builder.build] against the plain sets it must denote: every count,
   every adjacency list in both directions, every attribute set, and the
   layout each neighbour list froze under ({!Mgraph.Posting.of_array}'s
   rule). *)
let prop_builder_is_set_reference =
  QCheck.Test.make ~name:"Builder.build = set reference" ~count:500
    (QCheck.make ~print:print_builder_ops gen_builder_ops)
    (fun ops ->
      let module MG = Mgraph.Multigraph in
      let b = MG.Builder.create ~vertex_hint:1 () in
      let edges = ref Edge_set.empty and attrs = ref Attr_set.empty in
      let top = ref (-1) and plain = ref [] in
      let note kind = builder_kinds.(kind) <- builder_kinds.(kind) + 1 in
      List.iter
        (fun op ->
          match op with
          | Edge (v, t, v') ->
              if Edge_set.mem (v, t, v') !edges then note 0;
              edges := Edge_set.add (v, t, v') !edges;
              top := max !top (max v v');
              MG.Builder.add_edge b v t v'
          | Attr (v, a) ->
              if Attr_set.mem (v, a) !attrs then note 0;
              attrs := Attr_set.add (v, a) !attrs;
              top := max !top v;
              MG.Builder.add_attribute b v a
          | Vertex v ->
              plain := v :: !plain;
              top := max !top v;
              MG.Builder.add_vertex b v)
        ops;
      let g = MG.Builder.build b in
      let n = !top + 1 in
      let es = Edge_set.elements !edges in
      let out_of v =
        List.sort_uniq compare
          (List.filter_map (fun (s, _, o) -> if s = v then Some o else None) es)
        |> List.map (fun o ->
               ( o,
                 Array.of_list
                   (List.filter_map
                      (fun (s, t, o') -> if s = v && o' = o then Some t else None)
                      es) ))
        |> Array.of_list
      in
      let in_of v =
        List.sort_uniq compare
          (List.filter_map (fun (s, _, o) -> if o = v then Some s else None) es)
        |> List.map (fun s ->
               ( s,
                 Array.of_list
                   (List.filter_map
                      (fun (s', t, o) -> if s' = s && o = v then Some t else None)
                      es) ))
        |> Array.of_list
      in
      let attrs_of v =
        Array.of_list
          (List.filter_map
             (fun (u, a) -> if u = v then Some a else None)
             (Attr_set.elements !attrs))
      in
      let pairs = List.sort_uniq compare (List.map (fun (s, _, o) -> (s, o)) es) in
      let layout_ok posting ids =
        (match Mgraph.Posting.layout posting with
        | Mgraph.Posting.Blocked -> note 5
        | Mgraph.Posting.Ef -> note 6
        | Mgraph.Posting.Raw -> ());
        Array.length ids = 0
        || Mgraph.Posting.layout posting
           = Mgraph.Posting.layout (Mgraph.Posting.of_array ids)
      in
      let ok = ref true in
      let expect what cond =
        if not cond then ok := QCheck.Test.fail_reportf "%s" what
      in
      expect "vertex count" (MG.vertex_count g = n);
      expect "atomic edges" (MG.triple_edge_count g = List.length es);
      expect "multi-edges" (MG.multi_edge_count g = List.length pairs);
      expect "edge types"
        (MG.edge_type_count g
        = List.fold_left (fun m (_, t, _) -> max m (t + 1)) 0 es);
      for v = 0 to n - 1 do
        let out = out_of v and inn = in_of v and av = attrs_of v in
        if Array.exists (fun (o, _) -> o = v) out then note 1;
        if Array.exists (fun (_, tys) -> Array.length tys > 1) out then note 2;
        if out = [||] && inn = [||] && av <> [||] then note 3;
        if out = [||] && inn = [||] && av = [||] && List.mem v !plain then note 4;
        expect (Printf.sprintf "out-adjacency of %d" v) (MG.adjacency g MG.Out v = out);
        expect (Printf.sprintf "in-adjacency of %d" v) (MG.adjacency g MG.In v = inn);
        expect (Printf.sprintf "attributes of %d" v) (MG.attributes g v = av);
        expect
          (Printf.sprintf "neighbour layouts of %d" v)
          (layout_ok (MG.neighbours g MG.Out v) (Array.map fst out)
          && layout_ok (MG.neighbours g MG.In v) (Array.map fst inn))
      done;
      !ok)

(* [of_csr] packs what [Builder.build] packs from the same sets, and
   rejects each kind of malformed array with [Invalid_argument]. *)
let test_of_csr () =
  let module MG = Mgraph.Multigraph in
  (* 0 -> 1 {0, 2}, 0 -> 2 {1}, 2 -> 2 {0}; vertex 1 carries {3; 5}. *)
  let offs = [| 0; 2; 2; 3 |] and nbrs = [| 1; 2; 2 |] in
  let toffs = [| 0; 2; 3; 4 |] and tys = [| 0; 2; 1; 0 |] in
  let aoffs = [| 0; 0; 2; 2 |] and apool = [| 3; 5 |] in
  let g = MG.of_csr ~offs ~nbrs ~toffs ~tys ~aoffs ~apool () in
  let b = MG.Builder.create () in
  List.iter (fun (v, t, w) -> MG.Builder.add_edge b v t w)
    [ (0, 0, 1); (0, 2, 1); (0, 1, 2); (2, 0, 2) ];
  List.iter (MG.Builder.add_attribute b 1) [ 3; 5 ];
  let built = MG.Builder.build b in
  for v = 0 to 2 do
    List.iter
      (fun dir ->
        checkb (Printf.sprintf "adjacency of %d" v) true
          (MG.adjacency g dir v = MG.adjacency built dir v))
      [ MG.Out; MG.In ];
    checkb (Printf.sprintf "attributes of %d" v) true
      (MG.attributes g v = MG.attributes built v)
  done;
  checki "atomic edges" 4 (MG.triple_edge_count g);
  let rejects name ?(offs = offs) ?(nbrs = nbrs) ?(toffs = toffs) ?(tys = tys)
      ?(aoffs = aoffs) ?(apool = apool) () =
    checkb name true
      (match MG.of_csr ~offs ~nbrs ~toffs ~tys ~aoffs ~apool () with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "neighbour out of range" ~nbrs:[| 1; 3; 2 |] ();
  rejects "neighbours not increasing" ~nbrs:[| 2; 1; 2 |] ();
  rejects "empty multi-edge" ~toffs:[| 0; 2; 2; 4 |] ();
  rejects "types not increasing" ~tys:[| 2; 0; 1; 0 |] ();
  rejects "negative type" ~tys:[| -1; 2; 1; 0 |] ();
  rejects "attributes not increasing" ~apool:[| 5; 3 |] ();
  rejects "offsets past the pool" ~offs:[| 0; 2; 2; 4 |] ();
  rejects "decreasing offsets" ~aoffs:[| 0; 2; 1; 2 |] ();
  rejects "attribute offsets of another vertex count" ~aoffs:[| 0; 2 |] ();
  rejects "type offsets of another multi-edge count" ~toffs:[| 0; 2; 3 |] ~tys:[| 0; 2; 1 |] ()

let test_builder_coverage () =
  Array.iteri
    (fun k name ->
      checkb
        (Printf.sprintf "%s met %d times (>= 20)" name builder_kinds.(k))
        true
        (builder_kinds.(k) >= 20))
    builder_kind_names

let suite =
  [
    ( "mgraph.dict",
      [
        Alcotest.test_case "basics" `Quick test_dict_basics;
        Alcotest.test_case "growth and inverse" `Quick test_dict_growth;
      ] );
    ( "mgraph.sorted_ints",
      [
        Alcotest.test_case "basics" `Quick test_sorted_ints_basics;
        QCheck_alcotest.to_alcotest prop_inter;
        QCheck_alcotest.to_alcotest prop_union;
        QCheck_alcotest.to_alcotest prop_diff;
        QCheck_alcotest.to_alcotest prop_subset;
        QCheck_alcotest.to_alcotest prop_sorted;
      ] );
    ( "mgraph.multigraph",
      [
        Alcotest.test_case "counts" `Quick test_multigraph_counts;
        Alcotest.test_case "adjacency" `Quick test_multigraph_adjacency;
        Alcotest.test_case "degree" `Quick test_multigraph_degree;
        Alcotest.test_case "attributes" `Quick test_multigraph_attributes;
        Alcotest.test_case "fold_edges" `Quick test_multigraph_fold_edges;
        QCheck_alcotest.to_alcotest prop_builder_is_set_reference;
        Alcotest.test_case "builder coverage" `Quick test_builder_coverage;
        Alcotest.test_case "of_csr checks its arrays" `Quick test_of_csr;
      ] );
    ( "mgraph.synopsis",
      [
        Alcotest.test_case "london row" `Quick test_synopsis_london;
        Alcotest.test_case "amy row" `Quick test_synopsis_amy;
        Alcotest.test_case "domination pruning" `Quick test_synopsis_dominates_prunes;
        Alcotest.test_case "signature sides" `Quick test_signature_sides;
        Alcotest.test_case "edgeless vertex" `Quick test_synopsis_empty_vertex;
        QCheck_alcotest.to_alcotest prop_lemma1;
      ] );
  ]
