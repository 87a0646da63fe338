(* Delta overlay and live engine tests: overlays, compiled at once or
   chained one batch at a time, answer exactly like an engine rebuilt
   from the merged world (and like the brute-force oracle), chained
   overlays share untouched patches without mutating them, epochs give
   snapshot isolation under writes and compactions,
   the live directory survives crashes mid-compaction, and every
   single-byte manifest corruption is rejected. *)

module Reference = Baselines.Reference_eval
module TSet = Set.Make (Rdf.Triple)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let canonical engine ast =
  Reference.canonical_rows (Amber.Engine.query engine ast).Amber.Engine.rows

let d n = "http://d/" ^ n
let spo s p o = Rdf.Triple.spo (d s) (d p) (Rdf.Term.iri (d o))
let att s p w = Rdf.Triple.spo (d s) (d p) (Rdf.Term.literal w)

(* The delta's merged-world semantics, replayed on plain triple sets:
   deletions first, then insertions. *)
let merged_world base ~adds ~dels =
  TSet.elements
    (TSet.union (TSet.of_list adds)
       (TSet.diff (TSet.of_list base) (TSet.of_list dels)))

(* Workload queries carved out of [merged] itself, each answered by the
   overlay engine and checked against the brute-force oracle. *)
let check_oracle ?(seed = 11) label merged engine =
  let corpus = Datagen.Workload.corpus merged in
  let queries =
    Datagen.Workload.generate ~seed corpus ~shape:Datagen.Workload.Star ~size:2
      ~count:2
    @ Datagen.Workload.generate ~seed:(seed + 77) corpus
        ~shape:Datagen.Workload.Complex ~size:3 ~count:2
  in
  checkb (label ^ ": workload is non-empty") true (queries <> []);
  List.iteri
    (fun i ast ->
      checkb
        (Printf.sprintf "%s: query %d matches oracle" label i)
        true
        (canonical engine ast = Reference.canonical_answer merged ast))
    queries

let base_triples =
  [
    spo "e0" "p0" "e1";
    spo "e1" "p0" "e2";
    spo "e2" "p1" "e0";
    spo "e0" "p1" "e2";
    spo "e3" "p0" "e0";
    att "e0" "lp0" "w0";
    att "e2" "lp0" "w1";
    att "e3" "lp1" "w0";
  ]

let q text = Sparql.Parser.parse text

let probe_query =
  q (Printf.sprintf "SELECT ?x ?y WHERE { ?x <%s> ?y . }" (d "p0"))

(* --- compile correctness ------------------------------------------------ *)

(* One batch that exercises every id-allocation path: existing vertices,
   a new subject, a new object, a new predicate, a new attribute value
   and a new attribute predicate — plus deletions of an edge, an
   attribute, and a triple the base never held (a compile-time no-op). *)
let test_insert_and_delete () =
  let base = Amber.Engine.build base_triples in
  let adds =
    [
      spo "e1" "p1" "e3";
      spo "e4" "p0" "e1";
      spo "e2" "p9" "e5";
      att "e1" "lp0" "w2";
      att "e4" "lp9" "w0";
    ]
  in
  let dels = [ spo "e0" "p0" "e1"; att "e2" "lp0" "w1"; spo "e7" "p0" "e0" ] in
  let delta = Amber.Delta.apply Amber.Delta.empty ~adds ~dels in
  let overlay = Amber.Delta.compile base delta in
  let merged = merged_world base_triples ~adds ~dels in
  checki "exact merged triple count" (List.length merged)
    (Amber.Database.triple_count (Amber.Engine.db overlay));
  checkb "probe answers changed" true
    (canonical overlay probe_query <> canonical base probe_query);
  check_oracle "insert+delete" merged overlay;
  (* The overlay must also agree with a from-scratch rebuild. *)
  let rebuilt = Amber.Engine.build merged in
  checkb "overlay = rebuilt on the probe" true
    (canonical overlay probe_query = canonical rebuilt probe_query)

let test_cancellation () =
  let t = spo "e0" "p9" "e9" in
  let delta = Amber.Delta.remove (Amber.Delta.insert Amber.Delta.empty t) t in
  checki "insert then remove cancels the add" 0 (Amber.Delta.add_count delta);
  checki "…leaving only the del" 1 (Amber.Delta.del_count delta);
  let delta = Amber.Delta.insert (Amber.Delta.remove Amber.Delta.empty t) t in
  checki "remove then insert leaves one add" 1 (Amber.Delta.add_count delta);
  checki "…and no del" 0 (Amber.Delta.del_count delta);
  (* Deleting a base triple and re-adding it restores the base world. *)
  let b0 = List.hd base_triples in
  let base = Amber.Engine.build base_triples in
  let roundtrip =
    Amber.Delta.insert (Amber.Delta.remove Amber.Delta.empty b0) b0
  in
  let overlay = Amber.Delta.compile base roundtrip in
  checki "triple count restored" (List.length base_triples)
    (Amber.Database.triple_count (Amber.Engine.db overlay));
  checkb "answers restored" true
    (canonical overlay probe_query = canonical base probe_query)

let test_delete_everything () =
  let base = Amber.Engine.build base_triples in
  let delta =
    Amber.Delta.apply Amber.Delta.empty ~adds:[] ~dels:base_triples
  in
  let overlay = Amber.Delta.compile base delta in
  checki "empty world" 0 (Amber.Database.triple_count (Amber.Engine.db overlay));
  checki "no rows" 0
    (List.length (Amber.Engine.query overlay probe_query).Amber.Engine.rows)

(* --- randomized overlay differential ------------------------------------ *)

(* Random small base (deduplicated, so triple counts are exact), salted
   differently from the other suites' generators. *)
let random_base seed =
  let rng = Datagen.Prng.create (0xd317a + seed) in
  let n = 8 + Datagen.Prng.int rng 12 in
  let triples = ref [] in
  for _ = 1 to 20 + Datagen.Prng.int rng 40 do
    triples :=
      spo
        (Printf.sprintf "e%d" (Datagen.Prng.int rng n))
        (Printf.sprintf "p%d" (Datagen.Prng.int rng 4))
        (Printf.sprintf "e%d" (Datagen.Prng.int rng n))
      :: !triples
  done;
  for v = 0 to n - 1 do
    if Datagen.Prng.bool rng 0.5 then
      triples :=
        att
          (Printf.sprintf "e%d" v)
          (Printf.sprintf "lp%d" (Datagen.Prng.int rng 2))
          (Printf.sprintf "w%d" (Datagen.Prng.int rng 3))
        :: !triples
  done;
  (n, TSet.elements (TSet.of_list !triples))

(* A random write batch over (and beyond) the base vocabulary: edges and
   attributes on existing vertices, brand-new vertices and predicates,
   deletions sampled from the base plus some that miss. *)
let random_batch rng n base =
  let base_arr = Array.of_list base in
  let v () = Printf.sprintf "e%d" (Datagen.Prng.int rng (n + 4)) in
  let adds = ref [] in
  for _ = 1 to 2 + Datagen.Prng.int rng 8 do
    adds :=
      (if Datagen.Prng.bool rng 0.75 then
         spo (v ()) (Printf.sprintf "p%d" (Datagen.Prng.int rng 6)) (v ())
       else
         att (v ())
           (Printf.sprintf "lp%d" (Datagen.Prng.int rng 3))
           (Printf.sprintf "w%d" (Datagen.Prng.int rng 4)))
      :: !adds
  done;
  let dels = ref [] in
  for _ = 1 to Datagen.Prng.int rng 6 do
    dels :=
      (if Datagen.Prng.bool rng 0.7 && Array.length base_arr > 0 then
         base_arr.(Datagen.Prng.int rng (Array.length base_arr))
       else spo (v ()) (Printf.sprintf "p%d" (Datagen.Prng.int rng 6)) (v ()))
      :: !dels
  done;
  (!adds, !dels)

let queries_for seed triples =
  let corpus = Datagen.Workload.corpus triples in
  Datagen.Workload.generate ~seed corpus ~shape:Datagen.Workload.Star ~size:2
    ~count:2
  @ Datagen.Workload.generate ~seed:(seed + 300) corpus
      ~shape:Datagen.Workload.Complex ~size:3 ~count:2

let overlay_cases_checked = ref 0

(* Two cumulative batches per seed: compile the first delta, then extend
   it and recompile from the same frozen base — the one-step path that
   [Live_engine.open_dir] takes. The chained path, one layer patched per
   published batch, is checked by the next property. *)
let prop_overlay_differential =
  QCheck.Test.make ~name:"compiled overlay = rebuilt engine = oracle"
    ~count:40
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed %d" seed)
       ~shrink:QCheck.Shrink.int
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let n, base = random_base seed in
      let rng = Datagen.Prng.create (0xba7c4 + seed) in
      let engine = Amber.Engine.build base in
      let delta = ref Amber.Delta.empty in
      let world = ref base in
      let ok = ref true in
      for step = 0 to 1 do
        let adds, dels = random_batch rng n !world in
        delta := Amber.Delta.apply !delta ~adds ~dels;
        world := merged_world !world ~adds ~dels;
        let overlay = Amber.Delta.compile engine !delta in
        let got = Amber.Database.triple_count (Amber.Engine.db overlay) in
        if got <> List.length !world then
          ok :=
            Qseed.fail_reportf
              "seed %d step %d: overlay triple count %d, merged world has %d"
              seed step got (List.length !world);
        let rebuilt = Amber.Engine.build !world in
        List.iter
          (fun ast ->
            incr overlay_cases_checked;
            let expected = Reference.canonical_answer !world ast in
            let got = canonical overlay ast in
            if got <> expected then
              ok :=
                Qseed.fail_reportf
                  "seed %d step %d: overlay disagrees with oracle (%d vs %d \
                   rows) on:@.%s"
                  seed step (List.length got) (List.length expected)
                  (Sparql.Ast.to_string ast)
            else if canonical rebuilt ast <> expected then
              ok :=
                Qseed.fail_reportf
                  "seed %d step %d: rebuilt engine disagrees with oracle \
                   on:@.%s"
                  seed step (Sparql.Ast.to_string ast))
          (queries_for (seed + step) !world)
      done;
      !ok)

(* --- the neighbourhood index over packed and overlay graphs -------------- *)

module MG = Mgraph.Multigraph

let neighbourhood_probes_checked = ref 0
let neighbourhood_zero_copy_hubs = ref 0

(* Probe every vertex of [engine] in both directions with 1–3-type sets
   (random ones, subsets of one neighbour's multi-edge, and the types
   every neighbour shares) and compare with a filter over
   [MG.adjacency]. When every neighbour qualifies, the answer must be
   the resident neighbour posting itself. *)
let check_neighbourhood rng label engine =
  let g = Amber.Database.graph (Amber.Engine.db engine) in
  let idx = Amber.Engine.neighbourhood_index engine in
  let types_n = max 1 (MG.edge_type_count g) in
  let random_types () =
    Mgraph.Sorted_ints.of_list
      (List.init (1 + Datagen.Prng.int rng 3) (fun _ -> Datagen.Prng.int rng types_n))
  in
  let ok = ref true in
  for v = 0 to MG.vertex_count g - 1 do
    List.iter
      (fun dir ->
        let adj = MG.adjacency g dir v in
        let shared =
          Array.fold_left
            (fun acc (_, tys) -> Mgraph.Sorted_ints.inter acc tys)
            (if adj = [||] then [||] else snd adj.(0))
            adj
        in
        let from_neighbour () =
          let tys = snd adj.(Datagen.Prng.int rng (Array.length adj)) in
          Mgraph.Sorted_ints.of_list
            (List.init
               (1 + Datagen.Prng.int rng (min 3 (Array.length tys)))
               (fun _ -> tys.(Datagen.Prng.int rng (Array.length tys))))
        in
        let probes =
          random_types ()
          :: (if adj = [||] then [] else [ from_neighbour () ])
          @ if shared = [||] then []
            else [ Array.sub shared 0 (min 3 (Array.length shared)) ]
        in
        List.iter
          (fun types ->
            incr neighbourhood_probes_checked;
            let expected =
              Array.of_list
                (List.filter_map
                   (fun (u, tys) ->
                     if Mgraph.Sorted_ints.subset types tys then Some u else None)
                   (Array.to_list adj))
            in
            let got = Amber.Neighbourhood_index.neighbours idx v dir types in
            if Mgraph.Posting.to_array got <> expected then
              ok :=
                Qseed.fail_reportf "%s: vertex %d probe [%s] disagrees with adjacency"
                  label v
                  (String.concat ";" (List.map string_of_int (Array.to_list types)))
            else if Array.length expected = Array.length adj then begin
              if Array.length adj >= 4 then incr neighbourhood_zero_copy_hubs;
              if got != MG.neighbours g dir v then
                ok :=
                  Qseed.fail_reportf
                    "%s: vertex %d: every neighbour qualifies, yet the answer is \
                     not the resident posting"
                    label v
            end)
          probes)
      [ MG.In; MG.Out ]
  done;
  !ok

(* A packed base with a hub every vertex points at by p0, then three
   chained publishes: two random batches, and one that adds a new
   vertex and empties e0 of every triple. *)
let prop_neighbourhood_is_filtered_adjacency =
  QCheck.Test.make ~name:"N probe = filter over adjacency (packed + overlays)"
    ~count:30
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed %d" seed)
       ~shrink:QCheck.Shrink.int
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let n, base = random_base seed in
      let hub =
        List.init n (fun i ->
            let e = Printf.sprintf "e%d" i in
            if i mod 2 = 0 then [ spo e "p0" "hub"; spo e "p1" "hub" ]
            else [ spo e "p0" "hub" ])
      in
      let base = TSet.elements (TSet.of_list (base @ List.concat hub)) in
      let rng = Datagen.Prng.create (0x4e1b + seed) in
      let live = Amber.Live_engine.of_engine (Amber.Engine.build base) in
      let world = ref base in
      let packed = Amber.Live_engine.engine (Amber.Live_engine.pin live) in
      let ok =
        ref (check_neighbourhood rng (Printf.sprintf "seed %d packed" seed) packed)
      in
      let publish label ~adds ~dels =
        world := merged_world !world ~adds ~dels;
        let ep = Amber.Live_engine.update live ~adds ~dels in
        if not (check_neighbourhood rng label (Amber.Live_engine.engine ep)) then
          ok := false
      in
      for step = 0 to 1 do
        let adds, dels = random_batch rng n !world in
        publish (Printf.sprintf "seed %d overlay %d" seed step) ~adds ~dels
      done;
      let mentions_e0 t =
        Rdf.Term.equal t.Rdf.Triple.subject (Rdf.Term.iri (d "e0"))
        || Rdf.Term.equal t.Rdf.Triple.obj (Rdf.Term.iri (d "e0"))
      in
      publish
        (Printf.sprintf "seed %d new + emptied vertex" seed)
        ~adds:[ spo "fresh" "p2" "hub"; spo "e1" "p3" "fresh" ]
        ~dels:(List.filter mentions_e0 !world);
      !ok)

let test_neighbourhood_coverage () =
  checkb
    (Printf.sprintf "neighbourhood property checked %d probes (>= 2000)"
       !neighbourhood_probes_checked)
    true
    (!neighbourhood_probes_checked >= 2000);
  checkb
    (Printf.sprintf "%d all-qualify hub probes returned the resident posting"
       !neighbourhood_zero_copy_hubs)
    true
    (!neighbourhood_zero_copy_hubs >= 30)

(* --- snapshot isolation -------------------------------------------------- *)

let test_pin_isolation () =
  let live = Amber.Live_engine.of_engine (Amber.Engine.build base_triples) in
  let ep0 = Amber.Live_engine.pin live in
  let before = canonical (Amber.Live_engine.engine ep0) probe_query in
  let ep1 =
    Amber.Live_engine.update live
      ~adds:[ spo "e8" "p0" "e0" ]
      ~dels:[ spo "e0" "p0" "e1" ]
  in
  let after = canonical (Amber.Live_engine.engine ep1) probe_query in
  checkb "write visible in the new epoch" true (before <> after);
  checkb "pinned epoch never observes the write" true
    (canonical (Amber.Live_engine.engine ep0) probe_query = before);
  checki "version bumped" 1 (Amber.Live_engine.version ep1);
  let merged =
    merged_world base_triples
      ~adds:[ spo "e8" "p0" "e0" ]
      ~dels:[ spo "e0" "p0" "e1" ]
  in
  check_oracle "post-update epoch" merged (Amber.Live_engine.engine ep1);
  let ep2 = Amber.Live_engine.compact live in
  checki "compaction bumps the generation" 1 (Amber.Live_engine.generation ep2);
  checki "compaction bumps the version" 2 (Amber.Live_engine.version ep2);
  checkb "compaction leaves an empty delta" true
    (Amber.Delta.is_empty (Amber.Live_engine.delta ep2));
  checkb "compaction preserves answers" true
    (canonical (Amber.Live_engine.engine ep2) probe_query = after);
  (* Pinned epochs survive the compaction untouched, caches included. *)
  checkb "old pin still answers the old world" true
    (canonical (Amber.Live_engine.engine ep0) probe_query = before)

(* --- durability ---------------------------------------------------------- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun name -> try Sys.remove (Filename.concat dir name) with _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_temp_dir f =
  let path = Filename.temp_file "amber_live" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let adds1 = [ spo "e8" "p0" "e0"; att "e8" "lp0" "w9" ]
let dels1 = [ spo "e0" "p0" "e1" ]

let test_persistence_roundtrip () =
  with_temp_dir @@ fun dir ->
  let live =
    Amber.Live_engine.of_engine ~dir (Amber.Engine.build base_triples)
  in
  let ep = Amber.Live_engine.update live ~adds:adds1 ~dels:dels1 in
  let expected = canonical (Amber.Live_engine.engine ep) probe_query in
  (* Reopen with a pending delta: manifest + gen-0 snapshot replay. *)
  let reopened = Amber.Live_engine.open_dir dir in
  let rep = Amber.Live_engine.pin reopened in
  checki "reopened generation" 0 (Amber.Live_engine.generation rep);
  checki "reopened version" 1 (Amber.Live_engine.version rep);
  checki "reopened delta size" 3 (Amber.Delta.size (Amber.Live_engine.delta rep));
  checkb "reopened answers match" true
    (canonical (Amber.Live_engine.engine rep) probe_query = expected);
  (* Compact, then reopen the new generation. *)
  ignore (Amber.Live_engine.compact live);
  checkb "gen-1 snapshot written" true
    (Sys.file_exists (Filename.concat dir "gen-1.amberix"));
  checkb "gen-0 snapshot retained until the next compaction" true
    (Sys.file_exists (Filename.concat dir "gen-0.amberix"));
  let reopened2 = Amber.Live_engine.open_dir dir in
  let rep2 = Amber.Live_engine.pin reopened2 in
  checki "compacted generation reopens" 1 (Amber.Live_engine.generation rep2);
  checkb "compacted delta is empty" true
    (Amber.Delta.is_empty (Amber.Live_engine.delta rep2));
  checkb "compacted answers match" true
    (canonical (Amber.Live_engine.engine rep2) probe_query = expected);
  (* A second compaction prunes generation 0 but keeps generation 1. *)
  ignore (Amber.Live_engine.update live ~adds:[ spo "e9" "p1" "e8" ] ~dels:[]);
  ignore (Amber.Live_engine.compact live);
  checkb "gen-0 pruned" false
    (Sys.file_exists (Filename.concat dir "gen-0.amberix"));
  checkb "gen-1 retained" true
    (Sys.file_exists (Filename.concat dir "gen-1.amberix"));
  checkb "gen-2 present" true
    (Sys.file_exists (Filename.concat dir "gen-2.amberix"))

(* A compaction killed mid-snapshot-write leaves a partial gen file (or
   a stray .tmp); the manifest still names the previous generation, so
   the directory reopens — and fsck rejects the partial bytes. *)
let test_crash_mid_compaction () =
  with_temp_dir @@ fun dir ->
  let live =
    Amber.Live_engine.of_engine ~dir (Amber.Engine.build base_triples)
  in
  let ep = Amber.Live_engine.update live ~adds:adds1 ~dels:dels1 in
  let expected = canonical (Amber.Live_engine.engine ep) probe_query in
  let good =
    In_channel.with_open_bin (Filename.concat dir "gen-0.amberix")
      In_channel.input_all
  in
  let partial = String.sub good 0 (String.length good / 2) in
  List.iter
    (fun name ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          Out_channel.output_string oc partial))
    [ "gen-1.amberix"; "gen-1.amberix.tmp" ];
  (match Amber.Snapshot.fsck partial with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fsck must reject the partial generation file");
  (match Amber.Snapshot.fsck_file (Filename.concat dir "gen-1.amberix") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fsck_file must reject the partial generation file");
  let reopened = Amber.Live_engine.open_dir dir in
  let rep = Amber.Live_engine.pin reopened in
  checki "previous generation still loads" 0
    (Amber.Live_engine.generation rep);
  checkb "previous world intact" true
    (canonical (Amber.Live_engine.engine rep) probe_query = expected);
  (* The retried compaction overwrites the partial file atomically. *)
  let ep2 = Amber.Live_engine.compact reopened in
  checki "retried compaction lands" 1 (Amber.Live_engine.generation ep2);
  (match Amber.Snapshot.fsck_file (Filename.concat dir "gen-1.amberix") with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "retried gen-1 must pass fsck: %s" msg);
  let reopened2 = Amber.Live_engine.open_dir dir in
  checkb "reopens on the retried generation" true
    (canonical
       (Amber.Live_engine.engine (Amber.Live_engine.pin reopened2))
       probe_query
    = expected)

(* Every single-byte corruption of the manifest must be rejected: the
   magic check, the strict varint reader and the CRC-32 frame between
   them leave no silently-decodable flip. Same sweep the snapshot format
   gets in test_snapshot.ml. *)
let test_manifest_every_byte () =
  with_temp_dir @@ fun dir ->
  let live =
    Amber.Live_engine.of_engine ~dir (Amber.Engine.build base_triples)
  in
  ignore (Amber.Live_engine.update live ~adds:adds1 ~dels:dels1);
  let manifest = Filename.concat dir "live.manifest" in
  let good = In_channel.with_open_bin manifest In_channel.input_all in
  let write_manifest s =
    Out_channel.with_open_bin manifest (fun oc ->
        Out_channel.output_string oc s)
  in
  let rejects () =
    match Amber.Live_engine.open_dir dir with
    | exception Rdf.Binary.Corrupt _ -> true
    | _ -> false
  in
  let bad = ref [] in
  for i = 0 to String.length good - 1 do
    let flipped = Bytes.of_string good in
    Bytes.set flipped i (Char.chr (Char.code good.[i] lxor 0x01));
    write_manifest (Bytes.to_string flipped);
    if not (rejects ()) then bad := i :: !bad
  done;
  checkb
    (Printf.sprintf "all %d single-byte flips rejected (passing offsets: %s)"
       (String.length good)
       (String.concat "," (List.map string_of_int (List.rev !bad))))
    true (!bad = []);
  List.iter
    (fun k ->
      write_manifest (String.sub good 0 k);
      checkb (Printf.sprintf "prefix of %d bytes rejected" k) true (rejects ()))
    [ 0; 1; 7; 12; String.length good / 2; String.length good - 1 ];
  write_manifest (good ^ "\x00");
  checkb "trailing garbage rejected" true (rejects ());
  write_manifest good;
  checki "pristine manifest still reopens" 1
    (Amber.Live_engine.version (Amber.Live_engine.pin (Amber.Live_engine.open_dir dir)))

(* --- chained publishes ----------------------------------------------------- *)

let chain_cases_checked = ref 0

(* A fresh vertex named only by the chain: born in the first batch with
   an edge, an in-edge and an attribute on brand-new predicates, emptied
   by a later one (its id must stay, triple-less, until compaction). *)
let fresh_born =
  [ spo "fresh" "pnew" "e0"; spo "e1" "pnew" "fresh"; att "fresh" "lpnew" "wnew" ]

(* One batch of a chain: [random_batch] plus cancellations — removing
   adds still pending in the delta, re-adding pending deletions — and
   the fresh vertex's birth (step 0) and death (step [kill]). *)
let chain_batch rng n world delta ~step ~kill =
  let adds, dels = random_batch rng n world in
  let pick l =
    match l with
    | [] -> []
    | _ when Datagen.Prng.bool rng 0.6 ->
        [ List.nth l (Datagen.Prng.int rng (List.length l)) ]
    | _ -> []
  in
  let dels = pick (Amber.Delta.adds delta) @ dels in
  let adds = pick (Amber.Delta.dels delta) @ adds in
  let mentions_fresh { Rdf.Triple.subject; obj; _ } =
    subject = Rdf.Term.iri (d "fresh") || obj = Rdf.Term.iri (d "fresh")
  in
  if step = 0 then (fresh_born @ adds, dels)
  else if step = kill then
    (List.filter (fun t -> not (mentions_fresh t)) adds,
     List.filter mentions_fresh world @ dels)
  else (adds, dels)

(* Random chains of 2–8 [Live_engine.update]s on a live directory. After
   every publish the epoch's engine (the previous overlay patched by the
   batch) must answer like the whole cumulative delta compiled at once,
   like a rebuild of the merged world and like the oracle, with an exact
   triple count; at the end, [open_dir] of the directory (which compiles
   the delta in one step, numbering new terms its own way) must answer
   the same sets. *)
let prop_chained_publish =
  QCheck.Test.make ~name:"chained overlays = one-step compile = rebuilt = oracle"
    ~count:30
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed %d" seed)
       ~shrink:QCheck.Shrink.int
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      with_temp_dir @@ fun dir ->
      let n, base = random_base seed in
      let rng = Datagen.Prng.create (0xc4a1d + seed) in
      let frozen = Amber.Engine.build base in
      let live = Amber.Live_engine.of_engine ~dir frozen in
      let steps = 2 + Datagen.Prng.int rng 7 in
      let kill = 1 + Datagen.Prng.int rng (steps - 1) in
      let world = ref base in
      let ok = ref true in
      let fail fmt =
        Format.kasprintf
          (fun msg -> ok := Qseed.fail_reportf "seed %d: %s" seed msg)
          fmt
      in
      let check_answers ~label engine queries =
        List.iter
          (fun ast ->
            incr chain_cases_checked;
            let expected = Reference.canonical_answer !world ast in
            if canonical engine ast <> expected then
              fail "%s disagrees with the oracle on:@.%s" label
                (Sparql.Ast.to_string ast))
          queries
      in
      let queries = ref [] in
      for step = 0 to steps - 1 do
        let delta = Amber.Live_engine.delta (Amber.Live_engine.pin live) in
        let adds, dels = chain_batch rng n !world delta ~step ~kill in
        let ep = Amber.Live_engine.update live ~adds ~dels in
        world := merged_world !world ~adds ~dels;
        let chained = Amber.Live_engine.engine ep in
        let got = Amber.Database.triple_count (Amber.Engine.db chained) in
        if got <> List.length !world then
          fail "step %d: chained triple count %d, merged world has %d" step got
            (List.length !world);
        (* The graph's own counts are carried across layers too. *)
        let g = Amber.Database.graph (Amber.Engine.db chained) in
        let edges =
          List.filter
            (fun { Rdf.Triple.obj; _ } ->
              match obj with Rdf.Term.Literal _ -> false | _ -> true)
            !world
        in
        let pairs =
          List.sort_uniq compare
            (List.map (fun { Rdf.Triple.subject; obj; _ } -> (subject, obj)) edges)
        in
        if Mgraph.Multigraph.triple_edge_count g <> List.length edges
           || Mgraph.Multigraph.multi_edge_count g <> List.length pairs
        then
          fail "step %d: chained graph counts %d/%d, world has %d/%d" step
            (Mgraph.Multigraph.triple_edge_count g)
            (Mgraph.Multigraph.multi_edge_count g)
            (List.length edges) (List.length pairs);
        let compiled = Amber.Delta.compile frozen (Amber.Live_engine.delta ep) in
        let got = Amber.Database.triple_count (Amber.Engine.db compiled) in
        if got <> List.length !world then
          fail "step %d: compiled triple count %d, merged world has %d" step got
            (List.length !world);
        let rebuilt = Amber.Engine.build !world in
        queries :=
          probe_query
          :: (if !world = [] then [] else queries_for (seed + step) !world);
        List.iter
          (fun (label, engine) ->
            check_answers ~label:(Printf.sprintf "step %d: %s" step label) engine !queries)
          [ ("chained", chained); ("compiled", compiled); ("rebuilt", rebuilt) ]
      done;
      let reopened = Amber.Live_engine.pin (Amber.Live_engine.open_dir dir) in
      check_answers ~label:"reopened" (Amber.Live_engine.engine reopened) !queries;
      !ok)

(* Isolation of chained overlays: every publish copies the patch tables
   it extends, so an epoch pinned before five more publishes — each
   touching vertices the pinned overlay had patched — keeps its answers
   and triple count. *)
let test_chained_isolation () =
  let live = Amber.Live_engine.of_engine (Amber.Engine.build base_triples) in
  let pinned =
    Amber.Live_engine.update live ~adds:[ spo "e0" "p0" "e3"; att "e0" "lp0" "w5" ]
      ~dels:[ spo "e1" "p0" "e2" ]
  in
  let eng = Amber.Live_engine.engine pinned in
  let count () = Amber.Database.triple_count (Amber.Engine.db eng) in
  let before = canonical eng probe_query and before_count = count () in
  let world =
    merged_world base_triples ~adds:[ spo "e0" "p0" "e3"; att "e0" "lp0" "w5" ]
      ~dels:[ spo "e1" "p0" "e2" ]
  in
  check_oracle "pinned overlay" world eng;
  List.iteri
    (fun i (adds, dels) ->
      let ep = Amber.Live_engine.update live ~adds ~dels in
      checki (Printf.sprintf "publish %d lands" i) (i + 2) (Amber.Live_engine.version ep))
    [
      ([ spo "e0" "p1" "e1"; spo "e3" "p0" "e0" ], [ spo "e0" "p0" "e3" ]);
      ([ spo "e1" "p0" "e2" ], [ att "e0" "lp0" "w5"; spo "e0" "p1" "e2" ]);
      ([ spo "e9" "p0" "e0"; att "e0" "lp1" "w0" ], [ spo "e2" "p1" "e0" ]);
      ([], [ spo "e0" "p0" "e1"; spo "e3" "p0" "e0" ]);
      ([ spo "e0" "p0" "e9"; att "e9" "lp0" "w0" ], [ att "e0" "lp0" "w0" ]);
    ];
  checkb "later epochs moved on" true
    (canonical (Amber.Live_engine.engine (Amber.Live_engine.pin live)) probe_query
    <> before);
  checkb "pinned answers unchanged" true (canonical eng probe_query = before);
  checki "pinned triple count unchanged" before_count (count ());
  check_oracle "pinned overlay after five publishes" world eng

(* Sharing: a vertex only an earlier batch touched keeps that batch's
   patch — the very arrays, not a rebuilt copy — while a vertex the new
   batch touches gets a new one. *)
let test_chained_sharing () =
  let live = Amber.Live_engine.of_engine (Amber.Engine.build base_triples) in
  let graph ep = Amber.Database.graph (Amber.Engine.db (Amber.Live_engine.engine ep)) in
  let vertex ep name =
    Option.get
      (Amber.Database.vertex_of_term (Amber.Engine.db (Amber.Live_engine.engine ep))
         (Rdf.Term.iri (d name)))
  in
  let ep1 =
    Amber.Live_engine.update live ~adds:[ spo "e0" "p1" "e1"; spo "e3" "p1" "e1" ] ~dels:[]
  in
  let ep2 = Amber.Live_engine.update live ~adds:[ spo "e3" "p1" "e2" ] ~dels:[] in
  let module MG = Mgraph.Multigraph in
  let e0 = vertex ep1 "e0" and e1 = vertex ep1 "e1" and e3 = vertex ep1 "e3" in
  checkb "untouched out-patch shared" true
    (MG.adjacency (graph ep2) MG.Out e0 == MG.adjacency (graph ep1) MG.Out e0);
  checkb "untouched in-patch shared" true
    (MG.adjacency (graph ep2) MG.In e1 == MG.adjacency (graph ep1) MG.In e1);
  checkb "untouched neighbour posting shared" true
    (MG.neighbours (graph ep2) MG.Out e0 == MG.neighbours (graph ep1) MG.Out e0);
  checkb "touched vertex re-patched" false
    (MG.adjacency (graph ep2) MG.Out e3 == MG.adjacency (graph ep1) MG.Out e3);
  checki "re-patched adjacency is merged" 3
    (Array.length (MG.adjacency (graph ep2) MG.Out e3))

(* A new vertex whose last triple a later batch removes keeps its id,
   with no edges and no attributes, until compaction drops it. *)
let test_emptied_new_vertex () =
  let live = Amber.Live_engine.of_engine (Amber.Engine.build base_triples) in
  ignore (Amber.Live_engine.update live ~adds:fresh_born ~dels:[]);
  let ep = Amber.Live_engine.update live ~adds:[ spo "e2" "p0" "e3" ] ~dels:fresh_born in
  let db = Amber.Engine.db (Amber.Live_engine.engine ep) in
  let world = merged_world base_triples ~adds:[ spo "e2" "p0" "e3" ] ~dels:[] in
  checki "exact triple count" (List.length world) (Amber.Database.triple_count db);
  (match Amber.Database.vertex_of_term db (Rdf.Term.iri (d "fresh")) with
  | None -> Alcotest.fail "the emptied vertex keeps its id"
  | Some v ->
      checki "no neighbours" 0 (Mgraph.Multigraph.degree (Amber.Database.graph db) v);
      checki "no attributes" 0
        (Array.length (Mgraph.Multigraph.attributes (Amber.Database.graph db) v)));
  let pnew = q (Printf.sprintf "SELECT ?x ?y WHERE { ?x <%s> ?y . }" (d "pnew")) in
  checki "its predicate matches nothing" 0
    (List.length
       (Amber.Engine.query (Amber.Live_engine.engine ep) pnew).Amber.Engine.rows);
  check_oracle "after emptying" world (Amber.Live_engine.engine ep);
  let ep = Amber.Live_engine.compact live in
  checkb "compaction drops it" true
    (Amber.Database.vertex_of_term (Amber.Engine.db (Amber.Live_engine.engine ep))
       (Rdf.Term.iri (d "fresh"))
    = None)

(* --- compaction in id space ----------------------------------------------- *)

let snapshot_bytes engine =
  Amber.Snapshot.to_string (Amber.Engine.snapshot_contents engine)

(* The path compaction replaced: decode the epoch to triples, rebuild. *)
let rebuilt_from_triples engine =
  Amber.Engine.build (Amber.Database.to_triples (Amber.Engine.db engine))

let frozen engine =
  Amber.Engine.of_database (Amber.Database.freeze (Amber.Engine.db engine))

(* With an empty delta, freezing a fresh build gives, byte for byte, the
   snapshot the triple round trip gave — also on data whose adjacency
   and attribute index hold Elias-Fano and Blocked lists. *)
let test_freeze_empty_delta () =
  List.iter
    (fun (label, triples, compressed) ->
      let e = Amber.Engine.build triples in
      if compressed then Fixtures.check_compressed label e;
      checkb
        (label ^ ": freeze = rebuild from triples, byte for byte")
        true
        (snapshot_bytes (frozen e) = snapshot_bytes (rebuilt_from_triples e)))
    [
      ("running example", base_triples, false);
      ( "scale-free",
        Datagen.Scale_free.generate ~seed:3
          (Datagen.Scale_free.dbpedia_like ~scale:0.02 ()),
        false );
      ( "lubm, compressed lists",
        Fixtures.with_compressed_attributes
          (Datagen.Lubm.generate ~seed:3 ~universities:1 ()),
        true );
    ]

(* How often the schedules below left each kind of dead id behind at a
   compaction: an emptied vertex new since the last generation, an
   emptied base vertex, a predicate whose last edge went and an
   attribute whose last holder went. *)
let dead_ids = Array.make 4 0
let dead_id_kinds =
  [| "emptied new vertex"; "emptied base vertex"; "dropped predicate"; "dropped attribute" |]

let freeze_cases_checked = ref 0

let mentions_term term { Rdf.Triple.subject; obj; _ } = subject = term || obj = term

(* The last batch of a schedule removes, from the world: every triple of
   the fresh vertex, of one base vertex, of one edge predicate and of one
   attribute. *)
let kill_batch rng world =
  let pick l =
    match l with
    | [] -> []
    | _ -> [ List.nth l (Datagen.Prng.int rng (List.length l)) ]
  in
  let edges, attrs =
    List.partition
      (fun { Rdf.Triple.obj; _ } ->
        match obj with Rdf.Term.Literal _ -> false | _ -> true)
      world
  in
  let victims =
    (fun t -> mentions_term (Rdf.Term.iri (d "fresh")) t)
    :: List.map
         (fun { Rdf.Triple.subject; _ } -> mentions_term subject)
         (pick world)
    @ List.map
        (fun { Rdf.Triple.predicate; _ } (t : Rdf.Triple.t) ->
          t.predicate = predicate
          && match t.obj with Rdf.Term.Literal _ -> false | _ -> true)
        (pick edges)
    @ List.map
        (fun { Rdf.Triple.predicate; obj; _ } (t : Rdf.Triple.t) ->
          t.predicate = predicate && t.obj = obj)
        (pick attrs)
  in
  List.filter (fun t -> List.exists (fun victim -> victim t) victims) world

(* Count the dead ids the epoch [ep] still numbers, and return the check
   that the compacted epoch numbers none of them. *)
let dead_ids_of ep world =
  let db = Amber.Engine.db (Amber.Live_engine.engine ep) in
  let base_db = Amber.Engine.db (Amber.Live_engine.base ep) in
  let terms =
    List.sort_uniq compare
      (List.concat_map
         (fun { Rdf.Triple.subject; obj; _ } ->
           subject :: (match obj with Rdf.Term.Literal _ -> [] | o -> [ o ]))
         world)
  in
  let in_world term = List.mem term terms in
  let candidates =
    List.init 24 (fun i -> Rdf.Term.iri (d (Printf.sprintf "e%d" i)))
    @ [ Rdf.Term.iri (d "fresh") ]
  in
  let dead_vertices =
    List.filter
      (fun term ->
        Amber.Database.vertex_of_term db term <> None && not (in_world term))
      candidates
  in
  List.iter
    (fun term ->
      let k = if Amber.Database.vertex_of_term base_db term = None then 0 else 1 in
      dead_ids.(k) <- dead_ids.(k) + 1)
    dead_vertices;
  let preds =
    List.init 6 (fun i -> d (Printf.sprintf "p%d" i)) @ [ d "pnew" ]
  in
  let dead_preds =
    List.filter
      (fun p ->
        Amber.Database.edge_type_of_iri db p <> None
        && not
             (List.exists
                (fun { Rdf.Triple.predicate; obj; _ } ->
                  predicate = Rdf.Term.iri p
                  && match obj with Rdf.Term.Literal _ -> false | _ -> true)
                world))
      preds
  in
  dead_ids.(2) <- dead_ids.(2) + List.length dead_preds;
  let lit w = { Rdf.Term.value = w; datatype = None; lang = None } in
  let attr_pairs =
    List.concat_map
      (fun p ->
        List.init 10 (fun w -> (d p, lit (Printf.sprintf "w%d" w)))
        @ [ (d p, lit "wnew") ])
      [ "lp0"; "lp1"; "lp2"; "lpnew" ]
  in
  let dead_attrs =
    List.filter
      (fun (pred, lit) ->
        Amber.Database.attribute_of db ~pred ~lit <> None
        && not
             (List.exists
                (fun { Rdf.Triple.predicate; obj; _ } ->
                  predicate = Rdf.Term.iri pred && obj = Rdf.Term.Literal lit)
                world))
      attr_pairs
  in
  dead_ids.(3) <- dead_ids.(3) + List.length dead_attrs;
  fun compacted ->
    let db = Amber.Engine.db compacted in
    List.for_all (fun t -> Amber.Database.vertex_of_term db t = None) dead_vertices
    && List.for_all (fun p -> Amber.Database.edge_type_of_iri db p = None) dead_preds
    && List.for_all
         (fun (pred, lit) -> Amber.Database.attribute_of db ~pred ~lit = None)
         dead_attrs

(* Chained [Live_engine.update] schedules, with a compaction part-way
   through now and then and always after a last batch that empties a
   new vertex, a base vertex, a predicate and an attribute. Every
   compaction must answer like the oracle, count what [Engine.build]
   over the same world counts, number none of the dead ids, leave the
   base generation's dictionaries alone and write, byte for byte, the
   snapshot the old triple round trip wrote. *)
let prop_compaction =
  QCheck.Test.make ~name:"compaction in id space = rebuild = oracle" ~count:40
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed %d" seed)
       ~shrink:QCheck.Shrink.int
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let n, base = random_base seed in
      let rng = Datagen.Prng.create (0xf2ee + seed) in
      let live = Amber.Live_engine.of_engine (Amber.Engine.build base) in
      let world = ref base in
      let ok = ref true in
      let fail fmt =
        Format.kasprintf
          (fun msg -> ok := Qseed.fail_reportf "seed %d: %s" seed msg)
          fmt
      in
      let compact_and_check label =
        let ep = Amber.Live_engine.pin live in
        let no_dead_ids = dead_ids_of ep !world in
        let base_db = Amber.Engine.db (Amber.Live_engine.base ep) in
        let base_sizes () =
          ( Amber.Database.vertex_count base_db,
            Amber.Database.edge_type_count base_db,
            Amber.Database.attribute_count base_db )
        in
        let sizes_before = base_sizes () in
        let old_path = snapshot_bytes (rebuilt_from_triples (Amber.Live_engine.engine ep)) in
        let compacted = Amber.Live_engine.engine (Amber.Live_engine.compact live) in
        let db = Amber.Engine.db compacted in
        let fresh = Amber.Engine.db (Amber.Engine.build !world) in
        let counts db =
          Amber.Database.
            (vertex_count db, edge_type_count db, attribute_count db, triple_count db)
        in
        if counts db <> counts fresh then fail "%s: counts differ from a fresh build" label;
        if not (no_dead_ids compacted) then fail "%s: a dead id survived" label;
        if base_sizes () <> sizes_before then
          fail "%s: the base dictionaries changed" label;
        if snapshot_bytes compacted <> old_path then
          fail "%s: snapshot differs from the triple round trip's" label;
        List.iter
          (fun ast ->
            incr freeze_cases_checked;
            if canonical compacted ast <> Reference.canonical_answer !world ast then
              fail "%s: disagrees with the oracle on:@.%s" label
                (Sparql.Ast.to_string ast))
          (probe_query
          :: (if !world = [] then [] else queries_for (seed + 17) !world))
      in
      let steps = 1 + Datagen.Prng.int rng 5 in
      for step = 0 to steps - 1 do
        let delta = Amber.Live_engine.delta (Amber.Live_engine.pin live) in
        let adds, dels = chain_batch rng n !world delta ~step ~kill:steps in
        ignore (Amber.Live_engine.update live ~adds ~dels);
        world := merged_world !world ~adds ~dels;
        if Datagen.Prng.bool rng 0.2 then
          compact_and_check (Printf.sprintf "compaction after step %d" step)
      done;
      let dels = kill_batch rng !world in
      ignore (Amber.Live_engine.update live ~adds:[] ~dels);
      world := merged_world !world ~adds:[] ~dels;
      compact_and_check "last compaction";
      !ok)

let test_compaction_coverage () =
  Array.iteri
    (fun k kind ->
      checkb
        (Printf.sprintf "%s dropped at %d compactions (>= 10)" kind dead_ids.(k))
        true
        (dead_ids.(k) >= 10))
    dead_id_kinds;
  checkb
    (Printf.sprintf "compaction differential checked %d cases (>= 150)"
       !freeze_cases_checked)
    true
    (!freeze_cases_checked >= 150)

(* A predicate whose last edge is gone is still in the overlay's
   dictionary; after compaction it is unknown, and the analyzer proves
   a query naming it empty by the dictionary alone. *)
let test_dropped_predicate_unknown () =
  let live = Amber.Live_engine.of_engine (Amber.Engine.build base_triples) in
  let ep =
    Amber.Live_engine.update live ~adds:[]
      ~dels:[ spo "e2" "p1" "e0"; spo "e0" "p1" "e2" ]
  in
  let ast = q (Printf.sprintf "SELECT ?x ?y WHERE { ?x <%s> ?y . }" (d "p1")) in
  let proof engine =
    match Amber.Analysis.unsat_proof (Amber.Engine.analyze engine ast) with
    | Some p -> Amber.Analysis.kind (Amber.Analysis.Unsat p)
    | None -> "satisfiable"
  in
  checkb "the overlay still numbers the predicate" true
    (Amber.Database.edge_type_of_iri
       (Amber.Engine.db (Amber.Live_engine.engine ep))
       (d "p1")
    <> None);
  checkb "so its proof is not the dictionary's" true
    (proof (Amber.Live_engine.engine ep) <> "unknown-predicate");
  let compacted = Amber.Live_engine.engine (Amber.Live_engine.compact live) in
  Alcotest.(check string)
    "after compaction" "unknown-predicate" (proof compacted);
  checki "no rows" 0
    (List.length (Amber.Engine.query compacted ast).Amber.Engine.rows)

(* --- concurrency stress -------------------------------------------------- *)

(* One writer domain (updates, with periodic forced compactions) races
   four query domains for ~2 seconds. Readers check, on every pin: the
   epoch is never torn (version and generation move together and only
   forward), and a pinned epoch is referentially transparent — asking it
   the same query twice gives identical rows even while newer epochs
   land, which would fail if the per-epoch matcher caches leaked across
   epochs. *)
(* Regression: reader domains that pin the same fresh epoch all force
   its statistics at once. Each round starts from a base whose
   statistics are not computed yet, so that forcing the overlay's takes
   long enough for the four domains to overlap; two of them force
   directly, two through an adaptive query (planner and rewriter). *)
let test_stats_forced_concurrently () =
  let triples =
    List.init 3000 (fun i ->
        spo (Printf.sprintf "e%d" (i mod 600)) (Printf.sprintf "p%d" (i mod 7))
          (Printf.sprintf "e%d" (i * 7919 mod 600)))
  in
  let built = Amber.Engine.build triples in
  let expected = canonical built probe_query in
  for round = 1 to 25 do
    let base =
      Amber.Engine.of_parts ~db:(Amber.Engine.db built)
        ~attribute:(Amber.Engine.attribute_index built)
        ~synopsis:(Amber.Engine.synopsis_index built)
        ~neighbourhood:(Amber.Engine.neighbourhood_index built) ()
    in
    let overlay =
      Amber.Delta.compile base
        (Amber.Delta.apply Amber.Delta.empty ~adds:[ spo "new" "p0" "e1" ] ~dels:[])
    in
    let ready = Atomic.make 0 in
    let force k () =
      Atomic.incr ready;
      while Atomic.get ready < 4 do
        Domain.cpu_relax ()
      done;
      if k mod 2 = 0 then `Stats (Amber.Engine.statistics overlay)
      else
        `Rows
          (Amber.Engine.query overlay probe_query)
            .Amber.Engine.rows
    in
    let results = List.map Domain.join (List.init 4 (fun k -> Domain.spawn (force k))) in
    let stats = Amber.Engine.statistics overlay in
    List.iter
      (function
        | `Stats s -> checkb (Printf.sprintf "round %d: one value" round) true (s == stats)
        | `Rows rows ->
            checki (Printf.sprintf "round %d: answer" round)
              (List.length expected + 1) (List.length rows))
      results
  done

let test_concurrent_stress () =
  let live = Amber.Live_engine.of_engine (Amber.Engine.build base_triples) in
  let deadline = Unix.gettimeofday () +. 2.0 in
  let failure = Atomic.make None in
  let fail msg = Atomic.compare_and_set failure None (Some msg) |> ignore in
  let writer () =
    let rng = Datagen.Prng.create 0x77a17e in
    let i = ref 0 in
    while Unix.gettimeofday () < deadline && Atomic.get failure = None do
      incr i;
      let fresh =
        spo
          (Printf.sprintf "e%d" (Datagen.Prng.int rng 40))
          (Printf.sprintf "p%d" (Datagen.Prng.int rng 5))
          (Printf.sprintf "e%d" (Datagen.Prng.int rng 40))
      in
      let stale = List.nth base_triples (Datagen.Prng.int rng 5) in
      let ep =
        if Datagen.Prng.bool rng 0.8 then
          Amber.Live_engine.update live ~adds:[ fresh ] ~dels:[ stale ]
        else Amber.Live_engine.update live ~adds:[ stale ] ~dels:[ fresh ]
      in
      ignore ep;
      if !i mod 20 = 0 then ignore (Amber.Live_engine.compact live)
    done
  in
  let reader k () =
    let last_version = ref (-1) and last_generation = ref (-1) in
    while Unix.gettimeofday () < deadline && Atomic.get failure = None do
      let ep = Amber.Live_engine.pin live in
      let v = Amber.Live_engine.version ep in
      let g = Amber.Live_engine.generation ep in
      if v < !last_version then
        fail
          (Printf.sprintf "reader %d: version went backwards (%d after %d)" k
             v !last_version);
      if g < !last_generation then
        fail
          (Printf.sprintf "reader %d: generation went backwards (%d after %d)"
             k g !last_generation);
      last_version := v;
      last_generation := g;
      let eng = Amber.Live_engine.engine ep in
      let first = canonical eng probe_query in
      let second = canonical eng probe_query in
      if first <> second then
        fail
          (Printf.sprintf
             "reader %d: pinned epoch v%d answered differently twice (torn \
              epoch or cross-epoch cache entry)"
             k v)
    done
  in
  let domains =
    Domain.spawn writer :: List.init 4 (fun k -> Domain.spawn (reader k))
  in
  List.iter Domain.join domains;
  (match Atomic.get failure with
  | Some msg -> Alcotest.fail msg
  | None -> ());
  let final = Amber.Live_engine.pin live in
  checkb "writer made progress" true (Amber.Live_engine.version final > 10);
  checkb "compactions happened" true (Amber.Live_engine.generation final > 0)

(* Coverage floor for the randomized overlay property, mirroring the
   differential suite's accounting. *)
let test_overlay_coverage () =
  checkb
    (Printf.sprintf "overlay differential checked %d cases (>= 200)"
       !overlay_cases_checked)
    true
    (!overlay_cases_checked >= 200)

let test_chain_coverage () =
  checkb
    (Printf.sprintf "chained-publish differential checked %d cases (>= 300)"
       !chain_cases_checked)
    true
    (!chain_cases_checked >= 300)

let suite =
  [
    ( "delta",
      [
        Alcotest.test_case "insert and delete compile" `Quick
          test_insert_and_delete;
        Alcotest.test_case "insert/remove cancellation" `Quick
          test_cancellation;
        Alcotest.test_case "delete everything" `Quick test_delete_everything;
        Qseed.to_alcotest prop_overlay_differential;
        Alcotest.test_case "overlay coverage >= 200 cases" `Quick
          test_overlay_coverage;
        Qseed.to_alcotest prop_chained_publish;
        Alcotest.test_case "chained coverage >= 300 cases" `Quick
          test_chain_coverage;
        Alcotest.test_case "pinned chained overlay isolated" `Quick
          test_chained_isolation;
        Alcotest.test_case "untouched patches shared, not rebuilt" `Quick
          test_chained_sharing;
        Alcotest.test_case "emptied new vertex keeps its id" `Quick
          test_emptied_new_vertex;
        Alcotest.test_case "freeze with an empty delta = rebuild" `Quick
          test_freeze_empty_delta;
        Qseed.to_alcotest prop_compaction;
        Alcotest.test_case "compaction coverage" `Quick test_compaction_coverage;
        Alcotest.test_case "dropped predicate becomes unknown" `Quick
          test_dropped_predicate_unknown;
        Qseed.to_alcotest prop_neighbourhood_is_filtered_adjacency;
        Alcotest.test_case "neighbourhood coverage" `Quick
          test_neighbourhood_coverage;
      ] );
    ( "live-engine",
      [
        Alcotest.test_case "snapshot isolation across update and compaction"
          `Quick test_pin_isolation;
        Alcotest.test_case "live directory roundtrip" `Quick
          test_persistence_roundtrip;
        Alcotest.test_case "crash mid-compaction recovers" `Quick
          test_crash_mid_compaction;
        Alcotest.test_case "every manifest byte flip rejected" `Quick
          test_manifest_every_byte;
        Alcotest.test_case "writer vs 4 readers vs compactions (2s)" `Slow
          test_concurrent_stress;
        Alcotest.test_case "statistics forced by 4 domains at once" `Quick
          test_stats_forced_concurrently;
      ] );
  ]
