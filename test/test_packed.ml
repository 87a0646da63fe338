(* Reference checks for the offline stage's packed passes. The synopsis
   builder ([Synopsis_index.fill_range] and [Synopsis_index.overlay]) and
   the statistics scan ([Stats.compute]) read the graph's type sets in
   place; here they are compared with independent brute forces
   ([Mgraph.Synopsis.of_vertex], a fold over [Multigraph.fold_edges]) on
   random multigraphs with multi-type edges, self-loops, vertices that
   only send or only receive edges, and literals — frozen, under a delta
   overlay that deletes edges, and under an overlay of that overlay. *)

module MG = Mgraph.Multigraph
module Prng = Datagen.Prng

let iri s = Rdf.Term.iri ("http://packed/" ^ s)
let spo s p o = Rdf.Triple.make (iri s) (iri p) (iri o)
let e i = Printf.sprintf "e%d" i
let p i = Printf.sprintf "p%d" i

(* A random world and two write batches over it: the first deletes about
   a third of the edges and adds new ones (some to fresh vertices), the
   second deletes edges of both the base and the first batch. *)
let random_world seed =
  let rng = Prng.create (0x9ac4 + seed) in
  let n = 6 + Prng.int rng 20 and types = 1 + Prng.int rng 6 in
  let edge () =
    let s = Prng.int rng n in
    let o = if Prng.bool rng 0.1 then s else Prng.int rng n in
    (* A pair often carries several types: a multi-edge. *)
    List.init
      (if Prng.bool rng 0.3 then 1 + Prng.int rng 3 else 1)
      (fun _ -> spo (e s) (p (Prng.int rng types)) (e o))
  in
  let edges = List.concat (List.init (10 + Prng.int rng 60) (fun _ -> edge ())) in
  let one_sided =
    List.init 2 (fun i ->
        [
          spo (Printf.sprintf "source%d" i) (p 0) (e (Prng.int rng n));
          spo (e (Prng.int rng n)) (p (types - 1)) (Printf.sprintf "sink%d" i);
        ])
  in
  let literals =
    List.filter_map
      (fun v ->
        if Prng.bool rng 0.3 then
          Some
            (Rdf.Triple.make (iri (e v)) (iri "name")
               (Rdf.Term.literal (Printf.sprintf "n%d" (Prng.int rng 3))))
        else None)
      (List.init n Fun.id)
  in
  let base = edges @ List.concat one_sided @ literals in
  let pick l = List.filter (fun _ -> Prng.bool rng 0.35) l in
  let adds1 =
    List.concat (List.init 6 (fun _ -> edge ()))
    @ [ spo "fresh0" (p 0) (e 0); spo (e 1) (p types) "fresh1" ]
  in
  let dels1 = pick edges in
  let adds2 = List.concat (List.init 4 (fun _ -> edge ())) in
  let dels2 = pick edges @ pick adds1 in
  (base, (adds1, dels1), (adds2, dels2))

let engines seed =
  let base, (adds1, dels1), (adds2, dels2) = random_world seed in
  let frozen = Amber.Engine.build base in
  let live = Amber.Live_engine.of_engine frozen in
  let ep1 = Amber.Live_engine.update live ~adds:adds1 ~dels:dels1 in
  let ep2 = Amber.Live_engine.update live ~adds:adds2 ~dels:dels2 in
  [
    ("frozen", frozen);
    ("overlay", Amber.Live_engine.engine ep1);
    ("overlay of overlay", Amber.Live_engine.engine ep2);
  ]

let seed_arb =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "seed %d" seed)
    ~shrink:QCheck.Shrink.int
    QCheck.Gen.(int_bound 1_000_000)

let graph engine = Amber.Database.graph (Amber.Engine.db engine)

(* Every vertex's stored synopsis equals the reference: in the engine's
   own index (the base pass, and the overlay pass for the vertices a
   batch touched) and in a fresh build over the graph, overlays
   included. *)
let prop_synopses =
  QCheck.Test.make ~name:"packed synopses = Synopsis.of_vertex" ~count:40
    seed_arb (fun seed ->
      List.for_all
        (fun (label, engine) ->
          let g = graph engine in
          let fresh = Amber.Synopsis_index.build (Amber.Engine.db engine) in
          let ok = ref true in
          for v = 0 to MG.vertex_count g - 1 do
            let want = Mgraph.Synopsis.of_vertex g v in
            List.iter
              (fun (which, idx) ->
                if Amber.Synopsis_index.vertex_synopsis idx v <> want then
                  ok :=
                    Qseed.fail_reportf "%s, %s index: vertex %d has %s, want %s"
                      label which v
                      (Format.asprintf "%a" Mgraph.Synopsis.pp
                         (Amber.Synopsis_index.vertex_synopsis idx v))
                      (Format.asprintf "%a" Mgraph.Synopsis.pp want))
              [ ("engine", Amber.Engine.synopsis_index engine); ("fresh", fresh) ]
          done;
          !ok)
        (engines seed))

(* Per-type vertex and edge counts, degree histograms and the distinct
   synopsis count, by brute force over the multi-edges. *)
let brute_stats g =
  let n = MG.vertex_count g and nt = MG.edge_type_count g in
  let edges = Array.make nt 0 in
  let out_deg = Hashtbl.create 64 and in_deg = Hashtbl.create 64 in
  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  MG.fold_edges
    (fun v types w () ->
      Array.iter
        (fun ty ->
          edges.(ty) <- edges.(ty) + 1;
          bump out_deg (v, ty);
          bump in_deg (w, ty))
        types)
    g ();
  let per_type tbl =
    let vertices = Array.make nt 0 in
    let hist = Array.init nt (fun _ -> Array.make Amber.Stats.hist_buckets 0) in
    Hashtbl.iter
      (fun (_, ty) d ->
        vertices.(ty) <- vertices.(ty) + 1;
        let b = Amber.Stats.bucket_of_degree d in
        hist.(ty).(b) <- hist.(ty).(b) + 1)
      tbl;
    (vertices, hist)
  in
  let distinct = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    Hashtbl.replace distinct (Mgraph.Synopsis.of_vertex g v) ()
  done;
  (edges, per_type out_deg, per_type in_deg, Hashtbl.length distinct)

let prop_stats =
  QCheck.Test.make ~name:"Stats.compute = brute force over fold_edges"
    ~count:40 seed_arb (fun seed ->
      List.for_all
        (fun (label, engine) ->
          let g = graph engine in
          let st =
            Amber.Stats.compute (Amber.Engine.db engine)
              (Amber.Engine.attribute_index engine)
              (Amber.Engine.synopsis_index engine)
          in
          let edges, (out_v, out_h), (in_v, in_h), distinct = brute_stats g in
          let check what ok =
            ok || Qseed.fail_reportf "%s: %s disagrees with the brute force" label what
          in
          check "type_out_edges" (st.type_out_edges = edges)
          && check "type_in_edges" (st.type_in_edges = edges)
          && check "type_out_vertices" (st.type_out_vertices = out_v)
          && check "type_in_vertices" (st.type_in_vertices = in_v)
          && check "deg_hist_out" (st.deg_hist_out = out_h)
          && check "deg_hist_in" (st.deg_hist_in = in_h)
          && check "distinct_signatures" (st.distinct_signatures = distinct)
          && check "vertices" (st.vertices = MG.vertex_count g))
        (engines seed))

let suite =
  [
    ( "packed-passes",
      [ Qseed.to_alcotest prop_synopses; Qseed.to_alcotest prop_stats ] );
  ]
