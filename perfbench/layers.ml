(* Per-layer measurements outside the query pipeline: the offline stage
   call by call, the index primitives on arguments taken from the
   workload's own query graphs and seeds, posting-list kernels per
   layout, snapshot I/O and resident bytes. Traced runs only. *)

open Amber

(* The offline stage of [Engine.build], one public call at a time.
   Returns the assembled engine and the seconds of each stage. *)
let staged_build triples =
  let db, t_db = Util.time (fun () -> Database.of_triples triples) in
  let a, t_a = Util.time (fun () -> Attribute_index.build db) in
  let s, t_s = Util.time (fun () -> Synopsis_index.build db) in
  let n, t_n = Util.time (fun () -> Neighbourhood_index.build db) in
  let st, t_st = Util.time (fun () -> Stats.compute db a s) in
  let e =
    Engine.of_parts ~db ~attribute:a ~synopsis:s ~neighbourhood:n
      ~stats:(Lazy.from_val st) ()
  in
  ( e,
    [
      ("database.of_triples_s", t_db);
      ("attribute_index.build_s", t_a);
      ("synopsis_index.build_s", t_s);
      ("neighbourhood_index.build_s", t_n);
      ("stats.compute_s", t_st);
    ] )

(* Mean seconds per call of [f], repeated until at least 50 µs pass so
   sub-microsecond calls are resolved. *)
let per_call f =
  let reps = ref 0 in
  let t0 = Util.now () in
  while
    ignore (Sys.opaque_identity (f ()));
    incr reps;
    Util.now () -. t0 < 50e-6
  do
    ()
  done;
  (Util.now () -. t0) /. float_of_int !reps

let take n l = List.filteri (fun i _ -> i < n) l

(* Index primitives and posting kernels on the workload's own query
   graphs and seeds. Returns (metric, value, unit) triples. *)
let primitives engine (queries : Sparql.Ast.t list) =
  let db = Engine.db engine in
  let attribute = Engine.attribute_index engine in
  let synopsis = Engine.synopsis_index engine in
  let neighbourhood = Engine.neighbourhood_index engine in
  let graphs =
    List.filter_map
      (fun ast ->
        match Query_graph.build db ast with
        | Query_graph.Query q -> Some q
        | Query_graph.Unsatisfiable _ -> None)
      queries
  in
  let syn = Util.Buf.create () and attr = Util.Buf.create () in
  let neigh = Util.Buf.create () in
  let pairs = ref [] in
  let model = Engine.statistics engine in
  List.iter
    (fun (q : Query_graph.t) ->
      for u = 0 to Query_graph.vertex_count q - 1 do
        let signature = Query_graph.signature q u in
        let cands = Synopsis_index.candidates_of_signature synopsis signature in
        Util.Buf.add syn
          (per_call (fun () -> Synopsis_index.candidates_of_signature synopsis signature));
        let attrs = q.attrs.(u) in
        if attrs <> [||] then begin
          Util.Buf.add attr (per_call (fun () -> Attribute_index.candidates attribute attrs));
          let lists =
            Array.to_list
              (Array.map
                 (fun a -> Mgraph.Posting.to_array (Attribute_index.vertices_with attribute a))
                 attrs)
          in
          (* The matcher intersects the synopsis candidates with the
             attribute lists, and the attribute lists with each other. *)
          List.iter (fun l -> pairs := (cands, l) :: !pairs) lists;
          match lists with a :: b :: _ -> pairs := (a, b) :: !pairs | _ -> ()
        end
      done;
      (* Neighbourhood probes from the first core vertex's seeds along
         its query edges. *)
      let plan = Decompose.plan q in
      if Array.length plan.components > 0 then begin
        let comp = plan.components.(0) in
        let u = comp.core_order.(0) in
        let ctx =
          Matcher.make_ctx ~plan:Stats.Adaptive ~model ~db ~attribute ~synopsis
            ~neighbourhood ~deadline:(Deadline.after 5.) ~stats:(Matcher.fresh_stats ()) ()
        in
        let seeds = Matcher.initial_candidates ctx q comp in
        let edges =
          List.concat_map
            (fun u' -> if u' = u then [] else Query_graph.multi_edges_between q u u')
            (List.init (Query_graph.vertex_count q) Fun.id)
        in
        Array.iteri
          (fun i v ->
            if i < 8 then
              List.iter
                (fun (dir, types) ->
                  Util.Buf.add neigh
                    (per_call (fun () -> Neighbourhood_index.neighbours neighbourhood v dir types)))
                edges)
          seeds
      end)
    graphs;
  let us b = Util.median (Util.Buf.to_array b) *. 1e6 in
  let pairs =
    take 300
      (List.filter (fun (a, b) -> Array.length a > 0 && Array.length b > 0) !pairs)
  in
  let layout_metrics =
    List.concat_map
      (fun (slug, layout) ->
        let freeze a = Mgraph.Posting.of_array ~policy:(Mgraph.Posting.Force layout) a in
        let inter = Util.Buf.create () and geq = Util.Buf.create () in
        List.iter
          (fun (a, b) ->
            let pa = freeze a and pb = freeze b in
            Util.Buf.add inter (per_call (fun () -> Mgraph.Posting.inter pa pb));
            let small, large = if Array.length a <= Array.length b then (a, pb) else (b, pa) in
            let probes = Array.sub small 0 (min 64 (Array.length small)) in
            let per_probe =
              per_call (fun () ->
                  Array.iter (fun x -> ignore (Mgraph.Posting.next_geq large x)) probes)
              /. float_of_int (Array.length probes)
            in
            Util.Buf.add geq per_probe)
          pairs;
        [
          ("posting.inter_us." ^ slug, Util.median (Util.Buf.to_array inter) *. 1e6, "us");
          ("posting.next_geq_ns." ^ slug, Util.median (Util.Buf.to_array geq) *. 1e9, "ns");
        ])
      [ ("raw", Mgraph.Posting.Raw); ("ef", Mgraph.Posting.Ef); ("blocked", Mgraph.Posting.Blocked) ]
  in
  let census = Engine.posting_stats engine in
  [
    ("synopsis_index.candidates_us", us syn, "us");
    ("attribute_index.candidates_us", us attr, "us");
    ("neighbourhood_index.neighbours_us", us neigh, "us");
  ]
  @ layout_metrics
  @ [
      ("posting.lists.raw", float_of_int census.raw_lists, "count");
      ("posting.lists.ef", float_of_int census.ef_lists, "count");
      ("posting.lists.blocked", float_of_int census.blocked_lists, "count");
    ]

let resident engine =
  let parts = Engine.resident_bytes engine in
  List.map
    (fun k ->
      ( Printf.sprintf "resident.%s_bytes" k,
        float_of_int (Option.value ~default:0 (List.assoc_opt k parts)),
        "B" ))
    [ "adjacency"; "attribute"; "synopsis"; "neighbourhood" ]

let resident_total engine =
  List.fold_left (fun acc (_, b) -> acc + b) 0 (Engine.resident_bytes engine)

(* Median seconds of [Snapshot.write_file] and [Engine.load_snapshot] of
   this engine's contents, three times each. *)
let snapshot_io engine path =
  let contents = Engine.snapshot_contents engine in
  let writes =
    Array.init 3 (fun _ -> snd (Util.time (fun () -> Snapshot.write_file path contents)))
  in
  let loads =
    Array.init 3 (fun _ -> snd (Util.time (fun () -> ignore (Engine.load_snapshot path))))
  in
  (Util.median writes, Util.median loads)
