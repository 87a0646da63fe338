(* The traced replay of [Engine.query]: the same pipeline, composed from
   each layer's public functions so that a span can be recorded around
   every call — rewrite, query-graph build, decomposition, screening,
   seeding, search, embedding enumeration. Defaults follow
   [Engine.query]'s: adaptive plan, rewriter and analyzer on, caches on,
   one domain. The engine's own cross-query LRUs are private, so the
   replay keeps one LRU pair of the same default capacity per engine
   (and so per live epoch, as the engine does). Answers are compared to
   the untraced [Engine.query] answers by the caller. *)

open Amber

type engine_state = {
  engine : Engine.t;
  shared : Matcher.shared;
  lits : Literal_bindings.t;
  model : Stats.t;
}

(* Counters summed over every replayed query. *)
type totals = {
  mutable queries : int;
  mutable rewrite_steps : int;
  mutable seed_candidates : int;
  mutable candidates_scanned : int;
  mutable index_probes : int;
  mutable solutions : int;
  mutable probe_hits : int;
  mutable probe_misses : int;
  mutable lru_hits : int;
  mutable lru_misses : int;
  mutable rows : int;
  mutable qerrors : float list;
}

let totals =
  {
    queries = 0;
    rewrite_steps = 0;
    seed_candidates = 0;
    candidates_scanned = 0;
    index_probes = 0;
    solutions = 0;
    probe_hits = 0;
    probe_misses = 0;
    lru_hits = 0;
    lru_misses = 0;
    rows = 0;
    qerrors = [];
  }

let state = ref None

let state_for engine =
  match !state with
  | Some s when s.engine == engine -> s
  | _ ->
      let s =
        {
          engine;
          shared = Matcher.make_shared ();
          lits = Literal_bindings.create (Engine.db engine);
          model = Engine.statistics engine;
        }
      in
      state := Some s;
      s

let lru_total shared =
  let (ah, am), (sh, sm) = Matcher.shared_counters shared in
  (ah + sh, am + sm)

let qerror ~est ~actual =
  let e = float_of_int (max 1 est) and a = float_of_int (max 1 actual) in
  Float.max (e /. a) (a /. e)

let span = Trace.span

(* Solutions per component, stopping a component once its solutions
   denote [cap] embeddings; [None] when some component has none. *)
let collect ctx q plan cap =
  let components = plan.Decompose.components in
  let out = Array.make (Array.length components) [] in
  (try
     Array.iteri
       (fun i comp ->
         let seeds, report =
           span "matcher.seed" (fun () -> Matcher.initial_candidates_choice ctx q comp)
         in
         totals.seed_candidates <- totals.seed_candidates + Array.length seeds;
         Option.iter
           (fun (r : Stats.seed_report) ->
             totals.qerrors <-
               qerror ~est:r.choice.est_candidates ~actual:r.actual :: totals.qerrors)
           report;
         let embeddings = ref 0 in
         let sols = ref [] in
         span "matcher.search" (fun () ->
             Matcher.solve_component_seeded ctx q plan comp ~seeds ~emit:(fun sol ->
                 sols := sol :: !sols;
                 embeddings := !embeddings + Matcher.count_embeddings sol;
                 match cap with
                 | Some l when !embeddings >= l -> `Stop
                 | _ -> `Continue));
         out.(i) <- List.rev !sols;
         if out.(i) = [] then raise Exit)
       components
   with Exit -> ());
  if Array.length components > 0 && Array.exists (fun s -> s = []) out then None
  else Some out

(* Enumerate, project, deduplicate under DISTINCT, then ORDER BY, OFFSET
   and LIMIT. *)
let project st ~q ~(ast : Sparql.Ast.t) ~deadline ~selected ~effective_limit
    ~solutions =
  let slots = Embedding.slots q in
  let rows = Embedding.rows ~db:(Engine.db st.engine) ~q ~lits:st.lits ~solutions in
  let selected_slots = List.map slots.Embedding.of_var selected in
  let cap =
    if ast.order_by <> [] then None
    else Option.map (fun l -> l + Option.value ~default:0 ast.offset) effective_limit
  in
  let seen = Hashtbl.create 64 in
  let stopped = ref false in
  let acc = ref [] in
  let n = ref 0 in
  (try
     Seq.iter
       (fun row ->
         Deadline.check deadline;
         let projected = List.map (Option.map (fun i -> row.(i))) selected_slots in
         let fresh =
           (not ast.distinct)
           || (not (Hashtbl.mem seen projected))
              && (Hashtbl.add seen projected ();
                  true)
         in
         if fresh then begin
           acc := projected :: !acc;
           incr n;
           match cap with
           | Some l when !n >= l ->
               stopped := true;
               raise Exit
           | _ -> ()
         end)
       rows
   with Exit -> ());
  let rows = List.rev !acc in
  let rows =
    if ast.order_by = [] then rows
    else List.stable_sort (Sparql.Ast.compare_rows ast.order_by selected) rows
  in
  let rows =
    match ast.offset with
    | None | Some 0 -> rows
    | Some o -> List.filteri (fun i _ -> i >= o) rows
  in
  match effective_limit with
  | None -> (rows, !stopped)
  | Some l -> (List.filteri (fun i _ -> i < l) rows, !stopped || List.length rows > l)

let query ~limit ~timeout engine (ast : Sparql.Ast.t) : Engine.answer =
  let st = state_for engine in
  let db = Engine.db engine in
  let attribute = Engine.attribute_index engine in
  let synopsis = Engine.synopsis_index engine in
  let neighbourhood = Engine.neighbourhood_index engine in
  let deadline = Deadline.after timeout in
  let stats = Matcher.fresh_stats () in
  let lru0 = lru_total st.shared in
  let selected = Sparql.Ast.selected_variables ast in
  let effective_limit =
    match (limit, ast.limit) with
    | None, None -> None
    | Some l, None | None, Some l -> Some l
    | Some a, Some b -> Some (min a b)
  in
  let empty = { Engine.variables = selected; rows = []; truncated = false } in
  let r =
    span "rewrite.apply" (fun () ->
        Rewrite.apply ~db ~attribute ~stats:(Lazy.from_val st.model) ast)
  in
  totals.queries <- totals.queries + 1;
  totals.rewrite_steps <- totals.rewrite_steps + List.length r.Rewrite.steps;
  let rast = r.Rewrite.ast in
  let answer =
    match span "query_graph.build" (fun () -> Query_graph.build db rast) with
    | Query_graph.Unsatisfiable _ -> empty
    | Query_graph.Query q -> (
        let plan =
          span "decompose.plan" (fun () ->
              Decompose.plan
                ~strategy:(Decompose.Estimate (fun u -> Stats.estimate_vertex st.model q u))
                q)
        in
        let proof =
          span "analysis.screen" (fun () ->
              Analysis.unsat_proof
                (Analysis.report_of_items
                   (Analysis.screen db ~attribute ~synopsis q rast)))
        in
        if proof <> None then empty
        else
          let cap =
            if rast.Sparql.Ast.distinct || q.Query_graph.opens <> [] || rast.order_by <> []
            then None
            else
              Option.map
                (fun l -> l + Option.value ~default:0 rast.offset)
                effective_limit
          in
          let ctx =
            Matcher.make_ctx ~probe_cache:(Probe_cache.create ()) ~shared:st.shared
              ~plan:Stats.Adaptive ~model:st.model ~db ~attribute ~synopsis
              ~neighbourhood ~deadline ~stats ()
          in
          match collect ctx q plan cap with
          | None -> empty
          | Some solutions ->
              let rows, truncated =
                span "embedding.rows" (fun () ->
                    project st ~q ~ast:rast ~deadline ~selected ~effective_limit
                      ~solutions)
              in
              (* Re-attach values constant propagation substituted away. *)
              let rows =
                if r.Rewrite.bindings = [] then rows
                else
                  let forced =
                    List.map (fun v -> List.assoc_opt v r.Rewrite.bindings) selected
                  in
                  List.map
                    (List.map2 (fun f cell -> match cell with Some _ -> cell | None -> f) forced)
                    rows
              in
              { Engine.variables = selected; rows; truncated })
  in
  totals.candidates_scanned <- totals.candidates_scanned + stats.Matcher.candidates_scanned;
  totals.index_probes <- totals.index_probes + stats.index_probes;
  totals.solutions <- totals.solutions + stats.solutions;
  totals.probe_hits <- totals.probe_hits + stats.probe_cache_hits;
  totals.probe_misses <- totals.probe_misses + stats.probe_cache_misses;
  let h1, m1 = lru_total st.shared in
  totals.lru_hits <- totals.lru_hits + h1 - fst lru0;
  totals.lru_misses <- totals.lru_misses + m1 - snd lru0;
  totals.rows <- totals.rows + List.length answer.rows;
  answer
