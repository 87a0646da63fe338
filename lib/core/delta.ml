module TS = Set.Make (Rdf.Triple)

type t = { adds : TS.t; dels : TS.t }

(* Invariant: adds ∩ dels = ∅ — [insert]/[remove] maintain it, so the
   merged world is simply (base \ dels) ∪ adds with no ordering
   ambiguity. *)

let empty = { adds = TS.empty; dels = TS.empty }
let insert t tr = { adds = TS.add tr t.adds; dels = TS.remove tr t.dels }
let remove t tr = { adds = TS.remove tr t.adds; dels = TS.add tr t.dels }

let apply t ~adds ~dels =
  let t = List.fold_left remove t dels in
  List.fold_left insert t adds

let adds t = TS.elements t.adds
let dels t = TS.elements t.dels
let add_count t = TS.cardinal t.adds
let del_count t = TS.cardinal t.dels
let is_empty t = TS.is_empty t.adds && TS.is_empty t.dels
let size t = add_count t + del_count t

(* ------------------------------------------------------------------ *)
(* Compilation: delta -> overlay engine                                 *)
(* ------------------------------------------------------------------ *)

module MG = Mgraph.Multigraph
module SI = Mgraph.Sorted_ints

(* (subject vertex-term, predicate IRI, object) views of a triple set,
   split by object kind: IRI/bnode objects are edges, literal objects
   are attributes. *)
let classify set =
  TS.fold
    (fun { Rdf.Triple.subject; predicate; obj } (edges, attrs) ->
      let pred =
        match predicate with
        | Rdf.Term.Iri iri -> iri
        | Rdf.Term.Literal _ | Rdf.Term.Bnode _ -> assert false
      in
      match obj with
      | Rdf.Term.Literal lit -> (edges, (subject, pred, lit) :: attrs)
      | Rdf.Term.Iri _ | Rdf.Term.Bnode _ ->
          ((subject, pred, obj) :: edges, attrs))
    set ([], [])

let sorted_keys tbl =
  Array.of_list (List.sort String.compare (Hashtbl.fold (fun k _ l -> k :: l) tbl []))

(* Group resolved edges by one endpoint: [sel] projects (owner, other,
   type). *)
let group sel lst =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let v, v', ty = sel e in
      let prev = try Hashtbl.find tbl v with Not_found -> [] in
      Hashtbl.replace tbl v ((v', ty) :: prev))
    lst;
  tbl

let find_group tbl v = try Hashtbl.find tbl v with Not_found -> []

(* One vertex's merged adjacency in one direction: [prev] (sorted by
   neighbour) with the batch's removed and added (neighbour, type) pairs
   applied in one merge pass — O(degree + changes · log changes). A batch
   never both adds and removes one triple, so the order in which one
   neighbour's changes apply does not matter. *)
let merge_adjacency prev ~dels ~adds =
  let tag add = List.rev_map (fun (w, ty) -> (w, ty, add)) in
  let changes =
    List.sort
      (fun (a, _, _) (b, _, _) -> Int.compare a b)
      (List.rev_append (tag false dels) (tag true adds))
  in
  let rec apply w tys = function
    | (w', ty, add) :: rest when w' = w ->
        apply w (if add then SI.union tys [| ty |] else SI.diff tys [| ty |]) rest
    | rest -> (tys, rest)
  in
  let n = Array.length prev in
  let rec go i changes acc =
    match changes with
    | (w, _, _) :: _ when i >= n || fst prev.(i) >= w ->
        let tys, i' =
          if i < n && fst prev.(i) = w then (snd prev.(i), i + 1) else ([||], i)
        in
        let tys, rest = apply w tys changes in
        go i' rest (if Array.length tys = 0 then acc else (w, tys) :: acc)
    | _ when i < n -> go (i + 1) changes (prev.(i) :: acc)
    | _ -> acc
  in
  Array.of_list (List.rev (go 0 changes []))

(* Lower one batch (a delta: adds ∩ dels = ∅) onto [prev], a frozen
   engine or an overlay built by an earlier call. Everything is read from
   [prev]'s merged state and only what the batch touches is recomputed;
   the overlay constructors carry the rest forward. *)
let patch prev delta =
  let db = Engine.db prev in
  let g = Database.graph db in
  let vn = Database.vertex_count db in
  let en = Database.edge_type_count db in
  let an = Database.attribute_count db in
  let add_edges, add_attrs = classify delta.adds in
  let del_edges, del_attrs = classify delta.dels in
  (* -------- id assignment for terms [prev] doesn't know -------- *)
  let new_v = Hashtbl.create 16 in
  let note_term term =
    match Database.key_of_term term with
    | None -> ()
    | Some key ->
        if Database.vertex_of_term db term = None then
          Hashtbl.replace new_v key ()
  in
  List.iter
    (fun (s, _, o) ->
      note_term s;
      note_term o)
    add_edges;
  List.iter (fun (s, _, _) -> note_term s) add_attrs;
  let new_vertex_keys = sorted_keys new_v in
  let v_assign = Hashtbl.create 16 in
  Array.iteri (fun i k -> Hashtbl.replace v_assign k (vn + i)) new_vertex_keys;
  let vid term =
    match Database.vertex_of_term db term with
    | Some _ as r -> r
    | None -> (
        match Database.key_of_term term with
        | None -> None
        | Some key -> Hashtbl.find_opt v_assign key)
  in
  let new_e = Hashtbl.create 8 in
  List.iter
    (fun (_, p, _) ->
      if Database.edge_type_of_iri db p = None then Hashtbl.replace new_e p ())
    add_edges;
  let new_edge_iris = sorted_keys new_e in
  let e_assign = Hashtbl.create 8 in
  Array.iteri (fun i p -> Hashtbl.replace e_assign p (en + i)) new_edge_iris;
  let eid p =
    match Database.edge_type_of_iri db p with
    | Some _ as r -> r
    | None -> Hashtbl.find_opt e_assign p
  in
  let akey p lit = (p, Rdf.Term.to_string (Rdf.Term.Literal lit)) in
  let new_a = Hashtbl.create 8 in
  List.iter
    (fun (_, p, lit) ->
      if Database.attribute_of db ~pred:p ~lit = None then
        Hashtbl.replace new_a (akey p lit) (p, lit))
    add_attrs;
  let new_attr_keys =
    List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) new_a [])
  in
  let new_attr_pairs =
    Array.of_list (List.map (fun k -> Hashtbl.find new_a k) new_attr_keys)
  in
  let a_assign = Hashtbl.create 8 in
  List.iteri (fun i k -> Hashtbl.replace a_assign k (an + i)) new_attr_keys;
  let aid p lit =
    match Database.attribute_of db ~pred:p ~lit with
    | Some _ as r -> r
    | None -> Hashtbl.find_opt a_assign (akey p lit)
  in
  (* -------- resolve; deletions of unknown terms are no-ops -------- *)
  let redges lst =
    List.filter_map
      (fun (s, p, o) ->
        match (vid s, eid p, vid o) with
        | Some si, Some ei, Some oi -> Some (si, ei, oi)
        | _ -> None)
      lst
  in
  let rattrs lst =
    List.filter_map
      (fun (s, p, lit) ->
        match (vid s, aid p lit) with
        | Some si, Some ai -> Some (si, ai)
        | _ -> None)
      lst
  in
  let eadds = redges add_edges and edels = redges del_edges in
  let aadds = rattrs add_attrs and adels = rattrs del_attrs in
  (* -------- merged adjacency of every touched vertex -------- *)
  let out_adds = group (fun (s, e, o) -> (s, o, e)) eadds in
  let out_dels = group (fun (s, e, o) -> (s, o, e)) edels in
  let in_adds = group (fun (s, e, o) -> (o, s, e)) eadds in
  let in_dels = group (fun (s, e, o) -> (o, s, e)) edels in
  let touch tbl v = Hashtbl.replace tbl v () in
  let out_touch = Hashtbl.create 16 and in_touch = Hashtbl.create 16 in
  List.iter
    (fun (s, _, o) ->
      touch out_touch s;
      touch in_touch o)
    eadds;
  List.iter
    (fun (s, _, o) ->
      touch out_touch s;
      touch in_touch o)
    edels;
  let patch_dir dir touched adds_t dels_t =
    Hashtbl.fold
      (fun v () acc ->
        let prev_adj = if v < vn then MG.adjacency g dir v else [||] in
        let dels = find_group dels_t v and adds = find_group adds_t v in
        (v, merge_adjacency prev_adj ~dels ~adds) :: acc)
      touched []
  in
  let out_patches = patch_dir MG.Out out_touch out_adds out_dels in
  let in_patches = patch_dir MG.In in_touch in_adds in_dels in
  (* -------- merged attribute sets -------- *)
  let attr_touch = Hashtbl.create 16 in
  List.iter (fun (v, _) -> touch attr_touch v) aadds;
  List.iter (fun (v, _) -> touch attr_touch v) adels;
  let group_attrs lst =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (v, a) ->
        let prev = try Hashtbl.find tbl v with Not_found -> [] in
        Hashtbl.replace tbl v (a :: prev))
      lst;
    tbl
  in
  let av_adds = group_attrs aadds and av_dels = group_attrs adels in
  let attr_patches =
    Hashtbl.fold
      (fun v () acc ->
        let prev_attrs = if v < vn then MG.attributes g v else [||] in
        let removed = SI.of_list (find_group av_dels v) in
        let added = SI.of_list (find_group av_adds v) in
        (v, SI.union (SI.diff prev_attrs removed) added) :: acc)
      attr_touch []
  in
  (* -------- exact triple count -------- *)
  let present_edge (s, e, o) =
    s < vn && o < vn && MG.has_edge g s e o
  in
  let present_attr (v, a) = v < vn && SI.mem (MG.attributes g v) a in
  let count p l = List.fold_left (fun n x -> if p x then n + 1 else n) 0 l in
  let triple_count =
    Database.triple_count db
    + count (fun e -> not (present_edge e)) eadds
    + count (fun a -> not (present_attr a)) aadds
    - count present_edge edels
    - count present_attr adels
  in
  (* -------- assemble overlays -------- *)
  let vertex_count = vn + Array.length new_vertex_keys in
  let graph =
    MG.overlay ~base:g ~vertex_count ~out:out_patches ~in_:in_patches
      ~attrs:attr_patches ()
  in
  let odb =
    Database.overlay ~base:db ~graph ~new_vertices:new_vertex_keys
      ~new_edge_types:new_edge_iris ~new_attributes:new_attr_pairs
      ~triple_count ()
  in
  (* Per-attribute vertex-list patches for the attribute index. *)
  let prev_ai = Engine.attribute_index prev in
  let a_changed = Hashtbl.create 16 in
  List.iter (fun (_, a) -> touch a_changed a) aadds;
  List.iter (fun (_, a) -> touch a_changed a) adels;
  let by_attr lst =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (v, a) ->
        let prev = try Hashtbl.find tbl a with Not_found -> [] in
        Hashtbl.replace tbl a (v :: prev))
      lst;
    tbl
  in
  let aa = by_attr aadds and ad = by_attr adels in
  let patched_lists =
    Hashtbl.fold
      (fun a () acc ->
        let prev_list =
          Mgraph.Posting.to_array (Attribute_index.vertices_with prev_ai a)
        in
        let removed = SI.of_list (find_group ad a) in
        let added = SI.of_list (find_group aa a) in
        (a, SI.union (SI.diff prev_list removed) added) :: acc)
      a_changed []
  in
  let attribute =
    Attribute_index.overlay ~base:prev_ai
      ~attribute_count:(Database.attribute_count odb)
      ~patched:patched_lists ()
  in
  let keys tbl = Hashtbl.fold (fun v () l -> v :: l) tbl [] in
  let syn_touch = Hashtbl.copy out_touch in
  List.iter (fun v -> touch syn_touch v) (keys in_touch);
  (* Synopses summarize edges only: attribute changes add just the
     vertices they create. *)
  List.iter (fun v -> if v >= vn then touch syn_touch v) (keys attr_touch);
  let synopsis =
    Synopsis_index.overlay
      ~base:(Engine.synopsis_index prev)
      ~graph ~touched:(keys syn_touch) ()
  in
  (* The overlay keeps the generation's statistics: stale against the
     delta, but estimates only steer plans — answers are
     strategy-independent — and recomputing per published epoch would
     put an O(E) scan on the update path. Compaction rebuilds them. *)
  Engine.with_parts prev ~db:odb ~attribute ~synopsis

let extend prev ~adds ~dels = patch prev (apply empty ~adds ~dels)
let compile = patch
