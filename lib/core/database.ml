(* Dictionary extension of a delta overlay: ids past the frozen base
   dictionaries' sizes map into these tables. The base dicts are mutable
   hashtables shared by every epoch pinned on the same generation, so
   they must never be interned into after freeze — new terms land here
   instead. *)
type ext = {
  e_vertices : (string, int) Hashtbl.t;  (* new vertex key -> id *)
  e_vertex_keys : string array;  (* id - base size -> key *)
  e_edge_types : (string, int) Hashtbl.t;
  e_edge_iris : string array;
  e_attributes : (string, int) Hashtbl.t;
  e_attr_data : (string * Rdf.Term.literal) array;
}

type t = {
  graph : Mgraph.Multigraph.t;
  vertices : Mgraph.Dict.t;  (* vertex key -> vertex id *)
  edge_types : Mgraph.Dict.t;  (* predicate IRI -> edge type id *)
  attributes : Mgraph.Dict.t;  (* attribute key -> attribute id *)
  attribute_data : (string * Rdf.Term.literal) array;  (* id -> (pred, lit) *)
  triple_count : int;
  ext : ext option;  (* Some on delta-overlay databases *)
}

(* Vertex dictionary keys: the raw IRI for IRIs, "_:label" for bnodes
   (an IRI can never start with "_:" so the encodings cannot clash). *)
let vertex_key = function
  | Rdf.Term.Iri iri -> Some iri
  | Rdf.Term.Bnode b -> Some ("_:" ^ b)
  | Rdf.Term.Literal _ -> None

let term_of_key key =
  if String.length key >= 2 && key.[0] = '_' && key.[1] = ':' then
    Rdf.Term.bnode (String.sub key 2 (String.length key - 2))
  else Rdf.Term.iri key

(* Attribute dictionary keys pair the predicate with the literal's
   canonical N-Triples rendering, separated by a NUL (never in IRIs). *)
let attr_key pred lit =
  pred ^ "\x00" ^ Rdf.Term.to_string (Rdf.Term.Literal lit)

let key_of_term = vertex_key

let of_triples triples =
  let vertices = Mgraph.Dict.create ()
  and edge_types = Mgraph.Dict.create ()
  and attributes = Mgraph.Dict.create () in
  let attribute_data = ref [] in
  let builder = Mgraph.Multigraph.Builder.create () in
  let count = ref 0 in
  List.iter
    (fun { Rdf.Triple.subject; predicate; obj } ->
      incr count;
      let s =
        match vertex_key subject with
        | Some key -> Mgraph.Dict.intern vertices key
        | None -> assert false (* Triple.make forbids literal subjects *)
      in
      let pred =
        match predicate with
        | Rdf.Term.Iri iri -> iri
        | Rdf.Term.Literal _ | Rdf.Term.Bnode _ -> assert false
      in
      match obj with
      | Rdf.Term.Literal lit ->
          let key = attr_key pred lit in
          let before = Mgraph.Dict.size attributes in
          let a = Mgraph.Dict.intern attributes key in
          if Mgraph.Dict.size attributes > before then
            attribute_data := (pred, lit) :: !attribute_data;
          Mgraph.Multigraph.Builder.add_attribute builder s a
      | Rdf.Term.Iri _ | Rdf.Term.Bnode _ ->
          let o =
            match vertex_key obj with
            | Some key -> Mgraph.Dict.intern vertices key
            | None -> assert false
          in
          let e = Mgraph.Dict.intern edge_types pred in
          Mgraph.Multigraph.Builder.add_edge builder s e o)
    triples;
  {
    graph = Mgraph.Multigraph.Builder.build builder;
    vertices;
    edge_types;
    attributes;
    attribute_data = Array.of_list (List.rev !attribute_data);
    triple_count = !count;
    ext = None;
  }

type parts = {
  p_graph : Mgraph.Multigraph.t;
  p_vertices : Mgraph.Dict.t;
  p_edge_types : Mgraph.Dict.t;
  p_attributes : Mgraph.Dict.t;
  p_attribute_data : (string * Rdf.Term.literal) array;
  p_triple_count : int;
}

let export t =
  {
    p_graph = t.graph;
    p_vertices = t.vertices;
    p_edge_types = t.edge_types;
    p_attributes = t.attributes;
    p_attribute_data = t.attribute_data;
    p_triple_count = t.triple_count;
  }

let import p =
  let g = p.p_graph in
  if Mgraph.Dict.size p.p_vertices <> Mgraph.Multigraph.vertex_count g then
    invalid_arg "Database.import: vertex dictionary / graph size mismatch";
  if Mgraph.Dict.size p.p_edge_types < Mgraph.Multigraph.edge_type_count g then
    invalid_arg "Database.import: edge-type dictionary too small for graph";
  if Array.length p.p_attribute_data <> Mgraph.Dict.size p.p_attributes then
    invalid_arg "Database.import: attribute dictionary / data length mismatch";
  let attr_count = Array.length p.p_attribute_data in
  (* Sorted: the last attribute is the largest. *)
  let check cells lo len =
    if len > 0 && cells.(lo + len - 1) >= attr_count then
      invalid_arg "Database.import: attribute id out of range"
  in
  for v = 0 to Mgraph.Multigraph.vertex_count g - 1 do
    Mgraph.Multigraph.with_attributes g v check
  done;
  if p.p_triple_count < 0 then invalid_arg "Database.import: negative triple count";
  {
    graph = g;
    vertices = p.p_vertices;
    edge_types = p.p_edge_types;
    attributes = p.p_attributes;
    attribute_data = p.p_attribute_data;
    triple_count = p.p_triple_count;
    ext = None;
  }

let graph t = t.graph

let vertex_of_term t term =
  match vertex_key term with
  | None -> None
  | Some key -> (
      match Mgraph.Dict.find_opt t.vertices key with
      | Some _ as r -> r
      | None -> (
          match t.ext with
          | None -> None
          | Some e -> Hashtbl.find_opt e.e_vertices key))

let key_of_vertex t v =
  let base_n = Mgraph.Dict.size t.vertices in
  if v < base_n then Mgraph.Dict.value t.vertices v
  else
    match t.ext with
    | Some e when v - base_n < Array.length e.e_vertex_keys ->
        e.e_vertex_keys.(v - base_n)
    | _ -> invalid_arg "Database.term_of_vertex: unknown vertex id"

let term_of_vertex t v = term_of_key (key_of_vertex t v)

let edge_type_of_iri t iri =
  match Mgraph.Dict.find_opt t.edge_types iri with
  | Some _ as r -> r
  | None -> (
      match t.ext with
      | None -> None
      | Some e -> Hashtbl.find_opt e.e_edge_types iri)

let iri_of_edge_type t e =
  let base_n = Mgraph.Dict.size t.edge_types in
  if e < base_n then Mgraph.Dict.value t.edge_types e
  else
    match t.ext with
    | Some x when e - base_n < Array.length x.e_edge_iris ->
        x.e_edge_iris.(e - base_n)
    | _ -> invalid_arg "Database.iri_of_edge_type: unknown edge type id"

let attribute_of t ~pred ~lit =
  let key = attr_key pred lit in
  match Mgraph.Dict.find_opt t.attributes key with
  | Some _ as r -> r
  | None -> (
      match t.ext with
      | None -> None
      | Some e -> Hashtbl.find_opt e.e_attributes key)

let attribute_data t a =
  if a >= 0 && a < Array.length t.attribute_data then t.attribute_data.(a)
  else
    let base_n = Array.length t.attribute_data in
    match t.ext with
    | Some e when a >= base_n && a - base_n < Array.length e.e_attr_data ->
        e.e_attr_data.(a - base_n)
    | _ -> invalid_arg "Database.attribute_data: unknown attribute id"

let attribute_predicate_exists t pred =
  Array.exists (fun (p, _) -> String.equal p pred) t.attribute_data
  ||
  match t.ext with
  | None -> false
  | Some e -> Array.exists (fun (p, _) -> String.equal p pred) e.e_attr_data

let ext_len f t = match t.ext with None -> 0 | Some e -> Array.length (f e)
let vertex_count t = Mgraph.Dict.size t.vertices + ext_len (fun e -> e.e_vertex_keys) t
let edge_type_count t = Mgraph.Dict.size t.edge_types + ext_len (fun e -> e.e_edge_iris) t
let attribute_count t = Mgraph.Dict.size t.attributes + ext_len (fun e -> e.e_attr_data) t
let triple_count t = t.triple_count

let to_triples t =
  let edge_triples =
    Mgraph.Multigraph.fold_edges
      (fun v types v' acc ->
        let s = term_of_vertex t v and o = term_of_vertex t v' in
        Array.fold_left
          (fun acc ty ->
            Rdf.Triple.make s (Rdf.Term.iri (iri_of_edge_type t ty)) o :: acc)
          acc types)
      t.graph []
  in
  let n = Mgraph.Multigraph.vertex_count t.graph in
  let attr_triples = ref [] in
  for v = n - 1 downto 0 do
    Array.iter
      (fun a ->
        let pred, lit = attribute_data t a in
        attr_triples :=
          Rdf.Triple.make (term_of_vertex t v) (Rdf.Term.iri pred)
            (Rdf.Term.Literal lit)
          :: !attr_triples)
      (Mgraph.Multigraph.attributes t.graph v)
  done;
  List.rev_append edge_triples !attr_triples

(* Compaction in id space: the graph packs itself afresh under its own
   renumbering, and the dictionaries are rebuilt from the kept ids'
   keys — each key interned once, into fresh tables, so the base
   dictionaries other epochs share are never touched. *)
let freeze t =
  let r = Mgraph.Multigraph.freeze t.graph in
  let dict kept key =
    let d = Mgraph.Dict.create ~initial_capacity:(max 16 (Array.length kept)) () in
    Array.iter (fun old -> ignore (Mgraph.Dict.intern d (key old))) kept;
    d
  in
  let attribute_key a =
    if a < Mgraph.Dict.size t.attributes then Mgraph.Dict.value t.attributes a
    else
      let pred, lit = attribute_data t a in
      attr_key pred lit
  in
  let attribute_data = Array.map (attribute_data t) r.attributes in
  let g = r.graph in
  let attribute_pairs = ref 0 in
  let count _ _ len = attribute_pairs := !attribute_pairs + len in
  for v = 0 to Mgraph.Multigraph.vertex_count g - 1 do
    Mgraph.Multigraph.with_attributes g v count
  done;
  {
    graph = g;
    vertices = dict r.vertices (key_of_vertex t);
    edge_types = dict r.edge_types (iri_of_edge_type t);
    attributes = dict r.attributes attribute_key;
    attribute_data;
    triple_count = Mgraph.Multigraph.triple_edge_count g + !attribute_pairs;
    ext = None;
  }

let literals_of t ~vertex ~pred =
  Array.fold_right
    (fun a acc ->
      let p, lit = attribute_data t a in
      if String.equal p pred then lit :: acc else acc)
    (Mgraph.Multigraph.attributes t.graph vertex)
    []

let pp_stats ppf t =
  Format.fprintf ppf
    "@[<v>triples: %d@,%a@,attributes: %d@,attribute vertices: %d@]"
    t.triple_count Mgraph.Multigraph.pp_stats t.graph (attribute_count t)
    (Array.fold_left
       (fun n attrs -> if Array.length attrs > 0 then n + 1 else n)
       0
       (Array.init (Mgraph.Multigraph.vertex_count t.graph) (fun v ->
            Mgraph.Multigraph.attributes t.graph v)))

(* ------------------------------------------------------------------ *)
(* Delta overlay                                                       *)
(* ------------------------------------------------------------------ *)

let is_overlay t = t.ext <> None

let overlay ~base ~graph ~new_vertices ~new_edge_types ~new_attributes
    ~triple_count () =
  if not (Mgraph.Multigraph.is_overlay graph) then
    invalid_arg "Database.overlay: graph must be a delta overlay";
  let base_vn = vertex_count base in
  if Mgraph.Multigraph.vertex_count graph <> base_vn + Array.length new_vertices
  then invalid_arg "Database.overlay: vertex dictionary / graph size mismatch";
  if triple_count < 0 then
    invalid_arg "Database.overlay: negative triple count";
  (* A previous overlay's extension is copied (values shared) and
     extended past its ids; the frozen dictionaries underneath stay
     untouched. *)
  let extend ~what ~dict ~first prev keys =
    let tbl =
      match base.ext with
      | None -> Hashtbl.create (2 * Array.length keys + 1)
      | Some e -> Hashtbl.copy (prev e)
    in
    Array.iteri
      (fun i key ->
        if Mgraph.Dict.mem dict key || Hashtbl.mem tbl key then
          invalid_arg (Printf.sprintf "Database.overlay: %s already known" what);
        Hashtbl.replace tbl key (first + i))
      keys;
    tbl
  in
  let append prev keys =
    match base.ext with None -> keys | Some e -> Array.append (prev e) keys
  in
  let attr_keys = Array.map (fun (p, l) -> attr_key p l) new_attributes in
  {
    base with
    graph;
    triple_count;
    ext =
      Some
        {
          e_vertices =
            extend ~what:"vertex key" ~dict:base.vertices ~first:base_vn
              (fun e -> e.e_vertices) new_vertices;
          e_vertex_keys = append (fun e -> e.e_vertex_keys) new_vertices;
          e_edge_types =
            extend ~what:"edge type" ~dict:base.edge_types
              ~first:(edge_type_count base) (fun e -> e.e_edge_types)
              new_edge_types;
          e_edge_iris = append (fun e -> e.e_edge_iris) new_edge_types;
          e_attributes =
            extend ~what:"attribute" ~dict:base.attributes
              ~first:(attribute_count base) (fun e -> e.e_attributes) attr_keys;
          e_attr_data = append (fun e -> e.e_attr_data) new_attributes;
        };
  }
