let dims = Mgraph.Synopsis.dims

(* Delta overlay: merged synopses of the vertices the write stores
   touched (and of every vertex they added); everything else answers
   from the frozen base. *)
type shadow = {
  ids : int array;  (* sorted vertex ids *)
  syns : int array;  (* their synopses, packed: [ids.(j)] at [j * dims] *)
}

type t = {
  base : int array;  (* frozen synopses, packed: vertex [v] at [v * dims] *)
  vertices : int;  (* vertices with a synopsis (>= base's on overlays) *)
  upper : int array;  (* componentwise maximum over every stored synopsis *)
  shadow : shadow option;  (* [None] on a frozen index *)
}

(* Lemma 1 at offset [off] of a packed array: [∀i ≥ from. q_i ≤ d_i].
   Top level and fully applied, so the per-vertex test allocates
   nothing; it stops at the first failing dimension. *)
let rec dominates_at packed off query from =
  from >= dims
  || (query.(from) <= packed.(off + from)
     && dominates_at packed off query (from + 1))

let fill_range db packed ~lo ~hi =
  let g = Database.graph db in
  for v = lo to hi - 1 do
    Array.blit (Mgraph.Synopsis.of_vertex g v) 0 packed (v * dims) dims
  done

(* Componentwise maximum, floored at the empty-side sentinel so an
   all-empty dataset still compares correctly against query synopses. *)
let raise_upper upper packed =
  Array.iteri
    (fun k x ->
      let i = k mod dims in
      if x > upper.(i) then upper.(i) <- x)
    packed

let of_packed packed =
  if Array.length packed mod dims <> 0 then
    invalid_arg "Synopsis_index.of_packed: length is not a multiple of dims";
  let upper = Array.make dims Mgraph.Synopsis.f3_empty in
  raise_upper upper packed;
  { base = packed; vertices = Array.length packed / dims; upper; shadow = None }

let build db =
  let n = Mgraph.Multigraph.vertex_count (Database.graph db) in
  let packed = Array.make (n * dims) 0 in
  fill_range db packed ~lo:0 ~hi:n;
  of_packed packed

let packed t =
  if t.shadow <> None then invalid_arg "Synopsis_index.packed: overlay index";
  t.base

let vertex_count t = t.vertices

(* Index of [v] in a shadow's ids, or [-1]. *)
let shadow_slot s v =
  let j = Mgraph.Sorted_ints.lower_bound_from s.ids 0 v in
  if j < Array.length s.ids && s.ids.(j) = v then j else -1

let overlay ~base ~graph ~touched () =
  let n = Mgraph.Multigraph.vertex_count graph in
  if n < base.vertices then
    invalid_arg "Synopsis_index.overlay: graph smaller than base";
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg "Synopsis_index.overlay: vertex out of range")
    touched;
  (* Recomputed here: the touched vertices and every vertex [graph]
     adds, so each vertex id below [n] has an effective synopsis. *)
  let fresh =
    Mgraph.Sorted_ints.union
      (Mgraph.Sorted_ints.of_list touched)
      (Array.init (n - base.vertices) (fun i -> base.vertices + i))
  in
  let prev = Option.value base.shadow ~default:{ ids = [||]; syns = [||] } in
  let ids = Mgraph.Sorted_ints.union prev.ids fresh in
  let syns = Array.make (Array.length ids * dims) 0 in
  Array.iteri
    (fun j v ->
      if Mgraph.Sorted_ints.mem fresh v then
        Array.blit (Mgraph.Synopsis.of_vertex graph v) 0 syns (j * dims) dims
      else Array.blit prev.syns (shadow_slot prev v * dims) syns (j * dims) dims)
    ids;
  let upper = Array.copy base.upper in
  raise_upper upper syns;
  { base with vertices = n; upper; shadow = Some { ids; syns } }

let dominates t v query =
  match t.shadow with
  | None -> dominates_at t.base (v * dims) query 0
  | Some s -> (
      match shadow_slot s v with
      | -1 -> dominates_at t.base (v * dims) query 0
      | j -> dominates_at s.syns (j * dims) query 0)

let vertex_synopsis t v =
  match t.shadow with
  | None -> Array.sub t.base (v * dims) dims
  | Some s -> (
      match shadow_slot s v with
      | -1 -> Array.sub t.base (v * dims) dims
      | j -> Array.sub s.syns (j * dims) dims)

(* One pass over every vertex, in id order, so the result comes out
   sorted. On an overlay a cursor walks the sorted shadow ids alongside
   [v]: a shadowed vertex is tested on its merged synopsis, every other
   one on the base. A query above {!maxima} anywhere has no candidate
   and skips the pass. *)
let candidates t query =
  if not (dominates_at t.upper 0 query 0) then [||]
  else begin
    let out = ref (Array.make 256 0) and k = ref 0 in
    let emit v =
      if !k = Array.length !out then begin
        let bigger = Array.make (2 * !k) 0 in
        Array.blit !out 0 bigger 0 !k;
        out := bigger
      end;
      !out.(!k) <- v;
      incr k
    in
    (match t.shadow with
    | None ->
        for v = 0 to t.vertices - 1 do
          if dominates_at t.base (v * dims) query 0 then emit v
        done
    | Some s ->
        let j = ref 0 in
        for v = 0 to t.vertices - 1 do
          let hit =
            if !j < Array.length s.ids && s.ids.(!j) = v then begin
              incr j;
              dominates_at s.syns ((!j - 1) * dims) query 0
            end
            else dominates_at t.base (v * dims) query 0
          in
          if hit then emit v
        done);
    Array.sub !out 0 !k
  end

let candidates_of_signature t s = candidates t (Mgraph.Synopsis.of_signature s)

let maxima t = Array.copy t.upper
