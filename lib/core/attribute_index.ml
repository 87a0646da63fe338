module Posting = Mgraph.Posting

type t = {
  lists : Posting.t array;  (* attribute id -> sorted vertex ids *)
  patched : (int, Posting.t) Hashtbl.t option;
      (* delta overlay: fully merged lists of the attribute ids the
         write store touched (including ids past [lists]); [None] on
         frozen indexes *)
  n_attrs : int;  (* attribute_count; may exceed |lists| on overlays *)
}

let frozen lists = { lists; patched = None; n_attrs = Array.length lists }

(* The inverted lists are the attribute sets transposed: a counting
   sort of (attribute, vertex) pairs read in place, vertices in
   increasing order, so every list comes out sorted. *)
let build db =
  let g = Database.graph db in
  let n = Mgraph.Multigraph.vertex_count g in
  let n_attrs = Database.attribute_count db in
  let starts = Array.make (n_attrs + 1) 0 in
  let tally cells lo len =
    for k = lo to lo + len - 1 do
      starts.(cells.(k) + 1) <- starts.(cells.(k) + 1) + 1
    done
  in
  for v = 0 to n - 1 do
    Mgraph.Multigraph.with_attributes g v tally
  done;
  for a = 0 to n_attrs - 1 do
    starts.(a + 1) <- starts.(a + 1) + starts.(a)
  done;
  let holders = Array.make starts.(n_attrs) 0 in
  let fill = Array.sub starts 0 n_attrs in
  let current = ref 0 in
  let place cells lo len =
    for k = lo to lo + len - 1 do
      let a = cells.(k) in
      holders.(fill.(a)) <- !current;
      fill.(a) <- fill.(a) + 1
    done
  in
  for v = 0 to n - 1 do
    current := v;
    Mgraph.Multigraph.with_attributes g v place
  done;
  frozen
    (Array.init n_attrs (fun a ->
         Posting.of_array
           (Array.sub holders starts.(a) (starts.(a + 1) - starts.(a)))))

let of_postings lists = frozen lists

let postings t =
  if t.patched <> None then invalid_arg "Attribute_index.postings: overlay index";
  t.lists

let overlay ~base ~attribute_count ~patched () =
  if attribute_count < base.n_attrs then
    invalid_arg "Attribute_index.overlay: attribute_count below base";
  (* Over a previous overlay: copy its table (values shared), never
     mutate it. *)
  let tbl =
    match base.patched with
    | None -> Hashtbl.create (2 * List.length patched + 1)
    | Some prev -> Hashtbl.copy prev
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (a, l) ->
      if a < 0 || a >= attribute_count then
        invalid_arg "Attribute_index.overlay: attribute id out of range";
      if not (Mgraph.Sorted_ints.is_sorted l) || (Array.length l > 0 && l.(0) < 0)
      then invalid_arg "Attribute_index.overlay: list not sorted";
      if Hashtbl.mem seen a then
        invalid_arg "Attribute_index.overlay: duplicate attribute id";
      Hashtbl.replace seen a ();
      Hashtbl.replace tbl a (Posting.raw l))
    patched;
  { lists = base.lists; patched = Some tbl; n_attrs = attribute_count }

let vertices_with t a =
  match t.patched with
  | Some tbl when Hashtbl.mem tbl a -> Hashtbl.find tbl a
  | _ -> if a < 0 || a >= Array.length t.lists then Posting.empty else t.lists.(a)

let candidates t attrs =
  if Array.length attrs = 0 then
    invalid_arg "Attribute_index.candidates: empty attribute set";
  let lists = Array.to_list (Array.map (vertices_with t) attrs) in
  Posting.inter_many lists

let attribute_count t = t.n_attrs

let posting_stats t =
  let s = Posting.fresh_stats () in
  (match t.patched with
  | None -> Array.iter (Posting.count_into s) t.lists
  | Some _ ->
      for a = 0 to t.n_attrs - 1 do
        Posting.count_into s (vertices_with t a)
      done);
  s
