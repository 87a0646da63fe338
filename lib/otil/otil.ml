module Posting = Mgraph.Posting

type node = {
  label : int;
  mutable children : node list;  (* sorted by increasing label *)
  mutable values : int list;  (* values whose word terminates here *)
}

(* A per-symbol inverted list: [sorted] is the authoritative sorted
   duplicate-free array once materialized; [items] holds only the values
   added since (pending, unsorted). The full contents are always
   [items ∪ sorted]. Only the {e building} trie keeps these — a frozen
   trie answers symbol queries from its word table. *)
type inverted = {
  mutable items : int list;
  mutable sorted : int array option;
}

(* The frozen form. A vertex-neighbourhood trie is tiny (a handful of
   words of one or two symbols), so per-list heap blocks are nearly all
   structural overhead. Freezing packs the (word → values) table into
   ONE int array plus a pool of large posting lists:

     frozen.(0)      word count k
     frozen.(1 ..)   per word, in lexicographic order:
                       length, its symbols (ascending), then a valref

   A valref is one int [v]: [v >= 0] announces an inline value list of
   [v] sorted ints following directly; [v < 0] refers to [pool.(-v-1)].
   Small Raw value lists inline (the data is cheaper than a box); lists
   the layout policy compressed — or large Raw lists — live in [pool]
   as postings and are returned zero-copy. [frozen = [||]] means the
   trie is in its mutable building state. *)

let inline_max = 64

(* All frozen-empty tries share this table (never mutated). *)
let frozen_empty = [| 0 |]

type t = {
  mutable roots : node list;  (* sorted by increasing label *)
  (* Building-side per-symbol inverted lists as two parallel arrays:
     sorted distinct symbols in [sym_keys.(0 .. sym_count - 1)],
     matching lists in [sym_vals]. Capacity doubles on growth; slots
     past [sym_count] are junk. Cleared when the trie freezes. *)
  mutable sym_keys : int array;
  mutable sym_vals : inverted array;
  mutable sym_count : int;
  mutable cardinal : int;
  mutable frozen : int array;  (* non-empty ⇔ frozen *)
  mutable pool : Posting.t array;
}

let create () =
  {
    roots = [];
    sym_keys = [||];
    sym_vals = [||];
    sym_count = 0;
    cardinal = 0;
    frozen = [||];
    pool = [||];
  }

let prepared t = Array.length t.frozen > 0

(* Index of [s] among the live symbol slots, or the insertion point
   encoded as [-(i + 1)] when absent. *)
let find_slot t s =
  let lo = ref 0 and hi = ref t.sym_count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get t.sym_keys mid < s then lo := mid + 1 else hi := mid
  done;
  if !lo < t.sym_count && t.sym_keys.(!lo) = s then !lo else - (!lo + 1)

let insert_symbol t i s l =
  let n = t.sym_count in
  if n = Array.length t.sym_keys then begin
    let cap = if n = 0 then 4 else 2 * n in
    let ks = Array.make cap 0 in
    let vs = Array.make cap l in
    Array.blit t.sym_keys 0 ks 0 n;
    Array.blit t.sym_vals 0 vs 0 n;
    t.sym_keys <- ks;
    t.sym_vals <- vs
  end;
  Array.blit t.sym_keys i t.sym_keys (i + 1) (n - i);
  Array.blit t.sym_vals i t.sym_vals (i + 1) (n - i);
  t.sym_keys.(i) <- s;
  t.sym_vals.(i) <- l;
  t.sym_count <- n + 1

(* Find or create the child with [label] in a sorted sibling list. *)
let rec locate siblings label =
  match siblings with
  | [] ->
      let n = { label; children = []; values = [] } in
      (n, [ n ])
  | x :: rest ->
      if x.label = label then (x, siblings)
      else if x.label > label then
        let n = { label; children = []; values = [] } in
        (n, n :: siblings)
      else
        let n, rest' = locate rest label in
        (n, x :: rest')

(* Insert into the building trie without touching [cardinal] — shared
   by [add] and the thaw path. *)
let insert t word value =
  let node = ref None in
  let siblings = ref t.roots in
  Array.iter
    (fun symbol ->
      let n, siblings' = locate !siblings symbol in
      (match !node with
      | None -> t.roots <- siblings'
      | Some parent -> parent.children <- siblings');
      node := Some n;
      siblings := n.children;
      let lst =
        let i = find_slot t symbol in
        if i >= 0 then t.sym_vals.(i)
        else begin
          let l = { items = []; sorted = None } in
          insert_symbol t (- i - 1) symbol l;
          l
        end
      in
      lst.items <- value :: lst.items)
    word;
  match !node with
  | None -> assert false
  | Some terminal -> terminal.values <- value :: terminal.values

(* ---------- frozen-table accessors ---------- *)

(* Walk the packed word table: [f i ~soff ~len ~voff] sees word [i]'s
   symbols at [fz.(soff .. soff + len - 1)] and its valref at [voff]. *)
let frozen_iter_words fz f =
  let k = fz.(0) in
  let off = ref 1 in
  for i = 0 to k - 1 do
    let len = fz.(!off) in
    let soff = !off + 1 in
    let voff = soff + len in
    f i ~soff ~len ~voff;
    let v = fz.(voff) in
    off := voff + 1 + if v >= 0 then v else 0
  done

(* The value list behind a valref, as a posting. Inline lists wrap a
   fresh slice; pooled lists return the resident posting zero-copy. *)
let value_posting t voff =
  let v = t.frozen.(voff) in
  if v >= 0 then Posting.raw (Array.sub t.frozen (voff + 1) v)
  else t.pool.(- v - 1)

let value_array t voff =
  let v = t.frozen.(voff) in
  if v >= 0 then Array.sub t.frozen (voff + 1) v
  else Posting.to_array t.pool.(- v - 1)

let frozen_words t =
  let out = ref [] in
  frozen_iter_words t.frozen (fun _ ~soff ~len ~voff ->
      out := (Array.sub t.frozen soff len, value_array t voff) :: !out);
  List.rev !out

(* Freeze a (word, posting) table, words already in lexicographic
   order. Small Raw lists inline into the packed array; everything else
   keeps its posting in the pool. *)
let freeze t table =
  let size = ref 1 in
  let npool = ref 0 in
  let entries =
    List.map
      (fun (w, p) ->
        let n = Posting.length p in
        if Posting.layout p = Posting.Raw && n <= inline_max then begin
          size := !size + Array.length w + 2 + n;
          (w, `Inline (Posting.to_array p))
        end
        else begin
          size := !size + Array.length w + 2;
          incr npool;
          (w, `Pool p)
        end)
      table
  in
  if entries = [] then begin
    t.frozen <- frozen_empty;
    t.pool <- [||]
  end
  else begin
    let fz = Array.make !size 0 in
    let pool = Array.make !npool Posting.empty in
    fz.(0) <- List.length entries;
    let off = ref 1 and pi = ref 0 in
    List.iter
      (fun (w, v) ->
        let len = Array.length w in
        fz.(!off) <- len;
        Array.blit w 0 fz (!off + 1) len;
        let voff = !off + 1 + len in
        match v with
        | `Inline a ->
            let n = Array.length a in
            fz.(voff) <- n;
            Array.blit a 0 fz (voff + 1) n;
            off := voff + 1 + n
        | `Pool p ->
            fz.(voff) <- - (!pi + 1);
            pool.(!pi) <- p;
            incr pi;
            off := voff + 1)
      entries;
    t.frozen <- fz;
    t.pool <- pool
  end;
  t.roots <- [];
  t.sym_keys <- [||];
  t.sym_vals <- [||];
  t.sym_count <- 0

(* Rebuild the mutable trie from the frozen table — the thaw path for
   [add] after [prepare]. Rare (tests, incremental extension); queries
   never thaw. *)
let thaw t =
  if prepared t then begin
    let table = frozen_words t in
    t.frozen <- [||];
    t.pool <- [||];
    List.iter
      (fun (word, values) -> Array.iter (fun v -> insert t word v) values)
      table
  end

let add t word value =
  let k = Array.length word in
  if k = 0 then invalid_arg "Otil.add: empty word";
  if not (Mgraph.Sorted_ints.is_sorted word) then
    invalid_arg "Otil.add: word must be strictly increasing";
  thaw t;
  insert t word value;
  t.cardinal <- t.cardinal + 1

let cardinal t = t.cardinal

(* ---------- building-trie queries (pure reads) ---------- *)

(* Collect every terminal value in the subtree rooted at [n]. *)
let rec collect_subtree n acc =
  let acc = List.rev_append n.values acc in
  List.fold_left (fun acc c -> collect_subtree c acc) acc n.children

(* DFS with pruning: labels are increasing along every path, so once a
   sibling's label exceeds the next needed query symbol, no deeper word in
   that subtree can contain it. *)
let rec search query node qi acc =
  let qn = Array.length query in
  if qi >= qn then collect_subtree node acc
  else begin
    let needed = query.(qi) in
    let qi' = if node.label = needed then qi + 1 else qi in
    if qi' >= qn then collect_subtree node acc
    else
      let needed' = query.(qi') in
      List.fold_left
        (fun acc child ->
          if child.label <= needed' then search query child qi' acc else acc)
        acc node.children
  end

let inverted_contents l =
  match (l.sorted, l.items) with
  | Some a, [] -> a
  | None, items -> Mgraph.Sorted_ints.of_list items
  | Some a, items ->
      Mgraph.Sorted_ints.of_list (List.rev_append items (Array.to_list a))

(* ---------- frozen queries (directly over the word table) ---------- *)

(* Is the sorted [q.(qi ..)] a subset of fz.(off .. off+len-1)? *)
let rec word_contains fz off len q qi =
  qi >= Array.length q
  ||
  (len > 0
  &&
  let s = fz.(off) and needed = q.(qi) in
  if s = needed then word_contains fz (off + 1) (len - 1) q (qi + 1)
  else if s > needed then false
  else word_contains fz (off + 1) (len - 1) q qi)

(* Union the value lists behind several valrefs. One hit returns the
   stored list (zero-copy for pooled postings). *)
let union_valrefs t = function
  | [] -> Posting.empty
  | [ voff ] -> value_posting t voff
  | voffs ->
      let arrays = List.rev_map (value_array t) voffs in
      Posting.raw
        (List.fold_left Mgraph.Sorted_ints.union (List.hd arrays)
           (List.tl arrays))

let frozen_supersets t q =
  let hits = ref [] in
  frozen_iter_words t.frozen (fun _ ~soff ~len ~voff ->
      if word_contains t.frozen soff len q 0 then hits := voff :: !hits);
  union_valrefs t (List.rev !hits)

let frozen_with_symbol t s =
  let hits = ref [] in
  frozen_iter_words t.frozen (fun _ ~soff ~len ~voff ->
      (* symbols are ascending within a word: stop past [s] *)
      let rec has i =
        i < len
        &&
        let x = t.frozen.(soff + i) in
        x = s || (x < s && has (i + 1))
      in
      if has 0 then hits := voff :: !hits);
  union_valrefs t (List.rev !hits)

let supersets t query =
  if not (Mgraph.Sorted_ints.is_sorted query) then
    invalid_arg "Otil.supersets: query must be strictly increasing";
  if prepared t then frozen_supersets t query
  else
    let acc =
      if Array.length query = 0 then
        List.fold_left (fun acc r -> collect_subtree r acc) [] t.roots
      else
        let needed = query.(0) in
        List.fold_left
          (fun acc root ->
            if root.label <= needed then search query root 0 acc else acc)
          [] t.roots
    in
    Posting.raw (Mgraph.Sorted_ints.of_list acc)

let with_symbol t s =
  if prepared t then frozen_with_symbol t s
  else
    let i = find_slot t s in
    if i >= 0 then Posting.raw (inverted_contents t.sym_vals.(i))
    else Posting.empty

(* ---------- freeze ---------- *)

(* The (word, sorted values) table of the building trie, words in
   lexicographic order (pre-order walk with ascending siblings). *)
let building_words t =
  let out = ref [] in
  let rec walk prefix n =
    let word = n.label :: prefix in
    if n.values <> [] then
      out :=
        (Array.of_list (List.rev word), Mgraph.Sorted_ints.of_list n.values)
        :: !out;
    List.iter (walk word) n.children
  in
  List.iter (walk []) t.roots;
  List.rev !out

let prepare ?(policy = Posting.Auto) t =
  if not (prepared t) then
    freeze t
      (List.map
         (fun (w, vs) -> (w, Posting.of_array ~policy vs))
         (building_words t))

let words t = if prepared t then frozen_words t else building_words t

let posting_stats t s =
  if prepared t then begin
    frozen_iter_words t.frozen (fun _ ~soff:_ ~len:_ ~voff ->
        let v = t.frozen.(voff) in
        (* inline lists are semantically Raw and carry no payload *)
        if v >= 0 then begin
          s.Posting.raw_lists <- s.Posting.raw_lists + 1;
          s.Posting.elements <- s.Posting.elements + v
        end);
    Array.iter (Posting.count_into s) t.pool
  end

(* ---------- snapshot codec (word table + layout-tagged postings) ---------- *)

let write_sorted buf write_int a =
  let n = Array.length a in
  write_int buf n;
  if n > 0 then begin
    write_int buf a.(0);
    for i = 1 to n - 1 do
      write_int buf (a.(i) - a.(i - 1) - 1)
    done
  end

let encode_frozen buf ~write_int ~write_posting t =
  write_int buf t.cardinal;
  if prepared t then begin
    write_int buf t.frozen.(0);
    frozen_iter_words t.frozen (fun _ ~soff ~len ~voff ->
        write_sorted buf write_int (Array.sub t.frozen soff len);
        write_posting buf (value_posting t voff))
  end
  else begin
    let table = building_words t in
    write_int buf (List.length table);
    List.iter
      (fun (w, vs) ->
        write_sorted buf write_int w;
        write_posting buf (Posting.raw vs))
      table
  end

(* Lexicographic with prefix-first — the pre-order trie walk's word
   order (polymorphic compare on arrays ranks by length first, which is
   not it). *)
let lex_compare a b =
  let la = Array.length a and lb = Array.length b in
  let n = min la lb in
  let rec go i =
    if i = n then compare la lb
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let decode_frozen src pos ~read_int ~read_posting =
  let fail msg = failwith ("Otil.decode_frozen: " ^ msg) in
  let cardinal = read_int src pos in
  let k = read_int src pos in
  if cardinal < 0 || k < 0 then fail "negative count";
  let table = ref [] in
  for _ = 1 to k do
    let len = read_int src pos in
    if len <= 0 then fail "empty word";
    let w = Array.make len (read_int src pos) in
    if w.(0) < 0 then fail "negative symbol";
    for i = 1 to len - 1 do
      w.(i) <- w.(i - 1) + 1 + read_int src pos
    done;
    (match !table with
    | (prev, _) :: _ when lex_compare prev w >= 0 -> fail "words not sorted"
    | _ -> ());
    (* the stored posting keeps its frozen layout verbatim (small Raw
       lists inline — physically identical on re-encode) *)
    let p = read_posting src pos in
    if Posting.is_empty p then fail "empty value set";
    table := (w, p) :: !table
  done;
  let t =
    {
      roots = [];
      sym_keys = [||];
      sym_vals = [||];
      sym_count = 0;
      cardinal;
      frozen = [||];
      pool = [||];
    }
  in
  freeze t (List.rev !table);
  t
