(* Open addressing over id arrays: [slots] holds ids (-1 = empty) under
   linear probing, with a power-of-two length and at most half full.
   Each id's key hash is kept in [hashes], so a probe compares hashes
   before strings, and growing re-slots ids without touching a string. *)
type t = {
  mutable values : string array;  (* id -> key, grown geometrically *)
  mutable hashes : int array;  (* id -> hash of its key *)
  mutable slots : int array;  (* id, or -1 when empty *)
  mutable size : int;
}

let hash (s : string) = Hashtbl.hash s

(* The smallest power of two that keeps [n] ids at most half full. *)
let slot_count n =
  let rec go c = if c >= 2 * n then c else go (2 * c) in
  go 2

let create ?(initial_capacity = 64) () =
  let n = max 1 initial_capacity in
  {
    values = Array.make n "";
    hashes = Array.make n 0;
    slots = Array.make (slot_count n) (-1);
    size = 0;
  }

(* The slot holding [s] (hash [h]), or the empty slot where it goes. *)
let rec probe d s h i =
  let id = Array.unsafe_get d.slots i in
  if id < 0 || (Array.unsafe_get d.hashes id = h
                && String.equal (Array.unsafe_get d.values id) s)
  then i
  else probe d s h ((i + 1) land (Array.length d.slots - 1))

let locate d s h = probe d s h (h land (Array.length d.slots - 1))

(* Place [id] (hash [h]) in the first empty slot: ids are distinct, so
   no key is compared. *)
let place slots id h =
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  while Array.unsafe_get slots !i >= 0 do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set slots !i id

let reslot d n =
  let slots = Array.make n (-1) in
  for id = 0 to d.size - 1 do
    place slots id (Array.unsafe_get d.hashes id)
  done;
  d.slots <- slots

let grow d =
  let cap = 2 * Array.length d.values in
  let values = Array.make cap "" and hashes = Array.make cap 0 in
  Array.blit d.values 0 values 0 d.size;
  Array.blit d.hashes 0 hashes 0 d.size;
  d.values <- values;
  d.hashes <- hashes

let intern d s =
  let h = hash s in
  let i = locate d s h in
  let found = Array.unsafe_get d.slots i in
  if found >= 0 then found
  else begin
    let id = d.size in
    if id = Array.length d.values then grow d;
    d.values.(id) <- s;
    d.hashes.(id) <- h;
    d.size <- id + 1;
    if 2 * d.size > Array.length d.slots then
      reslot d (2 * Array.length d.slots)
    else Array.unsafe_set d.slots i id;
    id
  end

let find_opt d s =
  let id = Array.unsafe_get d.slots (locate d s (hash s)) in
  if id < 0 then None else Some id

let mem d s = Array.unsafe_get d.slots (locate d s (hash s)) >= 0

let value d id =
  if id < 0 || id >= d.size then
    invalid_arg (Printf.sprintf "Dict.value: unknown id %d (size %d)" id d.size)
  else d.values.(id)

let size d = d.size

let copy d =
  {
    values = Array.copy d.values;
    hashes = Array.copy d.hashes;
    slots = Array.copy d.slots;
    size = d.size;
  }

let select d ?next ids =
  let base = d.size in
  let total = base + match next with None -> 0 | Some x -> x.size in
  let n = Array.length ids in
  let seen = Bytes.make total '\000' in
  let r =
    {
      values = Array.make (max 1 n) "";
      hashes = Array.make (max 1 n) 0;
      slots = Array.make (slot_count n) (-1);
      size = n;
    }
  in
  for i = 0 to n - 1 do
    let old = ids.(i) in
    if old < 0 || old >= total || Bytes.get seen old <> '\000' then
      invalid_arg
        (Printf.sprintf "Dict.select: id %d repeated or unknown (size %d)" old
           total);
    Bytes.set seen old '\001';
    let src = if old < base then d else Option.get next in
    let j = if old < base then old else old - base in
    r.values.(i) <- src.values.(j);
    r.hashes.(i) <- src.hashes.(j);
    place r.slots i src.hashes.(j)
  done;
  r
