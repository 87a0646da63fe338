(* Compressed posting lists.

   Bit layout note: words are the native 63-bit OCaml int stored in an
   [(int, int_elt, c_layout) Bigarray.Array1.t] — element reads are
   unboxed (the int32/int64 kinds box every access). All bit plumbing
   uses [lsr]/[lsl]/[land], never [asr]: a word with bit 62 set is a
   negative int, which is fine for a bit container but fatal for an
   arithmetic shift. *)

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type bytes_ba =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let wbits = 63

type ef = {
  ef_n : int;  (* element count, >= 1 *)
  ef_max : int;
  ef_lw : int;  (* low-bits width *)
  ef_lows : words;  (* ef_n * ef_lw bits *)
  ef_highs : words;  (* unary upper bits, ef_hbits meaningful *)
  ef_hbits : int;  (* (ef_max lsr ef_lw) + ef_n *)
  ef_samples : int array;
      (* ef_samples.(j) = bit position of zero number (j+1)*zsample,
         1-indexed — the select0 accelerator, rebuilt on decode *)
}

type blocked = {
  b_n : int;  (* element count, >= 1 *)
  b_firsts : int array;  (* per block *)
  b_lasts : int array;
  b_kinds : Bytes.t;  (* '\000' bitset, '\001' varint *)
  b_woff : int array;  (* block count + 1, word offsets into b_words *)
  b_boff : int array;  (* block count + 1, byte offsets into b_bytes *)
  b_words : words;
  b_bytes : bytes_ba;
}

type t = Praw of int array | Pef of ef | Pblocked of blocked

type layout = Raw | Ef | Blocked

type policy = Auto | Force of layout

exception Corrupt of string

let corrupt msg = raise (Corrupt msg)
let zsample = 64
let bsize = 128

(* A block is a bitset when its span costs at most ~2 bytes/element
   (span <= 16 * count bits); sparser blocks delta-varint. The rule is
   a pure function of the content, so encodings are canonical. *)
let block_is_dense ~span ~count = span <= 16 * count

(* ---------- word buffers ---------- *)

let words_make nbits : words =
  let n = (nbits + wbits - 1) / wbits in
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  a

let bytes_ba_of_string s pos len : bytes_ba =
  let a = Bigarray.Array1.create Bigarray.char Bigarray.c_layout len in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set a i (String.unsafe_get s (pos + i))
  done;
  a

let set_bit (a : words) i =
  let q = i / wbits and r = i mod wbits in
  Bigarray.Array1.unsafe_set a q
    (Bigarray.Array1.unsafe_get a q lor (1 lsl r))

let get_bit (a : words) i =
  let q = i / wbits and r = i mod wbits in
  (Bigarray.Array1.unsafe_get a q lsr r) land 1 = 1

let low_mask w = if w = 0 then 0 else (1 lsl w) - 1

(* [v] has [w] significant bits, w <= 62. High bits shifted past bit 62
   are discarded by [lsl], so no masking is needed on the first word. *)
let write_bits (a : words) ~pos ~width v =
  if width > 0 then begin
    let q = pos / wbits and r = pos mod wbits in
    Bigarray.Array1.unsafe_set a q
      (Bigarray.Array1.unsafe_get a q lor (v lsl r));
    if r + width > wbits then
      Bigarray.Array1.unsafe_set a (q + 1)
        (Bigarray.Array1.unsafe_get a (q + 1) lor (v lsr (wbits - r)))
  end

let read_bits (a : words) ~pos ~width =
  if width = 0 then 0
  else begin
    let q = pos / wbits and r = pos mod wbits in
    let lo = Bigarray.Array1.unsafe_get a q lsr r in
    let got = wbits - r in
    if got >= width then lo land low_mask width
    else
      (lo lor (Bigarray.Array1.unsafe_get a (q + 1) lsl got))
      land low_mask width
  end

(* ---------- popcount (16-bit table; 64-bit magic constants exceed
   OCaml's 62-bit literal range) ---------- *)

let pop16 =
  let t = Bytes.create 65536 in
  for i = 0 to 65535 do
    let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
    Bytes.unsafe_set t i (Char.chr (go i 0))
  done;
  t

let popcount w =
  Char.code (Bytes.unsafe_get pop16 (w land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 (w lsr 48))

(* Position of the lowest set bit of a non-zero word, by table lookup
   on the isolated bit: 2 has order 66 modulo 67, so [1 lsl b] leaves a
   distinct residue for every [b] in 0..61; bit 62 is the sign bit. *)
let lowest_bit_table =
  let t = Bytes.create 67 in
  for b = 0 to 61 do
    Bytes.set t ((1 lsl b) mod 67) (Char.chr b)
  done;
  t

let lowest_bit w =
  let x = w land -w in
  if x < 0 then 62 else Char.code (Bytes.unsafe_get lowest_bit_table (x mod 67))

(* ---------- Elias-Fano ---------- *)

let ef_low ef i = read_bits ef.ef_lows ~pos:(i * ef.ef_lw) ~width:ef.ef_lw

let ef_build_samples ~highs ~hbits =
  (* Freeze-time only (and decode): a plain bit walk over the ~2n
     upper bits is cheap and leaves no room for off-by-ones. *)
  let zeros_total = ref 0 in
  let nwords = (hbits + wbits - 1) / wbits in
  for q = 0 to nwords - 1 do
    let hi = min wbits (hbits - (q * wbits)) in
    let w = Bigarray.Array1.unsafe_get highs q land low_mask hi in
    zeros_total := !zeros_total + (hi - popcount w)
  done;
  let samples = Array.make (!zeros_total / zsample) 0 in
  let seen = ref 0 and si = ref 0 in
  let i = ref 0 in
  while !si < Array.length samples do
    if not (get_bit highs !i) then begin
      incr seen;
      if !seen mod zsample = 0 then begin
        samples.(!si) <- !i;
        incr si
      end
    end;
    incr i
  done;
  samples

let ef_of_array a =
  let n = Array.length a in
  let mx = a.(n - 1) in
  let u = mx + 1 in
  let lw = ref 0 in
  while u lsr (!lw + 1) >= n do incr lw done;
  let lw = !lw in
  let lows = words_make (n * lw) in
  let hbits = (mx lsr lw) + n in
  let highs = words_make hbits in
  for i = 0 to n - 1 do
    write_bits lows ~pos:(i * lw) ~width:lw (a.(i) land low_mask lw);
    set_bit highs ((a.(i) lsr lw) + i)
  done;
  {
    ef_n = n;
    ef_max = mx;
    ef_lw = lw;
    ef_lows = lows;
    ef_highs = highs;
    ef_hbits = hbits;
    ef_samples = ef_build_samples ~highs ~hbits;
  }

(* Bit position of the k-th zero (1-indexed) of the upper bits.
   The caller guarantees k <= ef_max lsr ef_lw (the zero total). *)
let ef_select0 ef k =
  let j = (k - 1) / zsample in
  let pos = ref 0 and seen = ref 0 in
  if j > 0 then begin
    pos := ef.ef_samples.(j - 1) + 1;
    seen := j * zsample
  end;
  let highs = ef.ef_highs in
  let q = ref (!pos / wbits) and r = ref (!pos mod wbits) in
  let result = ref (-1) in
  while !result < 0 do
    let w = Bigarray.Array1.unsafe_get highs !q lsr !r in
    let avail = wbits - !r in
    let zw = avail - popcount w in
    if !seen + zw >= k then begin
      (* the k-th zero is inside this word *)
      let w = ref w and bit = ref ((!q * wbits) + !r) in
      let remaining = ref (k - !seen) in
      let continue = ref true in
      while !continue do
        if !w land 1 = 0 then begin
          decr remaining;
          if !remaining = 0 then begin
            result := !bit;
            continue := false
          end
        end;
        if !continue then begin
          w := !w lsr 1;
          incr bit
        end
      done
    end
    else begin
      seen := !seen + zw;
      incr q;
      r := 0
    end
  done;
  !result

(* Advance to the first set bit at or after [pos]; the caller
   guarantees one exists (idx < ef_n). *)
let ef_next_one ef pos =
  let highs = ef.ef_highs in
  let q = ref (pos / wbits) and r = ref (pos mod wbits) in
  let result = ref (-1) in
  while !result < 0 do
    let w = Bigarray.Array1.unsafe_get highs !q lsr !r in
    if w <> 0 then result := (!q * wbits) + !r + lowest_bit w
    else begin
      incr q;
      r := 0
    end
  done;
  !result

(* Smallest element >= x with its rank, scanning from (idx0, pos0). *)
let rec ef_scan_geq ef idx pos x =
  if idx >= ef.ef_n then None
  else
    let pos = ef_next_one ef pos in
    let v = ((pos - idx) lsl ef.ef_lw) lor ef_low ef idx in
    if v >= x then Some (idx, v) else ef_scan_geq ef (idx + 1) (pos + 1) x

let ef_start_at ef x =
  (* (idx, pos) to start a >= x scan from: the beginning of x's high
     bucket, located by select0. *)
  let h = x lsr ef.ef_lw in
  if h = 0 then (0, 0)
  else
    let z = ef_select0 ef h in
    (z - h + 1, z + 1)

let ef_next_geq ef x =
  if x > ef.ef_max then None
  else if x <= 0 then
    let pos = ef_next_one ef 0 in
    Some (0, (pos lsl ef.ef_lw) lor ef_low ef 0)
  else
    let idx, pos = ef_start_at ef x in
    ef_scan_geq ef idx pos x

(* One pass over both bit streams: the upper bits a word at a time, the
   lower bits through a running cursor instead of a division per
   element. The decoder has checked that the upper bits hold exactly
   [ef_n] ones, so the walk stays in bounds. *)
let ef_iteri f ef =
  let n = ef.ef_n and lw = ef.ef_lw and mask = low_mask ef.ef_lw in
  let highs = ef.ef_highs and lows = ef.ef_lows in
  let i = ref 0 and q = ref 0 and lq = ref 0 and lr = ref 0 in
  while !i < n do
    let w = ref (Bigarray.Array1.unsafe_get highs !q) in
    while !w <> 0 && !i < n do
      let low =
        if lw = 0 then 0
        else begin
          let lo = Bigarray.Array1.unsafe_get lows !lq lsr !lr in
          let got = wbits - !lr in
          lr := !lr + lw;
          if !lr >= wbits then begin
            lr := !lr - wbits;
            incr lq
          end;
          if got >= lw then lo land mask
          else (lo lor (Bigarray.Array1.unsafe_get lows !lq lsl got)) land mask
        end
      in
      let p = (!q * wbits) + lowest_bit !w in
      f !i (((p - !i) lsl lw) lor low);
      w := !w land (!w - 1);
      incr i
    done;
    incr q
  done

(* ---------- partitioned blocks ---------- *)

(* Self-contained LEB128 — lib/mgraph must not depend on lib/rdf. *)
let varint_to_buf buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let varint_of_string s pos limit =
  let v = ref 0 and shift = ref 0 and p = ref pos and fin = ref false in
  while not !fin do
    if !p >= limit then corrupt "truncated varint";
    if !shift > 56 then corrupt "varint overflow";
    let b = Char.code (String.unsafe_get s !p) in
    incr p;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then fin := true
  done;
  (!v, !p)

(* ... and the same decoder over the resident byte buffer. *)
let varint_of_ba (b : bytes_ba) pos limit =
  let v = ref 0 and shift = ref 0 and p = ref pos and fin = ref false in
  while not !fin do
    if !p >= limit then invalid_arg "Posting: truncated block varint";
    let c = Char.code (Bigarray.Array1.unsafe_get b !p) in
    incr p;
    v := !v lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    if c < 0x80 then fin := true
  done;
  (!v, !p)

let blocked_of_array a =
  let n = Array.length a in
  let k = (n + bsize - 1) / bsize in
  let firsts = Array.make k 0
  and lasts = Array.make k 0
  and kinds = Bytes.make k '\000'
  and woff = Array.make (k + 1) 0
  and boff = Array.make (k + 1) 0 in
  let buf = Buffer.create 256 in
  let wtotal = ref 0 in
  for b = 0 to k - 1 do
    let lo = b * bsize in
    let count = min bsize (n - lo) in
    let first = a.(lo) and last = a.(lo + count - 1) in
    firsts.(b) <- first;
    lasts.(b) <- last;
    let span = last - first + 1 in
    if block_is_dense ~span ~count then begin
      Bytes.set kinds b '\000';
      wtotal := !wtotal + ((span + wbits - 1) / wbits)
    end
    else begin
      Bytes.set kinds b '\001';
      for i = lo + 1 to lo + count - 1 do
        varint_to_buf buf (a.(i) - a.(i - 1) - 1)
      done
    end;
    woff.(b + 1) <- !wtotal;
    boff.(b + 1) <- Buffer.length buf
  done;
  let wrds = words_make (!wtotal * wbits) in
  for b = 0 to k - 1 do
    if Bytes.get kinds b = '\000' then begin
      let lo = b * bsize in
      let count = min bsize (n - lo) in
      let base = woff.(b) * wbits and first = firsts.(b) in
      for i = lo to lo + count - 1 do
        set_bit wrds (base + a.(i) - first)
      done
    end
  done;
  let s = Buffer.contents buf in
  {
    b_n = n;
    b_firsts = firsts;
    b_lasts = lasts;
    b_kinds = kinds;
    b_woff = woff;
    b_boff = boff;
    b_words = wrds;
    b_bytes = bytes_ba_of_string s 0 (String.length s);
  }

let blocked_count b blk =
  let k = Array.length b.b_firsts in
  if blk = k - 1 then b.b_n - (blk * bsize) else bsize

(* First block whose last element is >= x, starting the search at
   [from]; Array.length b_firsts when none. *)
let blocked_find b from x =
  let k = Array.length b.b_firsts in
  if from >= k || x > b.b_lasts.(k - 1) then k
  else begin
    let lo = ref from and hi = ref (k - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if b.b_lasts.(mid) >= x then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* Smallest element >= x inside block [blk], with its global rank; the
   caller guarantees x <= lasts.(blk). *)
let blocked_in_block_geq b blk x =
  let first = b.b_firsts.(blk) in
  if x <= first then (blk * bsize, first)
  else if Bytes.get b.b_kinds blk = '\000' then begin
    let base = b.b_woff.(blk) * wbits in
    (* count ones strictly below the target bit, then scan up *)
    let target = base + x - first in
    let rank = ref 0 in
    let q0 = base / wbits and qt = target / wbits in
    for q = q0 to qt - 1 do
      rank := !rank + popcount (Bigarray.Array1.unsafe_get b.b_words q)
    done;
    let rt = target mod wbits in
    rank :=
      !rank
      + popcount (Bigarray.Array1.unsafe_get b.b_words qt land low_mask rt);
    (* scan for the next set bit at or after [target]; one exists
       because lasts.(blk) >= x *)
    let q = ref qt and w = ref (Bigarray.Array1.unsafe_get b.b_words qt lsr rt)
    and off = ref rt in
    while !w = 0 do
      incr q;
      off := 0;
      w := Bigarray.Array1.unsafe_get b.b_words !q
    done;
    let bit = ((!q * wbits) + !off + lowest_bit !w) - base in
    ((blk * bsize) + !rank, first + bit)
  end
  else begin
    let limit = b.b_boff.(blk + 1) in
    let p = ref b.b_boff.(blk) and v = ref first and i = ref 0 in
    while !v < x do
      let d, p' = varint_of_ba b.b_bytes !p limit in
      v := !v + d + 1;
      p := p';
      incr i
    done;
    ((blk * bsize) + !i, !v)
  end

let blocked_next_geq b x =
  let blk = blocked_find b 0 x in
  if blk = Array.length b.b_firsts then None
  else Some (blocked_in_block_geq b blk x)

let blocked_iteri f b =
  let k = Array.length b.b_firsts in
  let idx = ref 0 in
  for blk = 0 to k - 1 do
    let first = b.b_firsts.(blk) in
    let count = blocked_count b blk in
    if Bytes.get b.b_kinds blk = '\000' then begin
      let base = b.b_woff.(blk) * wbits in
      let emitted = ref 0 in
      let bit = ref 0 in
      while !emitted < count do
        let q = (base + !bit) / wbits and r = (base + !bit) mod wbits in
        let w = Bigarray.Array1.unsafe_get b.b_words q lsr r in
        if w = 0 then bit := !bit + (wbits - r)
        else begin
          let lb = lowest_bit w in
          bit := !bit + lb;
          f !idx (first + !bit);
          incr idx;
          incr emitted;
          incr bit
        end
      done
    end
    else begin
      let limit = b.b_boff.(blk + 1) in
      let p = ref b.b_boff.(blk) and v = ref first in
      f !idx !v;
      incr idx;
      for _ = 2 to count do
        let d, p' = varint_of_ba b.b_bytes !p limit in
        v := !v + d + 1;
        p := p';
        f !idx !v;
        incr idx
      done
    end
  done

(* ---------- freeze ---------- *)

let empty = Praw [||]

let check_sorted a =
  let n = Array.length a in
  if n > 0 && a.(0) < 0 then invalid_arg "Posting.of_array: negative element";
  for i = 1 to n - 1 do
    if a.(i) <= a.(i - 1) then
      invalid_arg "Posting.of_array: not strictly increasing"
  done

let auto_layout a =
  let n = Array.length a in
  if n < 64 then Raw
  else
    let span = a.(n - 1) - a.(0) + 1 in
    if span <= n * 6 then Blocked else Ef

let freeze_as a = function
  | Raw -> Praw a
  | Ef -> Pef (ef_of_array a)
  | Blocked -> Pblocked (blocked_of_array a)

let of_array ?(policy = Auto) a =
  check_sorted a;
  if Array.length a = 0 then empty
  else
    let l = match policy with Auto -> auto_layout a | Force l -> l in
    freeze_as a l

let raw a = if Array.length a = 0 then empty else Praw a

let layout = function Praw _ -> Raw | Pef _ -> Ef | Pblocked _ -> Blocked

let length = function
  | Praw a -> Array.length a
  | Pef e -> e.ef_n
  | Pblocked b -> b.b_n

let is_empty p = length p = 0

(* ---------- point queries ---------- *)

let next_geq_rank p x =
  match p with
  | Praw a ->
      let i = Sorted_ints.lower_bound_from a 0 x in
      if i < Array.length a then Some (i, a.(i)) else None
  | Pef e -> ef_next_geq e x
  | Pblocked b -> blocked_next_geq b x

let next_geq p x =
  match next_geq_rank p x with Some (_, v) -> Some v | None -> None

let mem p x =
  match next_geq_rank p x with Some (_, v) -> v = x | None -> false

let index_of p x =
  match next_geq_rank p x with
  | Some (i, v) when v = x -> Some i
  | _ -> None

(* ---------- iteration ---------- *)

let iteri f = function
  | Praw a -> Array.iteri f a
  | Pef e -> ef_iteri f e
  | Pblocked b -> blocked_iteri f b

let iter f p = iteri (fun _ v -> f v) p

let fold f init p =
  let acc = ref init in
  iter (fun v -> acc := f !acc v) p;
  !acc

let to_array = function
  | Praw a -> a
  | p ->
      let out = Array.make (length p) 0 in
      iteri (fun i v -> out.(i) <- v) p;
      out

let equal a b =
  a == b
  || length a = length b
     &&
     match (a, b) with
     | Praw x, Praw y -> x = y
     | _ ->
         let ok = ref true in
         let other = to_array b in
         iteri (fun i v -> if v <> other.(i) then ok := false) a;
         !ok

(* ---------- cursors (forward-only skip_to over any layout) ---------- *)

type cur = {
  c_p : t;
  c_len : int;
  mutable c_i : int;  (* rank of current element; c_len when done *)
  mutable c_v : int;  (* current value, valid when c_i < c_len *)
  mutable c_pos : int;  (* Ef: highs bit position of the current one *)
  mutable c_blk : int;  (* Blocked: current block *)
}

let cur_make p =
  let c = { c_p = p; c_len = length p; c_i = 0; c_v = 0; c_pos = 0; c_blk = 0 } in
  (match p with
  | Praw a -> if Array.length a > 0 then c.c_v <- a.(0)
  | Pef e ->
      if e.ef_n > 0 then begin
        let pos = ef_next_one e 0 in
        c.c_pos <- pos;
        c.c_v <- (pos lsl e.ef_lw) lor ef_low e 0
      end
  | Pblocked b -> if b.b_n > 0 then c.c_v <- b.b_firsts.(0));
  c

(* Advance the cursor to the first element >= x. Forward-only: x must
   not decrease across calls. *)
let cur_seek c x =
  if c.c_i < c.c_len && c.c_v < x then
    match c.c_p with
    | Praw a ->
        let i = Sorted_ints.lower_bound_from a c.c_i x in
        c.c_i <- i;
        if i < c.c_len then c.c_v <- a.(i)
    | Pef e ->
        if x > e.ef_max then c.c_i <- c.c_len
        else begin
          (* jump to x's bucket if it is past the current one *)
          let h = x lsr e.ef_lw and cur_h = c.c_v lsr e.ef_lw in
          let idx, pos =
            if h > cur_h then ef_start_at e x else (c.c_i + 1, c.c_pos + 1)
          in
          let idx, pos = if idx <= c.c_i then (c.c_i + 1, c.c_pos + 1) else (idx, pos) in
          match ef_scan_geq e idx pos x with
          | Some (i, v) ->
              c.c_i <- i;
              c.c_v <- v;
              c.c_pos <- (v lsr e.ef_lw) + i
          | None -> c.c_i <- c.c_len
        end
    | Pblocked b ->
        let blk =
          if x > b.b_lasts.(c.c_blk) then blocked_find b (c.c_blk + 1) x
          else c.c_blk
        in
        if blk = Array.length b.b_firsts then c.c_i <- c.c_len
        else begin
          let i, v = blocked_in_block_geq b blk x in
          c.c_blk <- blk;
          c.c_i <- i;
          c.c_v <- v
        end

(* ---------- set algebra ---------- *)

let inter_generic small big =
  let ns = length small in
  let out = Array.make ns 0 in
  let k = ref 0 in
  let cur = cur_make big in
  iter
    (fun v ->
      cur_seek cur v;
      if cur.c_i < cur.c_len && cur.c_v = v then begin
        out.(!k) <- v;
        incr k
      end)
    small;
  if !k = ns then small
  else if !k = length big then big
  else if !k = 0 then empty
  else Praw (Array.sub out 0 !k)

let inter a b =
  if is_empty a || is_empty b then empty
  else
    match (a, b) with
    | Praw x, Praw y ->
        let r = Sorted_ints.inter x y in
        if r == x then a else if r == y then b else raw r
    | _ -> if length a <= length b then inter_generic a b else inter_generic b a

let inter_many = function
  | [] -> invalid_arg "Posting.inter_many: empty list"
  | [ p ] -> p
  | ps ->
      let ps = List.sort (fun a b -> compare (length a) (length b)) ps in
      let rec go acc = function
        | [] -> acc
        | _ when is_empty acc -> empty
        | p :: rest -> go (inter acc p) rest
      in
      go (List.hd ps) (List.tl ps)

(* ---------- accounting ---------- *)

let out_of_heap_bytes = function
  | Praw _ -> 0
  | Pef e ->
      8 * (Bigarray.Array1.dim e.ef_lows + Bigarray.Array1.dim e.ef_highs)
  | Pblocked b -> (8 * Bigarray.Array1.dim b.b_words) + Bigarray.Array1.dim b.b_bytes

type stats = {
  mutable raw_lists : int;
  mutable ef_lists : int;
  mutable blocked_lists : int;
  mutable elements : int;
  mutable payload_bytes : int;
}

let fresh_stats () =
  { raw_lists = 0; ef_lists = 0; blocked_lists = 0; elements = 0; payload_bytes = 0 }

let count_into s p =
  (match layout p with
  | Raw -> s.raw_lists <- s.raw_lists + 1
  | Ef -> s.ef_lists <- s.ef_lists + 1
  | Blocked -> s.blocked_lists <- s.blocked_lists + 1);
  s.elements <- s.elements + length p;
  s.payload_bytes <- s.payload_bytes + out_of_heap_bytes p

let merge_stats ~into s =
  into.raw_lists <- into.raw_lists + s.raw_lists;
  into.ef_lists <- into.ef_lists + s.ef_lists;
  into.blocked_lists <- into.blocked_lists + s.blocked_lists;
  into.elements <- into.elements + s.elements;
  into.payload_bytes <- into.payload_bytes + s.payload_bytes

(* ---------- wire codec ---------- *)

(* A 63-bit container word with bit 62 set is a negative int;
   [Int64.of_int] would sign-extend it into bit 63. Mask so the wire
   always carries exactly the 63 container bits. *)
let add_word_le buf w =
  Buffer.add_int64_le buf (Int64.logand (Int64.of_int w) Int64.max_int)

let add_words buf (a : words) =
  for i = 0 to Bigarray.Array1.dim a - 1 do
    add_word_le buf (Bigarray.Array1.unsafe_get a i)
  done

let read_words s pos nwords limit =
  if pos + (8 * nwords) > limit then corrupt "truncated word buffer";
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout nwords in
  for i = 0 to nwords - 1 do
    let v = String.get_int64_le s (pos + (8 * i)) in
    if Int64.logand v Int64.min_int <> 0L then corrupt "word bit 63 set";
    Bigarray.Array1.unsafe_set a i (Int64.to_int v)
  done;
  (a, pos + (8 * nwords))

let tag_raw = 0 and tag_ef = 1 and tag_blocked = 2

let encode buf p =
  match p with
  | Praw a ->
      varint_to_buf buf tag_raw;
      let n = Array.length a in
      varint_to_buf buf n;
      if n > 0 then begin
        varint_to_buf buf a.(0);
        for i = 1 to n - 1 do
          varint_to_buf buf (a.(i) - a.(i - 1) - 1)
        done
      end
  | Pef e ->
      varint_to_buf buf tag_ef;
      varint_to_buf buf e.ef_n;
      varint_to_buf buf e.ef_max;
      add_words buf e.ef_lows;
      add_words buf e.ef_highs
  | Pblocked b ->
      varint_to_buf buf tag_blocked;
      varint_to_buf buf b.b_n;
      varint_to_buf buf (Bigarray.Array1.dim b.b_words);
      varint_to_buf buf (Bigarray.Array1.dim b.b_bytes);
      let k = Array.length b.b_firsts in
      for blk = 0 to k - 1 do
        let gap =
          if blk = 0 then b.b_firsts.(0)
          else b.b_firsts.(blk) - b.b_lasts.(blk - 1) - 1
        in
        varint_to_buf buf gap;
        varint_to_buf buf
          (b.b_lasts.(blk) - b.b_firsts.(blk) + 1 - blocked_count b blk)
      done;
      add_words buf b.b_words;
      for i = 0 to Bigarray.Array1.dim b.b_bytes - 1 do
        Buffer.add_char buf (Bigarray.Array1.unsafe_get b.b_bytes i)
      done

let decode_raw s pos limit =
  let n, pos = varint_of_string s pos limit in
  if n > limit - pos + 1 then corrupt "raw posting longer than input";
  if n = 0 then (empty, pos)
  else begin
    let a = Array.make n 0 in
    let v, pos = varint_of_string s pos limit in
    a.(0) <- v;
    let pos = ref pos in
    for i = 1 to n - 1 do
      let d, p = varint_of_string s !pos limit in
      a.(i) <- a.(i - 1) + d + 1;
      pos := p
    done;
    (Praw a, !pos)
  end

let validate_padding (a : words) nbits what =
  let nwords = Bigarray.Array1.dim a in
  if nwords > 0 then begin
    let used = nbits - ((nwords - 1) * wbits) in
    if used < wbits && Bigarray.Array1.get a (nwords - 1) lsr used <> 0 then
      corrupt (what ^ ": padding bits set")
  end

let decode_ef s pos limit =
  let n, pos = varint_of_string s pos limit in
  let mx, pos = varint_of_string s pos limit in
  if n < 1 then corrupt "ef: empty";
  if n > mx + 1 then corrupt "ef: n exceeds universe";
  (* The upper-bits words hold at least one bit per element. *)
  if n > 8 * (limit - pos) then corrupt "ef: n exceeds input";
  let u = mx + 1 in
  let lw = ref 0 in
  while u lsr (!lw + 1) >= n do incr lw done;
  let lw = !lw in
  let lwords = ((n * lw) + wbits - 1) / wbits in
  let hbits = (mx lsr lw) + n in
  let hwords = (hbits + wbits - 1) / wbits in
  let lows, pos = read_words s pos lwords limit in
  let highs, pos = read_words s pos hwords limit in
  validate_padding lows (n * lw) "ef lows";
  validate_padding highs hbits "ef highs";
  let ones = ref 0 in
  for q = 0 to hwords - 1 do
    ones := !ones + popcount (Bigarray.Array1.get highs q)
  done;
  if !ones <> n then corrupt "ef: upper-bits population mismatch";
  let e =
    {
      ef_n = n;
      ef_max = mx;
      ef_lw = lw;
      ef_lows = lows;
      ef_highs = highs;
      ef_hbits = hbits;
      ef_samples = ef_build_samples ~highs ~hbits;
    }
  in
  (* strict monotonicity + the declared max, via one decode pass *)
  let prev = ref (-1) in
  (try
     ef_iteri
       (fun _ v ->
         if v <= !prev then raise Exit;
         prev := v)
       e
   with Exit -> corrupt "ef: sequence not strictly increasing");
  if !prev <> mx then corrupt "ef: max mismatch";
  (Pef e, pos)

let decode_blocked s pos limit =
  let n, pos = varint_of_string s pos limit in
  let wtotal, pos = varint_of_string s pos limit in
  let btotal, pos = varint_of_string s pos limit in
  if n < 1 then corrupt "blocked: empty";
  let k = (n + bsize - 1) / bsize in
  (* Every block header takes at least two bytes (gap and slack). *)
  if k > (limit - pos) / 2 then corrupt "blocked: block count exceeds input";
  let firsts = Array.make k 0
  and lasts = Array.make k 0
  and kinds = Bytes.make k '\000'
  and woff = Array.make (k + 1) 0
  and boff = Array.make (k + 1) 0 in
  let pos = ref pos in
  let prev_last = ref (-1) in
  for blk = 0 to k - 1 do
    let count = if blk = k - 1 then n - (blk * bsize) else bsize in
    let gap, p = varint_of_string s !pos limit in
    let slack, p = varint_of_string s p limit in
    pos := p;
    let first = !prev_last + 1 + gap in
    let span = count + slack in
    let last = first + span - 1 in
    firsts.(blk) <- first;
    lasts.(blk) <- last;
    prev_last := last;
    if block_is_dense ~span ~count then begin
      Bytes.set kinds blk '\000';
      woff.(blk + 1) <- woff.(blk) + ((span + wbits - 1) / wbits);
      boff.(blk + 1) <- boff.(blk)
    end
    else begin
      Bytes.set kinds blk '\001';
      woff.(blk + 1) <- woff.(blk);
      boff.(blk + 1) <- boff.(blk) (* patched after payload decode *)
    end
  done;
  if woff.(k) <> wtotal then corrupt "blocked: word total mismatch";
  let wrds, p = read_words s !pos wtotal limit in
  pos := p;
  if !pos + btotal > limit then corrupt "blocked: truncated byte payload";
  let bbytes = bytes_ba_of_string s !pos btotal in
  pos := !pos + btotal;
  (* walk varint payloads to recover byte offsets and validate spans *)
  let bp = ref 0 in
  for blk = 0 to k - 1 do
    boff.(blk) <- !bp;
    if Bytes.get kinds blk = '\001' then begin
      let count = if blk = k - 1 then n - (blk * bsize) else bsize in
      let v = ref firsts.(blk) in
      (try
         for _ = 2 to count do
           let d, p = varint_of_ba bbytes !bp btotal in
           v := !v + d + 1;
           bp := p
         done
       with Invalid_argument _ -> corrupt "blocked: truncated deltas");
      if !v <> lasts.(blk) then corrupt "blocked: span mismatch"
    end
  done;
  boff.(k) <- !bp;
  if !bp <> btotal then corrupt "blocked: byte total mismatch";
  let b =
    {
      b_n = n;
      b_firsts = firsts;
      b_lasts = lasts;
      b_kinds = kinds;
      b_woff = woff;
      b_boff = boff;
      b_words = wrds;
      b_bytes = bbytes;
    }
  in
  (* validate bitset blocks: exact population, first and last bit set *)
  for blk = 0 to k - 1 do
    if Bytes.get kinds blk = '\000' then begin
      let count = if blk = k - 1 then n - (blk * bsize) else bsize in
      let span = lasts.(blk) - firsts.(blk) + 1 in
      let ones = ref 0 in
      for q = woff.(blk) to woff.(blk + 1) - 1 do
        ones := !ones + popcount (Bigarray.Array1.get wrds q)
      done;
      if !ones <> count then corrupt "blocked: bitset population mismatch";
      let base = woff.(blk) * wbits in
      let wlimit = woff.(blk + 1) * wbits - base in
      if span > wlimit then corrupt "blocked: span exceeds words";
      (* padding above the span must be clear *)
      for bit = span to wlimit - 1 do
        if get_bit wrds (base + bit) then corrupt "blocked: bitset padding set"
      done;
      if not (get_bit wrds base) then corrupt "blocked: first bit clear";
      if not (get_bit wrds (base + span - 1)) then
        corrupt "blocked: last bit clear"
    end
  done;
  (Pblocked b, !pos)

let decode s pos =
  let limit = String.length s in
  let tag, pos = varint_of_string s pos limit in
  if tag = tag_raw then decode_raw s pos limit
  else if tag = tag_ef then decode_ef s pos limit
  else if tag = tag_blocked then decode_blocked s pos limit
  else corrupt (Printf.sprintf "unknown posting layout tag %d" tag)
