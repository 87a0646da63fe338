let of_list l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    (* Compact duplicates in place, then truncate. *)
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = n then a else Array.sub a 0 !k
  end

let is_sorted a =
  let n = Array.length a in
  let rec loop i = i >= n || (a.(i - 1) < a.(i) && loop (i + 1)) in
  loop 1

let mem a x =
  let rec loop lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then true
      else if a.(mid) < x then loop (mid + 1) hi
      else loop lo mid
  in
  loop 0 (Array.length a)

(* Smallest index [j >= lo] with [b.(j) >= x] ([length b] if none):
   exponential (galloping) expansion from [lo], then binary search in the
   bracketed window. O(log d) where d is the distance advanced, so a
   sequence of searches with increasing [x] costs O(n_small log (n_large
   / n_small)) overall instead of O(n_large). *)
let lower_bound_from b lo x =
  let nb = Array.length b in
  if lo >= nb || b.(lo) >= x then lo
  else begin
    (* Invariant: b.(last) < x. *)
    let last = ref lo and step = ref 1 in
    while !last + !step < nb && b.(!last + !step) < x do
      last := !last + !step;
      step := !step * 2
    done;
    let lo' = ref (!last + 1) and hi = ref (min nb (!last + !step)) in
    while !lo' < !hi do
      let mid = (!lo' + !hi) / 2 in
      if b.(mid) < x then lo' := mid + 1 else hi := mid
    done;
    !lo'
  end

(* --- kernel selection thresholds ------------------------------------ *)

(* Gallop when one operand is at least this many times longer than the
   other: the small side drives and the large side is skipped over. *)
let gallop_ratio = 16

(* The bitset kernel needs both sides big enough to amortize building
   the bit table, and the table's span dense enough that it fits in
   cache-friendly space. *)
let bitset_min = 1024
let bitset_max_span_per_elem = 16

(* --- intersection kernels ------------------------------------------- *)

let inter_merge a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let rec loop i j k =
    if i >= na || j >= nb then k
    else if a.(i) = b.(j) then begin
      out.(k) <- a.(i);
      loop (i + 1) (j + 1) (k + 1)
    end
    else if a.(i) < b.(j) then loop (i + 1) j k
    else loop i (j + 1) k
  in
  let k = loop 0 0 0 in
  (* Aliasing return: when one operand is contained in the other, hand
     it back unchanged instead of copying (arrays are immutable by
     convention throughout). *)
  if k = na then a else if k = nb then b else Array.sub out 0 k

let inter_gallop a b =
  (* The smaller array drives; each element gallops forward in the
     larger one. *)
  let small, large = if Array.length a <= Array.length b then (a, b) else (b, a) in
  let ns = Array.length small and nl = Array.length large in
  let out = Array.make ns 0 in
  let j = ref 0 and k = ref 0 in
  (try
     for i = 0 to ns - 1 do
       let x = small.(i) in
       let j' = lower_bound_from large !j x in
       if j' >= nl then raise Exit;
       if large.(j') = x then begin
         out.(!k) <- x;
         incr k;
         j := j' + 1
       end
       else j := j'
     done
   with Exit -> ());
  if !k = ns then small
  else if !k = nl then large
  else Array.sub out 0 !k

let inter_bitset a b =
  let small, large = if Array.length a <= Array.length b then (a, b) else (b, a) in
  let ns = Array.length small in
  if ns = 0 then [||]
  else begin
    let lo = small.(0) and hi = small.(ns - 1) in
    (* 32-bit words: bit indexes stay clear of OCaml's 63-bit int. *)
    let words = Array.make (((hi - lo) lsr 5) + 1) 0 in
    Array.iter
      (fun x ->
        let d = x - lo in
        words.(d lsr 5) <- words.(d lsr 5) lor (1 lsl (d land 31)))
      small;
    (* Only the span [lo, hi] of the larger side can intersect. *)
    let start = lower_bound_from large 0 lo in
    let stop = lower_bound_from large start (hi + 1) in
    let out = Array.make (min ns (stop - start)) 0 in
    let k = ref 0 in
    for j = start to stop - 1 do
      let d = large.(j) - lo in
      if words.(d lsr 5) land (1 lsl (d land 31)) <> 0 then begin
        out.(!k) <- large.(j);
        incr k
      end
    done;
    if !k = ns then small
    else if !k = Array.length large then large
    else Array.sub out 0 !k
  end

let inter a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then [||]
  else
    let ns = min na nb and nl = max na nb in
    if ns * gallop_ratio <= nl then inter_gallop a b
    else if ns >= bitset_min then begin
      let small = if na <= nb then a else b in
      let span = small.(ns - 1) - small.(0) + 1 in
      if span <= ns * bitset_max_span_per_elem then inter_bitset a b
      else inter_merge a b
    end
    else inter_merge a b

(* --- the rest of the algebra ---------------------------------------- *)

let subset a b =
  let na = Array.length a and nb = Array.length b in
  if na > nb then false
  else if na * gallop_ratio <= nb then begin
    (* Skewed: gallop instead of walking all of [b]. *)
    let rec loop i j =
      if i >= na then true
      else
        let j' = lower_bound_from b j a.(i) in
        if j' >= nb || b.(j') <> a.(i) then false else loop (i + 1) (j' + 1)
    in
    loop 0 0
  end
  else
    let rec loop i j =
      if i >= na then true
      else if j >= nb then false
      else if a.(i) = b.(j) then loop (i + 1) (j + 1)
      else if a.(i) > b.(j) then loop i (j + 1)
      else false
    in
    loop 0 0

let union a b =
  if Array.length a = 0 then b
  else if Array.length b = 0 then a
  else begin
    let na = Array.length a and nb = Array.length b in
    let out = Array.make (na + nb) 0 in
    let rec loop i j k =
      if i >= na && j >= nb then k
      else if j >= nb || (i < na && a.(i) < b.(j)) then begin
        out.(k) <- a.(i);
        loop (i + 1) j (k + 1)
      end
      else if i >= na || a.(i) > b.(j) then begin
        out.(k) <- b.(j);
        loop i (j + 1) (k + 1)
      end
      else begin
        out.(k) <- a.(i);
        loop (i + 1) (j + 1) (k + 1)
      end
    in
    let k = loop 0 0 0 in
    if k = na then a else if k = nb then b else Array.sub out 0 k
  end

let diff a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then a
  else begin
    let out = Array.make na 0 in
    let rec loop i j k =
      if i >= na then k
      else if j >= nb || a.(i) < b.(j) then begin
        out.(k) <- a.(i);
        loop (i + 1) j (k + 1)
      end
      else if a.(i) = b.(j) then loop (i + 1) (j + 1) k
      else loop i (j + 1) k
    in
    let k = loop 0 0 0 in
    if k = na then a else Array.sub out 0 k
  end

let equal a b =
  Array.length a = Array.length b
  &&
  let rec loop i = i >= Array.length a || (a.(i) = b.(i) && loop (i + 1)) in
  loop 0
