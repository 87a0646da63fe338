type t = { lo : int array; hi : int array }

let make ~lo ~hi =
  let k = Array.length lo in
  if Array.length hi <> k then invalid_arg "Rect.make: dimension mismatch";
  for i = 0 to k - 1 do
    if lo.(i) > hi.(i) then
      invalid_arg
        (Printf.sprintf "Rect.make: lo.(%d) = %d > hi.(%d) = %d" i lo.(i) i
           hi.(i))
  done;
  { lo; hi }

let dims r = Array.length r.lo

let contains outer inner =
  let k = dims outer in
  let rec loop i =
    i >= k
    || (outer.lo.(i) <= inner.lo.(i) && inner.hi.(i) <= outer.hi.(i) && loop (i + 1))
  in
  dims inner = k && loop 0

let equal a b =
  dims a = dims b
  &&
  let rec loop i =
    i >= dims a || (a.lo.(i) = b.lo.(i) && a.hi.(i) = b.hi.(i) && loop (i + 1))
  in
  loop 0

let pp ppf r =
  let show a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  Format.fprintf ppf "[%s]..[%s]" (show r.lo) (show r.hi)
