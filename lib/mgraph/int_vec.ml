type t = { mutable a : int array; mutable len : int }

let create cap = { a = Array.make (max 16 cap) 0; len = 0 }

let push v x =
  if v.len = Array.length v.a then begin
    let a = Array.make (2 * v.len) 0 in
    Array.blit v.a 0 a 0 v.len;
    v.a <- a
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

let contents v = Array.sub v.a 0 v.len
