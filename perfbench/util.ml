(* Clocks, order statistics and files shared by every workload. *)

let now = Unix.gettimeofday

(* Progress on stderr; stdout carries only the report and the result. *)
let t_start = now ()
let log fmt = Printf.eprintf ("[%7.2fs] " ^^ fmt ^^ "\n%!") (now () -. t_start)

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Nearest-rank percentile of an unsorted sample ([p] in [0, 1]). *)
let percentile p samples =
  match samples with
  | [||] -> nan
  | _ ->
      let a = Array.copy samples in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median samples = percentile 0.5 samples

let mean samples =
  if samples = [||] then nan
  else Array.fold_left ( +. ) 0. samples /. float_of_int (Array.length samples)

let sum samples = Array.fold_left ( +. ) 0. samples

(* Growable float buffer: samples are appended in the timed loops, so
   appending must not allocate per element beyond amortized doubling. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.; len = 0 }

  let add b x =
    if b.len = Array.length b.data then begin
      let d = Array.make (2 * b.len) 0. in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let length b = b.len
  let to_array b = Array.sub b.data 0 b.len
end

(* Windowed order statistics. The host's speed drifts by up to ±20%
   between sub-second windows, so a statistic over one pooled sample
   follows whichever windows happened to be slow. Instead the samples
   are cut into consecutive windows of at least [min_window] samples,
   the statistic is taken per window, and the median over windows is
   reported. With fewer than three windows the pooled statistic is
   used. [cuts] are the sample counts at natural boundaries (ends of
   passes or cycles); windows only end on a cut. *)
let windowed ?(min_window = 200) ~cuts stat samples =
  let n = Array.length samples in
  let windows = ref [] in
  let start = ref 0 in
  List.iter
    (fun c ->
      if c - !start >= min_window && c <= n then begin
        windows := stat (Array.sub samples !start (c - !start)) :: !windows;
        start := c
      end)
    cuts;
  if List.length !windows < 3 then (stat samples, 1)
  else (median (Array.of_list !windows), List.length !windows)

(* Report values, in the repository's JSON type. A non-finite value has
   no JSON number form; it prints as null. *)
let num i = Obs.Json.Num (float_of_int i)
let value f = if Float.is_finite f then Obs.Json.Num f else Obs.Json.Null
let nums a = Obs.Json.Arr (Array.to_list (Array.map num a))

(* --- Filesystem -------------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
