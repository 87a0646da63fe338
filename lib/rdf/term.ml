type literal = {
  value : string;
  datatype : string option;
  lang : string option;
}

type t = Iri of string | Literal of literal | Bnode of string

let iri s = Iri s

let literal ?datatype ?lang value =
  match (datatype, lang) with
  | Some _, Some _ ->
      invalid_arg "Term.literal: a literal cannot have both datatype and lang"
  | _ -> Literal { value; datatype; lang }

let bnode label = Bnode label
let is_iri = function Iri _ -> true | Literal _ | Bnode _ -> false
let is_literal = function Literal _ -> true | Iri _ | Bnode _ -> false
let is_bnode = function Bnode _ -> true | Iri _ | Literal _ -> false

let compare_literal l1 l2 =
  let c = String.compare l1.value l2.value in
  if c <> 0 then c
  else
    let c = Option.compare String.compare l1.datatype l2.datatype in
    if c <> 0 then c else Option.compare String.compare l1.lang l2.lang

(* Rank keeps the order promised by the interface: IRI < literal < bnode. *)
let rank = function Iri _ -> 0 | Literal _ -> 1 | Bnode _ -> 2

let compare t1 t2 =
  match (t1, t2) with
  | Iri a, Iri b -> String.compare a b
  | Literal a, Literal b -> compare_literal a b
  | Bnode a, Bnode b -> String.compare a b
  | _ -> Int.compare (rank t1) (rank t2)

let equal t1 t2 = compare t1 t2 = 0

(* SPARQL ORDER BY: bnode < IRI < literal; numeric literals numerically. *)
let order_rank = function Bnode _ -> 0 | Iri _ -> 1 | Literal _ -> 2

let order_compare t1 t2 =
  match (t1, t2) with
  | Bnode a, Bnode b -> String.compare a b
  | Iri a, Iri b -> String.compare a b
  | Literal l1, Literal l2 -> (
      match (float_of_string_opt l1.value, float_of_string_opt l2.value) with
      | Some f1, Some f2 ->
          let c = Float.compare f1 f2 in
          if c <> 0 then c else compare_literal l1 l2
      | _ -> compare_literal l1 l2)
  | _ -> Int.compare (order_rank t1) (order_rank t2)

let hash = function
  | Iri s -> Hashtbl.hash (0, s)
  | Literal { value; datatype; lang } -> Hashtbl.hash (1, value, datatype, lang)
  | Bnode s -> Hashtbl.hash (2, s)

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let unescape src i buf =
  let n = String.length src in
  let char c =
    Buffer.add_char buf c;
    Ok 2
  in
  if i + 1 >= n then Error "dangling escape"
  else
    match src.[i + 1] with
    | 't' -> char '\t'
    | 'b' -> char '\b'
    | 'n' -> char '\n'
    | 'r' -> char '\r'
    | 'f' -> char '\012'
    | ('"' | '\'' | '\\') as c -> char c
    | ('u' | 'U') as u -> (
        let width = if u = 'u' then 4 else 8 in
        if i + 2 + width > n then Error "truncated unicode escape"
        else
          let hex = String.sub src (i + 2) width in
          let code = if String.for_all is_hex hex then int_of_string ("0x" ^ hex) else -1 in
          if Uchar.is_valid code then begin
            Buffer.add_utf_8_uchar buf (Uchar.of_int code);
            Ok (2 + width)
          end
          else Error (Printf.sprintf "bad unicode escape \\%c%s" u hex))
    | c -> Error (Printf.sprintf "unknown escape \\%c" c)

(* N-Triples string escaping: backslash, quote, newline, carriage
   return and tab; each run of other bytes is copied in one piece. *)
let add_escaped buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let esc =
      match String.unsafe_get s i with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ -> ""
    in
    if String.length esc > 0 then begin
      Buffer.add_substring buf s !start (i - !start);
      Buffer.add_string buf esc;
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (n - !start)

let add_nt buf = function
  | Iri s ->
      Buffer.add_char buf '<';
      Buffer.add_string buf s;
      Buffer.add_char buf '>'
  | Bnode b ->
      Buffer.add_string buf "_:";
      Buffer.add_string buf b
  | Literal { value; datatype; lang } -> (
      Buffer.add_char buf '"';
      add_escaped buf value;
      Buffer.add_char buf '"';
      match (datatype, lang) with
      | Some dt, _ ->
          Buffer.add_string buf "^^<";
          Buffer.add_string buf dt;
          Buffer.add_char buf '>'
      | None, Some l ->
          Buffer.add_char buf '@';
          Buffer.add_string buf l
      | None, None -> ())

let to_string t =
  let buf = Buffer.create 64 in
  add_nt buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
