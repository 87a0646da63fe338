type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string

(* --- parsing -------------------------------------------------------- *)

type state = { src : string; mutable pos : int }

let fail st msg = raise (Malformed (Printf.sprintf "%s at byte %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some x when x = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st ("expected " ^ word)

let hex st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "bad \\u escape"

(* Decodes \uXXXX to UTF-8 (surrogate pairs unsupported: kept as the
   replacement character) — enough for the ASCII-escaped output every
   renderer in this repo produces. *)
let add_codepoint buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
        st.pos <- st.pos + 1;
        (match peek st with
        | Some '"' -> Buffer.add_char buf '"'; st.pos <- st.pos + 1
        | Some '\\' -> Buffer.add_char buf '\\'; st.pos <- st.pos + 1
        | Some '/' -> Buffer.add_char buf '/'; st.pos <- st.pos + 1
        | Some 'n' -> Buffer.add_char buf '\n'; st.pos <- st.pos + 1
        | Some 't' -> Buffer.add_char buf '\t'; st.pos <- st.pos + 1
        | Some 'r' -> Buffer.add_char buf '\r'; st.pos <- st.pos + 1
        | Some 'b' -> Buffer.add_char buf '\b'; st.pos <- st.pos + 1
        | Some 'f' -> Buffer.add_char buf '\012'; st.pos <- st.pos + 1
        | Some 'u' when st.pos + 4 < String.length st.src ->
            let cp =
              (hex st st.src.[st.pos + 1] lsl 12)
              lor (hex st st.src.[st.pos + 2] lsl 8)
              lor (hex st st.src.[st.pos + 3] lsl 4)
              lor hex st st.src.[st.pos + 4]
            in
            add_codepoint buf (if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD else cp);
            st.pos <- st.pos + 5
        | _ -> fail st "bad escape");
        go ()
    | Some c when Char.code c < 0x20 -> fail st "raw control character in string"
    | Some c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let numeric c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < String.length st.src && numeric st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some f -> f
  | None -> fail st "malformed number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let members = ref [] in
        let rec member () =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          members := (key, v) :: !members;
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              member ()
          | Some '}' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or '}'"
        in
        member ();
        Obj (List.rev !members)
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec item () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              item ()
          | Some ']' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or ']'"
        in
        item ();
        Arr (List.rev !items)
      end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

let parse_opt s = match parse s with v -> Some v | exception Malformed _ -> None

(* --- accessors ------------------------------------------------------ *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_list = function Arr items -> items | _ -> []
let to_float = function Num f -> Some f | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

(* --- printing ------------------------------------------------------- *)

let hex_digits = "0123456789ABCDEF"

let add_escaped buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !start then Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digits.[Char.code c lsr 4];
          Buffer.add_char buf hex_digits.[Char.code c land 0xF]);
      start := i + 1
    end
  done;
  if !start < n then Buffer.add_substring buf s !start (n - !start)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

let rec print buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%.12g" f)
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          print buf v)
        items;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          print buf v)
        kvs;
      Buffer.add_char buf '}'

let to_text v =
  let buf = Buffer.create 256 in
  print buf v;
  Buffer.contents buf
