type token =
  | KW_prefix
  | KW_select
  | KW_distinct
  | KW_where
  | KW_limit
  | KW_a
  | KW_filter
  | KW_union
  | KW_optional
  | KW_bound
  | KW_regex
  | KW_order
  | KW_by
  | KW_asc
  | KW_desc
  | KW_offset
  | KW_ask
  | KW_construct
  | Var of string
  | Iri_ref of string
  | Pname of string * string
  | String_lit of string
  | Integer of string
  | Decimal of string
  | Lang_tag of string
  | Datatype_marker
  | Lbrace
  | Rbrace
  | Dot
  | Semicolon
  | Comma
  | Star
  | Lparen
  | Rparen
  | Op_eq
  | Op_neq
  | Op_lt
  | Op_le
  | Op_gt
  | Op_ge
  | Op_and
  | Op_or
  | Op_not
  | Eof

type located = { token : token; line : int; col : int }

exception Error of { line : int; col : int; message : string }

type state = { src : string; mutable pos : int; mutable line : int; mutable col : int }

let error st message = raise (Error { line = st.line; col = st.col; message })

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let is_ws = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

(* Local names may contain dots but not end with one ("x:a." is name "a"
   followed by Dot); trim trailing dots back into the stream. *)
let read_name st =
  let start = st.pos in
  while (match peek st with Some c -> is_name_char c | None -> false) do
    advance st
  done;
  let finish = ref st.pos in
  while !finish > start && st.src.[!finish - 1] = '.' do
    decr finish;
    st.pos <- st.pos - 1;
    st.col <- st.col - 1
  done;
  String.sub st.src start (!finish - start)

let read_quoted st =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' -> (
        match Rdf.Term.unescape st.src st.pos buf with
        | Ok len ->
            (* An escape holds no newline: the line stays, the column moves. *)
            st.pos <- st.pos + len;
            st.col <- st.col + len;
            loop ()
        | Error message -> error st message)
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let keyword_of_name name =
  match String.uppercase_ascii name with
  | "PREFIX" -> Some KW_prefix
  | "SELECT" -> Some KW_select
  | "DISTINCT" -> Some KW_distinct
  | "WHERE" -> Some KW_where
  | "LIMIT" -> Some KW_limit
  | "FILTER" -> Some KW_filter
  | "UNION" -> Some KW_union
  | "OPTIONAL" -> Some KW_optional
  | "BOUND" -> Some KW_bound
  | "REGEX" -> Some KW_regex
  | "ORDER" -> Some KW_order
  | "BY" -> Some KW_by
  | "ASC" -> Some KW_asc
  | "DESC" -> Some KW_desc
  | "OFFSET" -> Some KW_offset
  | "ASK" -> Some KW_ask
  | "CONSTRUCT" -> Some KW_construct
  | _ -> if name = "a" then Some KW_a else None

let tokenize src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let tokens = ref [] in
  let emit ~line ~col token = tokens := { token; line; col } :: !tokens in
  let rec loop () =
    match peek st with
    | None -> ()
    | Some c when is_ws c ->
        advance st;
        loop ()
    | Some '#' ->
        while (match peek st with Some c -> c <> '\n' | None -> false) do
          advance st
        done;
        loop ()
    | Some c ->
        let line = st.line and col = st.col in
        (match c with
        | '{' ->
            advance st;
            emit ~line ~col Lbrace
        | '}' ->
            advance st;
            emit ~line ~col Rbrace
        | '.' ->
            advance st;
            emit ~line ~col Dot
        | ';' ->
            advance st;
            emit ~line ~col Semicolon
        | ',' ->
            advance st;
            emit ~line ~col Comma
        | '*' ->
            advance st;
            emit ~line ~col Star
        | '(' ->
            advance st;
            emit ~line ~col Lparen
        | ')' ->
            advance st;
            emit ~line ~col Rparen
        | '=' ->
            advance st;
            emit ~line ~col Op_eq
        | '!' ->
            advance st;
            if peek st = Some '=' then begin
              advance st;
              emit ~line ~col Op_neq
            end
            else emit ~line ~col Op_not
        | '&' ->
            advance st;
            if peek st = Some '&' then begin
              advance st;
              emit ~line ~col Op_and
            end
            else error st "expected &&"
        | '|' ->
            advance st;
            if peek st = Some '|' then begin
              advance st;
              emit ~line ~col Op_or
            end
            else error st "expected ||"
        | '>' ->
            advance st;
            if peek st = Some '=' then begin
              advance st;
              emit ~line ~col Op_ge
            end
            else emit ~line ~col Op_gt
        | '?' | '$' ->
            advance st;
            let name = read_name st in
            if name = "" then error st "empty variable name"
            else emit ~line ~col (Var name)
        | '<' ->
            (* "<" begins an IRI unless followed by '=', whitespace or
               another comparison context — then it is the less-than
               operator (inside FILTER expressions). *)
            advance st;
            (match peek st with
            | Some '=' ->
                advance st;
                emit ~line ~col Op_le
            | Some (' ' | '\t' | '\r' | '\n') | None -> emit ~line ~col Op_lt
            | Some _ ->
                let start = st.pos in
                while (match peek st with Some c -> c <> '>' | None -> false) do
                  advance st
                done;
                if peek st = None then error st "unterminated IRI"
                else begin
                  let iri = String.sub st.src start (st.pos - start) in
                  advance st;
                  emit ~line ~col (Iri_ref iri)
                end)
        | '"' ->
            let s = read_quoted st in
            emit ~line ~col (String_lit s)
        | '@' ->
            advance st;
            let name = read_name st in
            if name = "" then error st "empty language tag"
            else emit ~line ~col (Lang_tag name)
        | '^' ->
            advance st;
            if peek st = Some '^' then begin
              advance st;
              emit ~line ~col Datatype_marker
            end
            else error st "expected ^^"
        | c when is_digit c || (c = '-' && (match peek2 st with Some d -> is_digit d | None -> false)) ->
            let start = st.pos in
            if c = '-' then advance st;
            while (match peek st with Some d -> is_digit d | None -> false) do
              advance st
            done;
            let decimal =
              match (peek st, peek2 st) with
              | Some '.', Some d when is_digit d ->
                  advance st;
                  while (match peek st with Some d -> is_digit d | None -> false) do
                    advance st
                  done;
                  true
              | _ -> false
            in
            let text = String.sub st.src start (st.pos - start) in
            emit ~line ~col (if decimal then Decimal text else Integer text)
        | c when is_name_start c || c = ':' ->
            let name = if c = ':' then "" else read_name st in
            if peek st = Some ':' then begin
              advance st;
              let local =
                match peek st with
                | Some c when is_name_char c -> read_name st
                | _ -> ""
              in
              emit ~line ~col (Pname (name, local))
            end
            else begin
              match keyword_of_name name with
              | Some kw -> emit ~line ~col kw
              | None ->
                  error st (Printf.sprintf "unknown bare word %S" name)
            end
        | c -> error st (Printf.sprintf "unexpected character %c" c));
        loop ()
  in
  loop ();
  emit ~line:st.line ~col:st.col Eof;
  List.rev !tokens

let pp_token ppf = function
  | KW_prefix -> Format.pp_print_string ppf "PREFIX"
  | KW_select -> Format.pp_print_string ppf "SELECT"
  | KW_distinct -> Format.pp_print_string ppf "DISTINCT"
  | KW_where -> Format.pp_print_string ppf "WHERE"
  | KW_limit -> Format.pp_print_string ppf "LIMIT"
  | KW_a -> Format.pp_print_string ppf "a"
  | Var v -> Format.fprintf ppf "?%s" v
  | Iri_ref i -> Format.fprintf ppf "<%s>" i
  | Pname (p, l) -> Format.fprintf ppf "%s:%s" p l
  | String_lit s -> Format.fprintf ppf "%S" s
  | Integer s | Decimal s -> Format.pp_print_string ppf s
  | Lang_tag l -> Format.fprintf ppf "@%s" l
  | Datatype_marker -> Format.pp_print_string ppf "^^"
  | Lbrace -> Format.pp_print_string ppf "{"
  | Rbrace -> Format.pp_print_string ppf "}"
  | Dot -> Format.pp_print_string ppf "."
  | Semicolon -> Format.pp_print_string ppf ";"
  | Comma -> Format.pp_print_string ppf ","
  | Star -> Format.pp_print_string ppf "*"
  | Lparen -> Format.pp_print_string ppf "("
  | Rparen -> Format.pp_print_string ppf ")"
  | Op_eq -> Format.pp_print_string ppf "="
  | Op_neq -> Format.pp_print_string ppf "!="
  | Op_lt -> Format.pp_print_string ppf "<"
  | Op_le -> Format.pp_print_string ppf "<="
  | Op_gt -> Format.pp_print_string ppf ">"
  | Op_ge -> Format.pp_print_string ppf ">="
  | Op_and -> Format.pp_print_string ppf "&&"
  | Op_or -> Format.pp_print_string ppf "||"
  | Op_not -> Format.pp_print_string ppf "!"
  | KW_filter -> Format.pp_print_string ppf "FILTER"
  | KW_union -> Format.pp_print_string ppf "UNION"
  | KW_optional -> Format.pp_print_string ppf "OPTIONAL"
  | KW_bound -> Format.pp_print_string ppf "BOUND"
  | KW_regex -> Format.pp_print_string ppf "REGEX"
  | KW_order -> Format.pp_print_string ppf "ORDER"
  | KW_by -> Format.pp_print_string ppf "BY"
  | KW_asc -> Format.pp_print_string ppf "ASC"
  | KW_desc -> Format.pp_print_string ppf "DESC"
  | KW_offset -> Format.pp_print_string ppf "OFFSET"
  | KW_ask -> Format.pp_print_string ppf "ASK"
  | KW_construct -> Format.pp_print_string ppf "CONSTRUCT"
  | Eof -> Format.pp_print_string ppf "<eof>"
