type error = { line : int; message : string }

exception Parse_error of error

let pp_error ppf { line; message } =
  Format.fprintf ppf "Turtle parse error at line %d: %s" line message

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable namespaces : Namespace.t;
  mutable base : string;
  mutable bnode_counter : int;
  mutable triples : Triple.t list;  (* reversed *)
}

let fail st fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line = st.line; message })) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek_at st k =
  if st.pos + k < String.length st.src then Some st.src.[st.pos + k] else None

let advance st =
  (match peek st with Some '\n' -> st.line <- st.line + 1 | _ -> ());
  st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_ws st
  | Some '#' ->
      while (match peek st with Some c -> c <> '\n' | None -> false) do
        advance st
      done;
      skip_ws st
  | _ -> ()

let expect st c =
  skip_ws st;
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail st "expected '%c', found '%c'" c x
  | None -> fail st "expected '%c', found end of input" c

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
  | _ -> false

let read_name st =
  let start = st.pos in
  while (match peek st with Some c -> is_name_char c | None -> false) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let read_iri_ref st =
  expect st '<';
  let start = st.pos in
  while (match peek st with Some c -> c <> '>' | None -> false) do
    advance st
  done;
  if peek st = None then fail st "unterminated IRI";
  let body = String.sub st.src start (st.pos - start) in
  advance st;
  (* Base resolution by concatenation: good enough for relative names. *)
  if String.length body > 0 && String.contains body ':' then body
  else st.base ^ body

let read_quoted st =
  expect st '"';
  (* Reject the long-string form explicitly. *)
  if peek st = Some '"' && peek_at st 1 = Some '"' then
    fail st "triple-quoted strings are not supported";
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' -> (
        match Term.unescape st.src st.pos buf with
        | Ok len ->
            st.pos <- st.pos + len;
            loop ()
        | Error message -> fail st "%s" message)
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let expand st prefix local =
  match Namespace.expand st.namespaces (prefix ^ ":" ^ local) with
  | Some iri -> iri
  | None -> fail st "unbound prefix %S" prefix

let fresh_bnode st =
  st.bnode_counter <- st.bnode_counter + 1;
  Term.bnode (Printf.sprintf "genid%d" st.bnode_counter)

let emit st s p o =
  match Triple.make s p o with
  | triple -> st.triples <- triple :: st.triples
  | exception Triple.Invalid msg -> fail st "%s" msg

let rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
let xsd = "http://www.w3.org/2001/XMLSchema#"

let is_digit = function '0' .. '9' -> true | _ -> false

(* Forward declaration for anonymous blank nodes. *)
let rec read_term st ~as_predicate : Term.t =
  skip_ws st;
  match peek st with
  | Some '<' -> Term.iri (read_iri_ref st)
  | Some '_' ->
      advance st;
      expect st ':';
      let label = read_name st in
      if label = "" then fail st "empty blank node label";
      Term.bnode label
  | Some '[' when not as_predicate ->
      advance st;
      let node = fresh_bnode st in
      skip_ws st;
      if peek st = Some ']' then advance st
      else begin
        read_predicate_object_list st node;
        expect st ']'
      end;
      node
  | Some '"' -> read_literal st
  | Some c when is_digit c || c = '-' || c = '+' -> read_number st
  | Some c when is_name_char c || c = ':' ->
      let name = if c = ':' then "" else read_name st in
      if peek st = Some ':' then begin
        advance st;
        let local =
          match peek st with
          | Some c when is_name_char c -> read_name st
          | _ -> ""
        in
        Term.iri (expand st name local)
      end
      else if name = "a" && as_predicate then Term.iri rdf_type
      else if name = "true" || name = "false" then
        Term.literal ~datatype:(xsd ^ "boolean") name
      else fail st "unexpected bare word %S" name
  | Some c -> fail st "unexpected character '%c'" c
  | None -> fail st "unexpected end of input"

and read_literal st =
  let value = read_quoted st in
  match peek st with
  | Some '@' ->
      advance st;
      let lang = read_name st in
      if lang = "" then fail st "empty language tag";
      Term.literal ~lang value
  | Some '^' ->
      advance st;
      expect st '^';
      skip_ws st;
      let dt =
        match peek st with
        | Some '<' -> read_iri_ref st
        | Some c when is_name_char c || c = ':' ->
            let name = if c = ':' then "" else read_name st in
            if peek st = Some ':' then begin
              advance st;
              let local = read_name st in
              expand st name local
            end
            else fail st "expected datatype IRI"
        | _ -> fail st "expected datatype IRI"
      in
      Term.literal ~datatype:dt value
  | _ -> Term.literal value

and read_number st =
  let start = st.pos in
  if peek st = Some '-' || peek st = Some '+' then advance st;
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let decimal =
    match (peek st, peek_at st 1) with
    | Some '.', Some d when is_digit d ->
        advance st;
        while (match peek st with Some c -> is_digit c | None -> false) do
          advance st
        done;
        true
    | _ -> false
  in
  let text = String.sub st.src start (st.pos - start) in
  Term.literal ~datatype:(xsd ^ if decimal then "decimal" else "integer") text

(* predicate objects ( ; predicate objects )* for a given subject *)
and read_predicate_object_list st subject =
  let rec one () =
    skip_ws st;
    let predicate = read_term st ~as_predicate:true in
    (match predicate with
    | Term.Iri _ -> ()
    | Term.Literal _ | Term.Bnode _ -> fail st "predicate must be an IRI");
    let rec objects () =
      let obj = read_term st ~as_predicate:false in
      emit st subject predicate obj;
      skip_ws st;
      if peek st = Some ',' then begin
        advance st;
        objects ()
      end
    in
    objects ();
    skip_ws st;
    if peek st = Some ';' then begin
      advance st;
      skip_ws st;
      (* tolerate dangling ';' before '.' or ']' *)
      match peek st with
      | Some ('.' | ']') -> ()
      | _ -> one ()
    end
  in
  one ()

let starts_with_keyword st kw =
  let n = String.length kw in
  st.pos + n <= String.length st.src
  && String.uppercase_ascii (String.sub st.src st.pos n) = kw
  && match peek_at st n with
     | Some (' ' | '\t' | '\r' | '\n' | '<') -> true
     | _ -> false

let read_prefix_declaration st ~sparql_style =
  (* after the keyword *)
  skip_ws st;
  let prefix =
    match peek st with
    | Some ':' -> ""
    | Some c when is_name_char c -> read_name st
    | _ -> fail st "expected prefix name"
  in
  expect st ':';
  skip_ws st;
  let iri = read_iri_ref st in
  st.namespaces <- Namespace.add st.namespaces ~prefix ~iri;
  if not sparql_style then expect st '.'

let read_base_declaration st ~sparql_style =
  skip_ws st;
  let iri = read_iri_ref st in
  st.base <- iri;
  if not sparql_style then expect st '.'

let parse_document st =
  let rec loop () =
    skip_ws st;
    match peek st with
    | None -> ()
    | Some '@' ->
        advance st;
        let kw = read_name st in
        (match String.lowercase_ascii kw with
        | "prefix" -> read_prefix_declaration st ~sparql_style:false
        | "base" -> read_base_declaration st ~sparql_style:false
        | other -> fail st "unknown directive @%s" other);
        loop ()
    | Some _ when starts_with_keyword st "PREFIX" ->
        st.pos <- st.pos + 6;
        read_prefix_declaration st ~sparql_style:true;
        loop ()
    | Some _ when starts_with_keyword st "BASE" ->
        st.pos <- st.pos + 4;
        read_base_declaration st ~sparql_style:true;
        loop ()
    | Some '(' -> fail st "collections are not supported"
    | Some _ ->
        let subject = read_term st ~as_predicate:false in
        (match subject with
        | Term.Literal _ -> fail st "literal subject"
        | Term.Iri _ | Term.Bnode _ -> ());
        skip_ws st;
        (* An anonymous subject "[ p o ] ." may end immediately. *)
        (match peek st with
        | Some '.' -> ()
        | _ -> read_predicate_object_list st subject);
        expect st '.';
        loop ()
  in
  loop ()

let parse_string ?(namespaces = Namespace.empty) src =
  let st =
    {
      src;
      pos = 0;
      line = 1;
      namespaces;
      base = "";
      bnode_counter = 0;
      triples = [];
    }
  in
  parse_document st;
  List.rev st.triples

let parse_file ?namespaces path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse_string ?namespaces src
