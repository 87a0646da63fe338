type error = { line : int; message : string }

exception Parse_error of error

let pp_error ppf { line; message } =
  Format.fprintf ppf "N-Triples parse error at line %d: %s" line message

let fail line message = raise (Parse_error { line; message })

(* A tiny cursor over one line of input. *)
type cursor = { src : string; mutable pos : int; line : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec loop () =
    match peek c with
    | Some (' ' | '\t') ->
        advance c;
        loop ()
    | _ -> ()
  in
  loop ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail c.line (Printf.sprintf "expected %c, found %c" ch x)
  | None -> fail c.line (Printf.sprintf "expected %c, found end of line" ch)

(* Read until [stop], without escape processing (IRIs, bnode labels). *)
let read_until c stop =
  let start = c.pos in
  let rec loop () =
    match peek c with
    | Some x when x <> stop ->
        advance c;
        loop ()
    | Some _ -> ()
    | None -> fail c.line (Printf.sprintf "unterminated token, expected %c" stop)
  in
  loop ();
  String.sub c.src start (c.pos - start)

let read_iri c =
  expect c '<';
  let iri = read_until c '>' in
  expect c '>';
  iri

(* Quoted string with the N-Triples escapes. *)
let read_quoted c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c.line "unterminated string literal"
    | Some '"' -> advance c
    | Some '\\' -> (
        match Term.unescape c.src c.pos buf with
        | Ok len ->
            c.pos <- c.pos + len;
            loop ()
        | Error message -> fail c.line message)
    | Some x ->
        advance c;
        Buffer.add_char buf x;
        loop ()
  in
  loop ();
  Buffer.contents buf

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
  | _ -> false

let read_bnode c =
  expect c '_';
  expect c ':';
  let start = c.pos in
  let rec loop () =
    match peek c with
    | Some x when is_name_char x ->
        advance c;
        loop ()
    | _ -> ()
  in
  loop ();
  if c.pos = start then fail c.line "empty blank node label";
  String.sub c.src start (c.pos - start)

let read_lang c =
  expect c '@';
  let start = c.pos in
  let rec loop () =
    match peek c with
    | Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-') ->
        advance c;
        loop ()
    | _ -> ()
  in
  loop ();
  if c.pos = start then fail c.line "empty language tag";
  String.sub c.src start (c.pos - start)

let read_term c =
  match peek c with
  | Some '<' -> Term.iri (read_iri c)
  | Some '_' -> Term.bnode (read_bnode c)
  | Some '"' -> (
      let value = read_quoted c in
      match peek c with
      | Some '^' ->
          advance c;
          expect c '^';
          let dt = read_iri c in
          Term.literal ~datatype:dt value
      | Some '@' ->
          let lang = read_lang c in
          Term.literal ~lang value
      | _ -> Term.literal value)
  | Some x -> fail c.line (Printf.sprintf "unexpected character %c" x)
  | None -> fail c.line "unexpected end of line"

let parse_line ?(line = 1) src =
  let c = { src; pos = 0; line } in
  skip_ws c;
  match peek c with
  | None | Some '#' -> None
  | Some _ ->
      let subject = read_term c in
      skip_ws c;
      let predicate = read_term c in
      skip_ws c;
      let obj = read_term c in
      skip_ws c;
      expect c '.';
      skip_ws c;
      (match peek c with
      | None | Some '#' -> ()
      | Some x -> fail line (Printf.sprintf "trailing garbage %c after '.'" x));
      (try Some (Triple.make subject predicate obj)
       with Triple.Invalid msg -> fail line msg)

let parse_lines lines =
  List.rev
  @@ snd
  @@ List.fold_left
       (fun (n, acc) l ->
         match parse_line ~line:n l with
         | None -> (n + 1, acc)
         | Some t -> (n + 1, t :: acc))
       (1, []) lines

let parse_string doc = parse_lines (String.split_on_char '\n' doc)

let parse_file path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     let rec loop () =
       lines := input_line ic :: !lines;
       loop ()
     in
     loop ()
   with End_of_file -> close_in ic);
  parse_lines (List.rev !lines)

let to_string triples =
  let buf = Buffer.create 1024 in
  List.iter
    (fun t ->
      Buffer.add_string buf (Triple.to_string t);
      Buffer.add_char buf '\n')
    triples;
  Buffer.contents buf

let write_file path triples =
  let oc = open_out path in
  output_string oc (to_string triples);
  close_out oc

let roundtrip_safe t =
  match parse_line (Triple.to_string t) with
  | Some t' -> Triple.equal t t'
  | None -> false
  | exception Parse_error _ -> false
