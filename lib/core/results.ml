let add_escaped = Obs.Json.add_escaped

(* Term objects are constant prefixes and suffixes around the escaped
   strings: no per-term string is built. *)
let add_term buf = function
  | Rdf.Term.Iri iri ->
      Buffer.add_string buf {|{"type":"uri","value":"|};
      add_escaped buf iri;
      Buffer.add_string buf {|"}|}
  | Rdf.Term.Bnode b ->
      Buffer.add_string buf {|{"type":"bnode","value":"|};
      add_escaped buf b;
      Buffer.add_string buf {|"}|}
  | Rdf.Term.Literal { value; datatype; lang } ->
      Buffer.add_string buf {|{"type":"literal","value":"|};
      add_escaped buf value;
      (match (datatype, lang) with
      | Some dt, _ ->
          Buffer.add_string buf {|","datatype":"|};
          add_escaped buf dt
      | None, Some l ->
          Buffer.add_string buf {|","xml:lang":"|};
          add_escaped buf l
      | None, None -> ());
      Buffer.add_string buf {|"}|}

(* A buffer sized from rows x variables, so a large answer grows it
   once or not at all. [cell_bytes] is a typical cell, separators and
   (for JSON) its member key included. *)
let buffer_for (a : Engine.answer) ~cell_bytes =
  Buffer.create (64 + (List.length a.rows * List.length a.variables * cell_bytes))

(* [add buf] over [items], separated by [sep]. *)
let add_joined buf sep add items =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf sep;
      add buf x)
    items

let to_json (a : Engine.answer) =
  (* Each variable's ["name":] member key, escaped once per answer. *)
  let keys = List.map (fun v -> "\"" ^ Obs.Json.escape v ^ "\":") a.variables in
  let buf = buffer_for a ~cell_bytes:96 in
  Buffer.add_string buf {|{"head":{"vars":[|};
  add_joined buf ','
    (fun buf v ->
      Buffer.add_char buf '"';
      add_escaped buf v;
      Buffer.add_char buf '"')
    a.variables;
  Buffer.add_string buf {|]},"results":{"bindings":[|};
  (* Unbound cells are omitted from their binding object. *)
  let rec add_cells first keys row =
    match (keys, row) with
    | [], [] -> ()
    | _ :: keys, None :: row -> add_cells first keys row
    | key :: keys, Some term :: row ->
        if not first then Buffer.add_char buf ',';
        Buffer.add_string buf key;
        add_term buf term;
        add_cells false keys row
    | _ -> invalid_arg "Results.to_json: row width differs from variables"
  in
  add_joined buf ','
    (fun buf row ->
      Buffer.add_char buf '{';
      add_cells true keys row;
      Buffer.add_char buf '}')
    a.rows;
  Buffer.add_string buf "]}}";
  Buffer.contents buf

(* A field holding a comma, quote or line break is quoted, its quotes
   doubled. *)
let add_csv_field buf s =
  let rec needs_quotes i =
    i < String.length s
    &&
    match String.unsafe_get s i with
    | ',' | '"' | '\n' | '\r' -> true
    | _ -> needs_quotes (i + 1)
  in
  if needs_quotes 0 then begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf s

let add_csv_cell buf = function
  | None -> ()
  | Some (Rdf.Term.Iri iri) -> add_csv_field buf iri
  | Some (Rdf.Term.Bnode b) -> add_csv_field buf ("_:" ^ b)
  | Some (Rdf.Term.Literal { value; _ }) -> add_csv_field buf value

let to_csv (a : Engine.answer) =
  let buf = buffer_for a ~cell_bytes:48 in
  add_joined buf ',' add_csv_field a.variables;
  Buffer.add_string buf "\r\n";
  List.iter
    (fun row ->
      add_joined buf ',' add_csv_cell row;
      Buffer.add_string buf "\r\n")
    a.rows;
  Buffer.contents buf

let to_tsv (a : Engine.answer) =
  let buf = buffer_for a ~cell_bytes:48 in
  add_joined buf '\t'
    (fun buf v ->
      Buffer.add_char buf '?';
      Buffer.add_string buf v)
    a.variables;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      add_joined buf '\t' (fun buf -> Option.iter (Rdf.Term.add_nt buf)) row;
      Buffer.add_char buf '\n')
    a.rows;
  Buffer.contents buf

let ask_json b =
  Printf.sprintf {|{"head":{},"boolean":%b}|} b
