let magic = "AMBERDB1"

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

module Varint = struct
  (* LEB128, unsigned. OCaml ints are non-negative here (lengths and
     dictionary indexes). The reader is strict: non-minimal encodings
     (a redundant trailing 0x00 group) and encodings overflowing the
     63-bit int range raise [Corrupt], so a flipped continuation bit
     cannot silently decode to a different value. *)
  (* The 7-bit groups of [u] read as an unsigned 63-bit pattern (the
     zigzag image of a negative number has the top bit set). Top level,
     not a local closure over [buf]: a snapshot write makes millions of
     calls and must not allocate a closure per call. *)
  let rec write_groups buf u =
    if u land lnot 0x7F = 0 then Buffer.add_char buf (Char.chr u)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x7F)));
      write_groups buf (u lsr 7)
    end

  let write buf n =
    if n < 0 then invalid_arg "Binary.Varint.write: negative";
    write_groups buf n

  let rec read_slow src pos shift acc =
    if !pos >= String.length src then corrupt "truncated varint";
    if shift > 56 then corrupt "varint overflow";
    let byte = Char.code (String.unsafe_get src !pos) in
    incr pos;
    if byte land 0x80 = 0 then begin
      if byte = 0 && shift > 0 then corrupt "non-minimal varint";
      (* The group at shift 56 may only fill bits 56..61: bit 62 is
         the sign bit of a 63-bit OCaml int. *)
      if shift = 56 && byte > 0x3F then corrupt "varint overflow";
      acc lor (byte lsl shift)
    end
    else read_slow src pos (shift + 7) (acc lor ((byte land 0x7F) lsl shift))

  (* Single-byte fast path: the overwhelmingly common case in the index
     snapshots (labels, degrees, small ids). *)
  let read src pos =
    let p = !pos in
    if p < String.length src then begin
      let byte = Char.code (String.unsafe_get src p) in
      if byte land 0x80 = 0 then begin
        pos := p + 1;
        byte
      end
      else read_slow src pos 0 0
    end
    else corrupt "truncated varint"

  (* Signed values (synopsis coordinates can be negative) use the zigzag
     mapping n -> (n << 1) XOR (n >> 62) over the full 63-bit pattern,
     so small magnitudes of either sign stay short. *)
  let write_signed buf n = write_groups buf ((n lsl 1) lxor (n asr 62))

  (* Like [read_slow], but the final group at shift 56 may use all 7
     bits: the zigzag pattern fills the full 63-bit word (bit 62 is
     data, not a sign bit to protect). *)
  let rec read_signed_slow src pos shift acc =
    if !pos >= String.length src then corrupt "truncated varint";
    if shift > 56 then corrupt "varint overflow";
    let byte = Char.code (String.unsafe_get src !pos) in
    incr pos;
    if byte land 0x80 = 0 then begin
      if byte = 0 && shift > 0 then corrupt "non-minimal varint";
      acc lor (byte lsl shift)
    end
    else read_signed_slow src pos (shift + 7) (acc lor ((byte land 0x7F) lsl shift))

  let read_signed src pos =
    let p = !pos in
    let u =
      if p < String.length src then begin
        let byte = Char.code (String.unsafe_get src p) in
        if byte land 0x80 = 0 then begin
          pos := p + 1;
          byte
        end
        else read_signed_slow src pos 0 0
      end
      else corrupt "truncated varint"
    in
    (u lsr 1) lxor (- (u land 1))
end

(* CRC-32 (IEEE 802.3, reflected), table driven — guards snapshot
   sections against the corruption the varint reader alone cannot see.
   Slicing-by-8: eight derived tables (table [k] at [k * 256] of one
   flat array) let the hot loop fold two 32-bit words per iteration
   instead of one byte. Built eagerly at module initialisation (a few
   microseconds): a lazy would not be safe to force from concurrent
   domains. *)
let crc_table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(c land 0xFF) lxor (c lsr 8)
    done
  done;
  t

let crc32 ?(off = 0) ?len src =
  let len = match len with Some l -> l | None -> String.length src - off in
  if off < 0 || len < 0 || off + len > String.length src then
    invalid_arg "Binary.crc32: range out of bounds";
  (* Entry [i] of table [k]; every index is a byte, so in bounds. *)
  let tb k i = Array.unsafe_get crc_table ((k lsl 8) lor i) in
  let word i = Int32.to_int (String.get_int32_le src i) land 0xFFFFFFFF in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let x = !c lxor word !i and y = word (!i + 4) in
    c :=
      tb 7 (x land 0xFF)
      lxor tb 6 ((x lsr 8) land 0xFF)
      lxor tb 5 ((x lsr 16) land 0xFF)
      lxor tb 4 (x lsr 24)
      lxor tb 3 (y land 0xFF)
      lxor tb 2 ((y lsr 8) land 0xFF)
      lxor tb 1 ((y lsr 16) land 0xFF)
      lxor tb 0 (y lsr 24);
    i := !i + 8
  done;
  for j = !i to off + len - 1 do
    c :=
      tb 0 ((!c lxor Char.code (String.unsafe_get src j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let write_string buf s =
  Varint.write buf (String.length s);
  Buffer.add_string buf s

let read_string src pos =
  let len = Varint.read src pos in
  if !pos + len > String.length src then corrupt "truncated string";
  let s = String.sub src !pos len in
  pos := !pos + len;
  s

(* Term tags. *)
let tag_iri = 0
let tag_plain = 1
let tag_typed = 2
let tag_lang = 3
let tag_bnode = 4

let write_term buf = function
  | Term.Iri iri ->
      Varint.write buf tag_iri;
      write_string buf iri
  | Term.Literal { value; datatype = None; lang = None } ->
      Varint.write buf tag_plain;
      write_string buf value
  | Term.Literal { value; datatype = Some dt; lang = None } ->
      Varint.write buf tag_typed;
      write_string buf value;
      write_string buf dt
  | Term.Literal { value; datatype = None; lang = Some l } ->
      Varint.write buf tag_lang;
      write_string buf value;
      write_string buf l
  | Term.Literal { datatype = Some _; lang = Some _; _ } ->
      assert false (* Term.literal forbids this combination *)
  | Term.Bnode b ->
      Varint.write buf tag_bnode;
      write_string buf b

let read_term src pos =
  let tag = Varint.read src pos in
  if tag = tag_iri then Term.iri (read_string src pos)
  else if tag = tag_plain then Term.literal (read_string src pos)
  else if tag = tag_typed then begin
    let value = read_string src pos in
    Term.literal ~datatype:(read_string src pos) value
  end
  else if tag = tag_lang then begin
    let value = read_string src pos in
    Term.literal ~lang:(read_string src pos) value
  end
  else if tag = tag_bnode then Term.bnode (read_string src pos)
  else corrupt "unknown term tag %d" tag

let write buf triples =
  Buffer.add_string buf magic;
  (* Dictionary: distinct terms in first-occurrence order. *)
  let ids = Hashtbl.create 1024 in
  let dictionary = ref [] in
  let dict_size = ref 0 in
  let id_of term =
    let key = Term.to_string term in
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
        let id = !dict_size in
        Hashtbl.add ids key id;
        dictionary := term :: !dictionary;
        incr dict_size;
        id
  in
  let encoded =
    List.map
      (fun { Triple.subject; predicate; obj } ->
        (id_of subject, id_of predicate, id_of obj))
      triples
  in
  Varint.write buf !dict_size;
  List.iter (write_term buf) (List.rev !dictionary);
  Varint.write buf (List.length encoded);
  List.iter
    (fun (s, p, o) ->
      Varint.write buf s;
      Varint.write buf p;
      Varint.write buf o)
    encoded

let read src ~pos =
  let n = String.length magic in
  if String.length src < pos + n || String.sub src pos n <> magic then
    corrupt "bad magic (not an AMbER binary RDF file)";
  let cursor = ref (pos + n) in
  let dict_size = Varint.read src cursor in
  let dictionary = Array.init dict_size (fun _ -> read_term src cursor) in
  let term id =
    if id < 0 || id >= dict_size then corrupt "term index %d out of range" id
    else dictionary.(id)
  in
  let count = Varint.read src cursor in
  List.init count (fun _ ->
      let s = Varint.read src cursor in
      let p = Varint.read src cursor in
      let o = Varint.read src cursor in
      match Triple.make (term s) (term p) (term o) with
      | t -> t
      | exception Triple.Invalid msg -> corrupt "invalid triple: %s" msg)

let write_file path triples =
  let buf = Buffer.create (1 lsl 16) in
  write buf triples;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  read src ~pos:0
