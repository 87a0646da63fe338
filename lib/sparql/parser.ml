exception Error of { line : int; col : int; message : string }

type state = {
  mutable tokens : Lexer.located list;
  mutable namespaces : Rdf.Namespace.t;
}

let current st =
  match st.tokens with
  | [] -> { Lexer.token = Lexer.Eof; line = 0; col = 0 }
  | t :: _ -> t

let fail_at { Lexer.line; col; _ } message = raise (Error { line; col; message })
let fail st message = fail_at (current st) message

let advance st =
  match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let eat st expected =
  let t = current st in
  if t.token = expected then advance st
  else
    fail st
      (Format.asprintf "expected %a, found %a" Lexer.pp_token expected
         Lexer.pp_token t.token)

let rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
let xsd_integer = "http://www.w3.org/2001/XMLSchema#integer"
let xsd_decimal = "http://www.w3.org/2001/XMLSchema#decimal"

let expand st prefix local =
  match Rdf.Namespace.expand st.namespaces (prefix ^ ":" ^ local) with
  | Some iri -> iri
  | None -> fail st (Printf.sprintf "unbound prefix %S" prefix)

(* Literal = string with optional @lang or ^^datatype, or a number. *)
let parse_literal st =
  match (current st).token with
  | Lexer.String_lit value -> (
      advance st;
      match (current st).token with
      | Lexer.Lang_tag lang ->
          advance st;
          { Rdf.Term.value; datatype = None; lang = Some lang }
      | Lexer.Datatype_marker -> (
          advance st;
          match (current st).token with
          | Lexer.Iri_ref dt ->
              advance st;
              { Rdf.Term.value; datatype = Some dt; lang = None }
          | Lexer.Pname (p, l) ->
              advance st;
              { Rdf.Term.value; datatype = Some (expand st p l); lang = None }
          | _ -> fail st "expected datatype IRI after ^^")
      | _ -> { Rdf.Term.value; datatype = None; lang = None })
  | Lexer.Integer text ->
      advance st;
      { Rdf.Term.value = text; datatype = Some xsd_integer; lang = None }
  | Lexer.Decimal text ->
      advance st;
      { Rdf.Term.value = text; datatype = Some xsd_decimal; lang = None }
  | _ -> fail st "expected literal"

let parse_term st ~allow_literal ~allow_a =
  match (current st).token with
  | Lexer.Var v ->
      advance st;
      Ast.Var v
  | Lexer.Iri_ref iri ->
      advance st;
      Ast.Iri iri
  | Lexer.Pname (p, l) ->
      advance st;
      Ast.Iri (expand st p l)
  | Lexer.KW_a when allow_a ->
      advance st;
      Ast.Iri rdf_type
  | Lexer.String_lit _ | Lexer.Integer _ | Lexer.Decimal _ when allow_literal ->
      Ast.Lit (parse_literal st)
  | t ->
      fail st (Format.asprintf "unexpected %a in triple pattern" Lexer.pp_token t)

(* subject, then one or more [verb objects] groups separated by ';'. *)
let parse_block st =
  let subject = parse_term st ~allow_literal:false ~allow_a:false in
  let patterns = ref [] in
  let rec parse_props () =
    let predicate = parse_term st ~allow_literal:false ~allow_a:true in
    let rec parse_objects () =
      let obj = parse_term st ~allow_literal:true ~allow_a:false in
      patterns := { Ast.subject; predicate; obj } :: !patterns;
      if (current st).token = Lexer.Comma then begin
        advance st;
        parse_objects ()
      end
    in
    parse_objects ();
    if (current st).token = Lexer.Semicolon then begin
      advance st;
      (* A dangling ';' before '}' or '.' is tolerated (common SPARQL). *)
      match (current st).token with
      | Lexer.Rbrace | Lexer.Dot -> ()
      | _ -> parse_props ()
    end
  in
  parse_props ();
  List.rev !patterns

(* ORDER BY key+ / LIMIT n / OFFSET n, in any LIMIT/OFFSET order. *)
let parse_solution_modifiers st =
  let order_by =
    if (current st).token = Lexer.KW_order then begin
      advance st;
      eat st Lexer.KW_by;
      let rec keys acc =
        match (current st).token with
        | Lexer.Var v ->
            advance st;
            keys ((v, Ast.Asc) :: acc)
        | Lexer.KW_asc | Lexer.KW_desc ->
            let dir =
              if (current st).token = Lexer.KW_asc then Ast.Asc else Ast.Desc
            in
            advance st;
            eat st Lexer.Lparen;
            (match (current st).token with
            | Lexer.Var v ->
                advance st;
                eat st Lexer.Rparen;
                keys ((v, dir) :: acc)
            | _ -> fail st "expected variable in ASC()/DESC()")
        | _ -> List.rev acc
      in
      let keys = keys [] in
      if keys = [] then fail st "expected sort keys after ORDER BY" else keys
    end
    else []
  in
  let int_after kw =
    advance st;
    match (current st).token with
    | Lexer.Integer text ->
        advance st;
        int_of_string text
    | _ -> fail st (Printf.sprintf "expected integer after %s" kw)
  in
  let limit = ref None and offset = ref None in
  let rec modifiers () =
    match (current st).token with
    | Lexer.KW_limit when !limit = None ->
        limit := Some (int_after "LIMIT");
        modifiers ()
    | Lexer.KW_offset when !offset = None ->
        offset := Some (int_after "OFFSET");
        modifiers ()
    | _ -> ()
  in
  modifiers ();
  (order_by, !limit, !offset)

(* ------------------------------------------------------------------ *)
(* FILTER expressions and groups                                       *)
(* ------------------------------------------------------------------ *)

let const_of_literal lit = Algebra.E_const (Rdf.Term.Literal lit)

(* expr := or; or := and (|| and)*; and := rel (&& rel)*;
   rel := unary (cmp unary)?; unary := '!' unary | primary *)
let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  if (current st).token = Lexer.Op_or then begin
    advance st;
    Algebra.E_or (left, parse_or st)
  end
  else left

and parse_and st =
  let left = parse_rel st in
  if (current st).token = Lexer.Op_and then begin
    advance st;
    Algebra.E_and (left, parse_and st)
  end
  else left

and parse_rel st =
  let left = parse_unary st in
  let binop op =
    advance st;
    op left (parse_unary st)
  in
  match (current st).token with
  | Lexer.Op_eq -> binop (fun a b -> Algebra.E_eq (a, b))
  | Lexer.Op_neq -> binop (fun a b -> Algebra.E_neq (a, b))
  | Lexer.Op_lt -> binop (fun a b -> Algebra.E_lt (a, b))
  | Lexer.Op_le -> binop (fun a b -> Algebra.E_le (a, b))
  | Lexer.Op_gt -> binop (fun a b -> Algebra.E_gt (a, b))
  | Lexer.Op_ge -> binop (fun a b -> Algebra.E_ge (a, b))
  | _ -> left

and parse_unary st =
  match (current st).token with
  | Lexer.Op_not ->
      advance st;
      Algebra.E_not (parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  match (current st).token with
  | Lexer.Lparen ->
      advance st;
      let e = parse_expr st in
      eat st Lexer.Rparen;
      e
  | Lexer.Var v ->
      advance st;
      Algebra.E_var v
  | Lexer.Iri_ref iri ->
      advance st;
      Algebra.E_const (Rdf.Term.iri iri)
  | Lexer.Pname (p, l) ->
      advance st;
      Algebra.E_const (Rdf.Term.iri (expand st p l))
  | Lexer.String_lit _ | Lexer.Integer _ | Lexer.Decimal _ ->
      const_of_literal (parse_literal st)
  | Lexer.KW_bound -> (
      advance st;
      eat st Lexer.Lparen;
      match (current st).token with
      | Lexer.Var v ->
          advance st;
          eat st Lexer.Rparen;
          Algebra.E_bound v
      | _ -> fail st "expected variable in BOUND(...)")
  | Lexer.KW_regex -> (
      advance st;
      eat st Lexer.Lparen;
      let value = parse_expr st in
      eat st Lexer.Comma;
      match (current st).token with
      | Lexer.String_lit pat ->
          advance st;
          eat st Lexer.Rparen;
          Algebra.E_regex (value, pat)
      | _ -> fail st "expected pattern string in REGEX(...)")
  | t -> fail st (Format.asprintf "unexpected %a in expression" Lexer.pp_token t)

(* group := '{' item* '}' where items join left to right; FILTERs apply
   to the whole group (SPARQL group scoping). A group of triples alone is
   one [Bgp]. *)
let rec parse_group st : Algebra.pattern =
  eat st Lexer.Lbrace;
  let join acc p =
    match acc with
    | None -> Some p
    | Some a -> Some (Algebra.Join (a, p))
  in
  let acc = ref None in
  let triples = ref [] in
  let filters = ref [] in
  let flush_triples () =
    if !triples <> [] then begin
      acc := join !acc (Algebra.Bgp (List.rev !triples));
      triples := []
    end
  in
  let rec loop () =
    match (current st).token with
    | Lexer.Rbrace -> advance st
    | Lexer.Lbrace ->
        flush_triples ();
        let sub = parse_union_chain st in
        acc := join !acc sub;
        skip_dot st;
        loop ()
    | Lexer.KW_optional ->
        advance st;
        flush_triples ();
        let right = parse_group st in
        let left = Option.value ~default:(Algebra.Bgp []) !acc in
        acc := Some (Algebra.Optional (left, right));
        skip_dot st;
        loop ()
    | Lexer.KW_filter ->
        advance st;
        let e =
          match (current st).token with
          | Lexer.Lparen ->
              advance st;
              let e = parse_expr st in
              eat st Lexer.Rparen;
              e
          | Lexer.KW_bound | Lexer.KW_regex -> parse_expr st
          | _ -> fail st "expected ( or a builtin call after FILTER"
        in
        filters := e :: !filters;
        skip_dot st;
        loop ()
    | _ ->
        triples := List.rev_append (parse_block st) !triples;
        (match (current st).token with
        | Lexer.Dot -> advance st
        | Lexer.Rbrace | Lexer.Lbrace | Lexer.KW_optional | Lexer.KW_filter -> ()
        | _ -> fail st "expected '.', '}', OPTIONAL, FILTER or a subgroup");
        loop ()
  in
  loop ();
  flush_triples ();
  let body = Option.value ~default:(Algebra.Bgp []) !acc in
  List.fold_left (fun p e -> Algebra.Filter (e, p)) body !filters

and skip_dot st = if (current st).token = Lexer.Dot then advance st

and parse_union_chain st =
  let first = parse_group st in
  if (current st).token = Lexer.KW_union then begin
    advance st;
    Algebra.Union (first, parse_union_chain st)
  end
  else first


(* A group that must be a basic graph pattern (the BGP engine's input,
   ASK and CONSTRUCT). *)
let parse_bgp st what =
  let at = current st in
  match parse_group st with
  | Algebra.Bgp patterns -> patterns
  | _ -> fail_at at (what ^ " takes a basic graph pattern: no UNION, OPTIONAL or FILTER")

let expect_eof st =
  match (current st).token with
  | Lexer.Eof -> ()
  | t -> fail st (Format.asprintf "trailing %a after query" Lexer.pp_token t)

(* Tokenize (lexer errors become parse errors) and read the PREFIX
   prologue. *)
let start ?(namespaces = Rdf.Namespace.common) src =
  let tokens =
    try Lexer.tokenize src
    with Lexer.Error { line; col; message } -> raise (Error { line; col; message })
  in
  let st = { tokens; namespaces } in
  let rec prefixes () =
    if (current st).token = Lexer.KW_prefix then begin
      advance st;
      match (current st).token with
      | Lexer.Pname (p, "") -> (
          advance st;
          match (current st).token with
          | Lexer.Iri_ref iri ->
              advance st;
              st.namespaces <- Rdf.Namespace.add st.namespaces ~prefix:p ~iri;
              prefixes ()
          | _ -> fail st "expected <iri> in PREFIX declaration")
      | _ -> fail st "expected prefix name in PREFIX declaration"
    end
  in
  prefixes ();
  st

(* SELECT DISTINCT? ('*' | var+) WHERE? *)
let parse_select_head st =
  eat st Lexer.KW_select;
  let distinct =
    if (current st).token = Lexer.KW_distinct then begin
      advance st;
      true
    end
    else false
  in
  let select =
    match (current st).token with
    | Lexer.Star ->
        advance st;
        Ast.Select_all
    | Lexer.Var _ ->
        let rec vars acc =
          match (current st).token with
          | Lexer.Var v ->
              advance st;
              vars (v :: acc)
          | _ -> List.rev acc
        in
        Ast.Select_vars (vars [])
    | _ -> fail st "expected '*' or variables after SELECT"
  in
  if (current st).token = Lexer.KW_where then advance st;
  (select, distinct)

let parse ?namespaces src =
  let st = start ?namespaces src in
  let select, distinct = parse_select_head st in
  let where = parse_bgp st "SELECT" in
  let order_by, limit, offset = parse_solution_modifiers st in
  expect_eof st;
  { Ast.select; distinct; where; order_by; limit; offset }

let parse_result ?namespaces src =
  match parse ?namespaces src with
  | q -> Ok q
  | exception Error { line; col; message } ->
      Result.Error (Printf.sprintf "line %d, col %d: %s" line col message)

type any_query =
  | Q_select of Ast.t
  | Q_algebra of Algebra.t
  | Q_ask of Ast.t
  | Q_construct of Ast.triple_pattern list * Ast.t

let parse_any ?namespaces src =
  let st = start ?namespaces src in
  match (current st).token with
  | Lexer.KW_ask ->
      advance st;
      if (current st).token = Lexer.KW_where then advance st;
      let where = parse_bgp st "ASK" in
      expect_eof st;
      Q_ask (Ast.make Ast.Select_all where)
  | Lexer.KW_construct ->
      advance st;
      let template = parse_bgp st "a CONSTRUCT template" in
      if (current st).token = Lexer.KW_where then advance st
      else fail st "expected WHERE after the CONSTRUCT template";
      let where = parse_bgp st "CONSTRUCT" in
      let order_by, limit, offset = parse_solution_modifiers st in
      expect_eof st;
      Q_construct (template, Ast.make ~order_by ?limit ?offset Ast.Select_all where)
  | _ -> (
      let select, distinct = parse_select_head st in
      (* Top-level UNION chains are accepted without enclosing braces. *)
      let pattern = parse_union_chain st in
      let order_by, limit, offset = parse_solution_modifiers st in
      expect_eof st;
      match pattern with
      | Algebra.Bgp where -> Q_select { Ast.select; distinct; where; order_by; limit; offset }
      | pattern -> Q_algebra { Algebra.select; distinct; pattern; order_by; limit; offset })
