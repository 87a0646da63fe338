type t = Amber.Engine.answer = {
  variables : string list;
  rows : Rdf.Term.t option list list;
  truncated : bool;
}

let empty variables = { variables; rows = []; truncated = false }

type collector = {
  variables : string list;
  slots : int option list;  (* per selected variable *)
  dict : Term_dict.t;
  distinct : bool;
  order_by : (string * Sparql.Ast.sort_direction) list;
  offset : int option;
  limit : int option;  (* final row cap *)
  gather_cap : int option;  (* rows to gather before modifiers *)
  seen : (int option list, unit) Hashtbl.t;
  mutable rows : Rdf.Term.t option list list;
  mutable count : int;
  mutable stopped_early : bool;
}

let collector ~dict ~encoded ~ast ~limit =
  let variables = Sparql.Ast.selected_variables ast in
  let effective = Sparql.Ast.effective_limit limit ast.Sparql.Ast.limit in
  {
    variables;
    slots = List.map (Encoded.slot_of_var encoded) variables;
    dict;
    distinct = ast.Sparql.Ast.distinct;
    order_by = ast.Sparql.Ast.order_by;
    offset = ast.Sparql.Ast.offset;
    limit = effective;
    gather_cap =
      Sparql.Ast.gather_cap ~order_by:ast.order_by ~offset:ast.offset effective;
    seen = Hashtbl.create 64;
    rows = [];
    count = 0;
    stopped_early = false;
  }

let add c assignment =
  let key = List.map (Option.map (fun slot -> assignment.(slot))) c.slots in
  let fresh =
    if c.distinct then
      if Hashtbl.mem c.seen key then false
      else begin
        Hashtbl.add c.seen key ();
        true
      end
    else true
  in
  if fresh then begin
    let row =
      List.map (Option.map (fun id -> Term_dict.term c.dict id)) key
    in
    c.rows <- row :: c.rows;
    c.count <- c.count + 1
  end;
  match c.gather_cap with
  | Some l when c.count >= l ->
      c.stopped_early <- true;
      `Stop
  | _ -> `Continue

let finish c =
  let rows, truncated =
    Sparql.Ast.apply_modifiers ~order_by:c.order_by ~offset:c.offset ~limit:c.limit
      ~stopped_early:c.stopped_early c.variables (List.rev c.rows)
  in
  { variables = c.variables; rows; truncated }
