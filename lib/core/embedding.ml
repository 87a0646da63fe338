type slots = { names : string array; of_var : string -> int option }

let slots (q : Query_graph.t) =
  let open_names = List.map (fun o -> o.Query_graph.obj_var) q.opens in
  let names = Array.append q.var_names (Array.of_list open_names) in
  let index = Hashtbl.create (Array.length names) in
  Array.iteri (fun i name -> if not (Hashtbl.mem index name) then Hashtbl.add index name i) names;
  { names; of_var = (fun v -> Hashtbl.find_opt index v) }

module Term_ids = Hashtbl.Make (Rdf.Term)

type state = Fresh | Live | Done

(* An odometer over (component, solution, satellite, open-object)
   indices. Digits, slowest first: component 0's solution, then its
   satellites from last to first, then component 1's, ..., then open
   object 0's binding, ..., the last open object's. The digits'
   current values are written into [vertices] and [terms]. *)
type cursor = {
  vertices : int array;  (* query vertex -> data vertex *)
  terms : Rdf.Term.t array;  (* open object i -> its current binding *)
  solutions : Matcher.solution list array;
      (* per component, the solutions with no empty satellite set *)
  current : Matcher.solution list array;
      (* per component, the solutions from the current one on *)
  digits : int array array;  (* per component, satellite j's set index *)
  opens : Query_graph.open_object array;
  lits : Literal_bindings.t;
  open_subject : int array;  (* the data vertex [open_all] was looked up for *)
  open_all : Rdf.Term.t list array;
  open_rest : Rdf.Term.t list array;  (* head = the current binding *)
  interned : int Term_ids.t;  (* open-object terms -> key cells *)
  mutable state : state;
}

let cursor ~q ~lits ~solutions =
  let opens = Array.of_list q.Query_graph.opens in
  let productive (sol : Matcher.solution) =
    List.for_all (fun (_, set) -> Array.length set > 0) sol.sats
  in
  let solutions =
    Array.map
      (fun sols ->
        if List.for_all productive sols then sols else List.filter productive sols)
      solutions
  in
  let width sols =
    List.fold_left (fun w (s : Matcher.solution) -> max w (List.length s.sats)) 0 sols
  in
  {
    vertices = Array.make (Query_graph.vertex_count q) (-1);
    terms = Array.make (Array.length opens) (Rdf.Term.iri "");
    solutions;
    current = Array.copy solutions;
    digits = Array.map (fun sols -> Array.make (width sols) 0) solutions;
    opens;
    lits;
    open_subject = Array.make (Array.length opens) (-1);
    open_all = Array.make (Array.length opens) [];
    open_rest = Array.make (Array.length opens) [];
    interned = Term_ids.create 16;
    state = Fresh;
  }

let rec set_core vertices = function
  | [] -> ()
  | (u, v) :: rest ->
      vertices.(u) <- v;
      set_core vertices rest

let rec reset_sats vertices digits j = function
  | [] -> ()
  | (u, set) :: rest ->
      digits.(j) <- 0;
      vertices.(u) <- set.(0);
      reset_sats vertices digits (j + 1) rest

(* The first satellite varies fastest: bump its digit, and on overflow
   wrap it and carry into the next. *)
let rec bump_sats vertices digits j = function
  | [] -> false
  | (u, set) :: rest ->
      let d = digits.(j) + 1 in
      if d < Array.length set then begin
        digits.(j) <- d;
        vertices.(u) <- set.(d);
        true
      end
      else begin
        digits.(j) <- 0;
        vertices.(u) <- set.(0);
        bump_sats vertices digits (j + 1) rest
      end

let load c i (sol : Matcher.solution) =
  set_core c.vertices sol.core;
  reset_sats c.vertices c.digits.(i) 0 sol.sats

(* Next core-and-satellite assignment; the last component varies
   fastest, and within one the satellites before the solution. *)
let rec bump_components c i =
  i >= 0
  &&
  match c.current.(i) with
  | [] -> assert false
  | sol :: later -> (
      bump_sats c.vertices c.digits.(i) 0 sol.sats
      ||
      match later with
      | next :: _ ->
          c.current.(i) <- later;
          load c i next;
          true
      | [] ->
          let first = c.solutions.(i) in
          c.current.(i) <- first;
          load c i (List.hd first);
          bump_components c (i - 1))

(* First binding of every open object under the current assignment;
   false when one of them has none. *)
let rec load_opens c i =
  i = Array.length c.opens
  ||
  let o = c.opens.(i) in
  let v = c.vertices.(o.Query_graph.subject) in
  if v <> c.open_subject.(i) then begin
    c.open_subject.(i) <- v;
    c.open_all.(i) <- Literal_bindings.bindings c.lits ~vertex:v ~pred:o.pred
  end;
  match c.open_all.(i) with
  | [] -> false
  | t :: _ as all ->
      c.open_rest.(i) <- all;
      c.terms.(i) <- t;
      load_opens c (i + 1)

(* The last open object varies fastest. *)
let rec bump_opens c i =
  i >= 0
  &&
  match c.open_rest.(i) with
  | _ :: (t :: _ as rest) ->
      c.open_rest.(i) <- rest;
      c.terms.(i) <- t;
      true
  | _ ->
      let all = c.open_all.(i) in
      c.open_rest.(i) <- all;
      c.terms.(i) <- List.hd all;
      bump_opens c (i - 1)

(* The assignment just changed: skip ahead past assignments under
   which some open object has no binding. *)
let rec settle c =
  load_opens c 0 || (bump_components c (Array.length c.current - 1) && settle c)

let next c =
  let found =
    match c.state with
    | Done -> false
    | Fresh ->
        c.state <- Live;
        Array.for_all (fun sols -> sols <> []) c.solutions
        && begin
             Array.iteri (fun i sols -> load c i (List.hd sols)) c.solutions;
             settle c
           end
    | Live ->
        bump_opens c (Array.length c.opens - 1)
        || (bump_components c (Array.length c.current - 1) && settle c)
  in
  if not found then c.state <- Done;
  found

let term db c slot =
  let n = Array.length c.vertices in
  if slot < n then Database.term_of_vertex db c.vertices.(slot)
  else c.terms.(slot - n)

let key c slots =
  let n = Array.length c.vertices in
  Array.map
    (fun slot ->
      if slot < n then c.vertices.(slot)
      else
        let t = c.terms.(slot - n) in
        match Term_ids.find_opt c.interned t with
        | Some id -> id
        | None ->
            let id = Term_ids.length c.interned in
            Term_ids.add c.interned t id;
            id)
    slots

let rows ~db ~q ~lits ~solutions () =
  let c = cursor ~q ~lits ~solutions in
  let width = Array.length c.vertices + Array.length c.opens in
  Seq.unfold
    (fun c -> if next c then Some (Array.init width (term db c), c) else None)
    c ()

let count ~q ~lits ~solutions =
  if q.Query_graph.opens = [] then begin
    let saturating_add a b = if a > max_int - b then max_int else a + b in
    let saturating_mul a b =
      if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b
    in
    Array.fold_left
      (fun total sols ->
        saturating_mul total
          (List.fold_left
             (fun n sol -> saturating_add n (Matcher.count_embeddings sol))
             0 sols))
      1 solutions
  end
  else begin
    let c = cursor ~q ~lits ~solutions in
    let n = ref 0 in
    while next c do
      incr n
    done;
    !n
  end
