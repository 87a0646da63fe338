module MG = Mgraph.Multigraph

type t = MG.t  (* the database's graph: N+ = In, N− = Out adjacency *)

let build db = Database.graph db

let neighbours g v dir types =
  if Array.length types = 0 then
    invalid_arg "Neighbourhood_index.neighbours: empty edge type set";
  (* The neighbour list, and a buffer of its length, are fetched at the
     first hit: a probe that nothing qualifies for, the common case,
     allocates nothing. *)
  let all = ref Mgraph.Posting.empty and buf = ref [||] and k = ref 0 in
  MG.iter_neighbours_with g dir v types (fun u ->
      if !k = 0 then begin
        all := MG.neighbours g dir v;
        buf := Array.make (Mgraph.Posting.length !all) 0
      end;
      !buf.(!k) <- u;
      incr k);
  if !k = Mgraph.Posting.length !all then !all
  else Mgraph.Posting.raw (Array.sub !buf 0 !k)
