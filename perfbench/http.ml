(* A one-request-per-connection HTTP/1.1 client and the lifecycle of an
   [amber serve] subprocess. *)

exception Failed of string

let url_encode s =
  let b = Buffer.create (String.length s * 3) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

let sparql_target query = "/sparql?query=" ^ url_encode query

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* GET [target] on a fresh connection; returns (status, body). The
   server answers with [Connection: close], so the body runs to EOF.
   [timeout] bounds every socket read and write. *)
let get ~port ~timeout target =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all fd
        (Printf.sprintf
           "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: application/sparql-results+json\r\nConnection: close\r\n\r\n"
           target);
      let buf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let rec loop () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            loop ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            raise (Failed "read timed out")
      in
      loop ();
      let resp = Buffer.contents buf in
      let status =
        try Scanf.sscanf resp "HTTP/1.%_d %d" Fun.id
        with _ -> raise (Failed "malformed status line")
      in
      let body =
        let rec find i =
          if i + 4 > String.length resp then raise (Failed "no header terminator")
          else if String.sub resp i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        let start = find 0 in
        String.sub resp start (String.length resp - start)
      in
      (status, body))

(* --- the server subprocess --------------------------------------------- *)

type server = { pid : int; port : int; out : in_channel }

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  close_in_noerr s.out

(* Spawn [cli serve] on an ephemeral port and wait — blocking on the
   child's stdout, no polling — for the line announcing the bound port,
   then for the first [/healthz] answer. Returns the server and the
   seconds from spawn to that answer. *)
let spawn ~cli ~args ~log =
  let t0 = Util.now () in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close wr;
        Unix.close err)
      (fun () ->
        Unix.create_process cli
          (Array.of_list (cli :: "serve" :: "--port" :: "0" :: args))
          Unix.stdin wr err)
  in
  let out = Unix.in_channel_of_descr rd in
  let server port = { pid; port; out } in
  let rec wait_port () =
    match input_line out with
    | line -> (
        match Scanf.sscanf line "SPARQL endpoint on http://%_[^:]:%d/" Fun.id with
        | port -> port
        | exception _ -> wait_port ())
    | exception End_of_file ->
        ignore (Unix.waitpid [] pid);
        close_in out;
        raise (Failed "server exited before announcing its port")
  in
  let port = wait_port () in
  let s = server port in
  match get ~port ~timeout:10. "/healthz" with
  | 200, _ -> (s, Util.now () -. t0)
  | status, _ ->
      stop s;
      raise (Failed (Printf.sprintf "/healthz answered %d" status))
  | exception e ->
      stop s;
      raise e
