module Timing = Uxsm_util.Timing

type endpoint =
  | Unix_socket of string
  | Tcp of string * int

let endpoint_to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr = function
  | Unix_socket path -> Ok (Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (
    match Unix.inet_addr_of_string host with
    | addr -> Ok (Unix.ADDR_INET (addr, port))
    | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 ->
        Ok (Unix.ADDR_INET (addrs.(0), port))
      | _ | (exception Not_found) -> Error (Printf.sprintf "cannot resolve host %S" host)))

let write_all fd s =
  let n = String.length s in
  let rec go off =
    (* lint: allow blocking-under-lock — the server writes each reply under its connection's write lock, which exists precisely to serialize whole-response writes on one socket; a slow peer stalls only its own connection's writers, never another lock *)
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

type reply =
  | Line of string
  | Timeout
  | Closed
  | Failed of string

type t = {
  fd : Unix.file_descr;
  framer : Protocol.framer;
  chunk : Bytes.t;
  replies : reply Queue.t;  (* framed but not yet returned, in order *)
}

let connect ep =
  let failed e =
    Error (Printf.sprintf "cannot connect to %s: %s" (endpoint_to_string ep) (Unix.error_message e))
  in
  Result.bind (sockaddr ep) (fun addr ->
      match Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) -> failed e
      | fd -> (
        match Unix.connect fd addr with
        | () ->
          let chunk = Bytes.create 65536 in
          Ok { fd; framer = Protocol.framer (); chunk; replies = Queue.create () }
        | exception Unix.Unix_error (e, _, _) ->
          Unix.close fd;
          failed e))

let send c lines =
  match write_all c.fd (String.concat "" (List.map (fun l -> l ^ "\n") lines)) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let overlong = Failed (Printf.sprintf "reply line exceeds %d bytes" Protocol.max_line_bytes)

let recv ?timeout c =
  let deadline = Option.map (fun s -> Timing.now_mono () +. s) timeout in
  let rec readable () =
    match deadline with
    | None -> true
    | Some d -> (
      match Unix.select [ c.fd ] [] [] (Float.max 0.0 (d -. Timing.now_mono ())) with
      | ready, _, _ -> ready <> []
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable ())
  in
  let rec next () =
    match Queue.take_opt c.replies with
    | Some r -> r
    | None when not (readable ()) -> Timeout
    | None -> (
      match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
      | 0 -> Closed
      | n ->
        Protocol.feed c.framer c.chunk n
          ~line:(fun l -> Queue.push (Line l) c.replies)
          ~overflow:(fun () -> Queue.push overlong c.replies);
        next ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ()
      | exception Unix.Unix_error (e, _, _) -> Failed (Unix.error_message e))
  in
  next ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
