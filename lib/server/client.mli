(** The client side of the [uxsm serve] wire, and the only code that
    connects to a server: the CLI, the load generator, the benchmarks and
    the tests all go through it. Replies are framed by {!Protocol.feed},
    the server's own line framer, so a connection holds at most
    {!Protocol.max_line_bytes} of a partial reply. *)

type endpoint =
  | Unix_socket of string  (** socket file path *)
  | Tcp of string * int  (** host (name or dotted quad) and port *)

val endpoint_to_string : endpoint -> string
(** The path, or ["host:port"]. *)

val sockaddr : endpoint -> (Unix.sockaddr, string) result
(** [Error "cannot resolve host ..."] when a host name does not resolve. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string; the server writes its replies with it too.
    @raise Unix.Unix_error as [Unix.write] does. *)

type t
(** An open connection. One thread may write while another reads. *)

val connect : endpoint -> (t, string) result
(** [Error "cannot connect to ENDPOINT: ..."], or {!sockaddr}'s error. *)

val send : t -> string list -> (unit, string) result
(** Write the lines, each followed by a newline. *)

type reply =
  | Line of string  (** the next non-blank reply line *)
  | Timeout
  | Closed  (** the server closed the connection *)
  | Failed of string
      (** a socket error, or a reply line over {!Protocol.max_line_bytes},
          whose rest is then dropped through its newline *)

val recv : ?timeout:float -> t -> reply
(** Wait at most [timeout] seconds (default: without bound). *)

val close : t -> unit
