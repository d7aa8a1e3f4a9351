(** The long-lived `uxsm serve` query service.

    One server value holds a {!Catalog.t} (corpora + per-corpus artifact
    LRU shards) and dispatches {!Protocol} requests against it. Layers
    are exposed innermost first, so tests can exercise dispatch without
    any transport:

    - {!handle_line}: one request → one response. Malformed or failing
      requests produce [{"ok": false, "error": ...}]; this layer never
      raises.
    - {!handle_lines}: a pipelined batch. Runs of consecutive {e pure}
      requests (see {!Protocol.is_pure}) are fanned out through the
      server's {!Uxsm_exec.Executor} — on a multi-domain server,
      independent requests overlap, and each request's own fan-out
      degrades to sequential via the executor's nested-fanout guard.
      Barriers ([Register], [Update], [Explain], [Stats_reset],
      [Shutdown]) run alone. Responses are returned
      in request order regardless of backend. A lone request runs on the
      calling domain, so the pool stays free for its own fan-out: the
      matcher's name-table rows, the only parallelism one request has
      (top-h ranking and query evaluation run on one domain). The socket
      service answers each batch it pops from its queue the same way,
      writing each run's replies as soon as the run is answered.
    - {!serve_channels}: the stdio transport (line-delimited JSON both
      ways, one request at a time). It frames lines like the socket
      service below, so a line longer than {!max_line_bytes} gets one
      error reply and is dropped through its newline.
    - {!serve}: the concurrent socket
      service — any mix of Unix-domain and TCP listeners on one accept
      loop. Each accepted connection gets a reader sys-thread that admits
      complete lines into one {e bounded} dispatch queue shared by all
      connections; a single dispatcher thread drains the queue in batches
      and fans runs of pure requests across the warm domain pool. When
      the queue is full, the reader rejects the line immediately with
      {!Protocol.overloaded_response} (echoing its ["id"]) without
      executing it. A line longer than {!max_line_bytes} gets one error
      reply and is dropped through its newline; the connection stays
      open. Admitted requests from one connection are answered in
      the order they were sent; overload rejections may overtake admitted
      replies — clients correlate by ["id"]. SIGINT/SIGTERM request a
      stop and the service drains: readers retire, every admitted request
      is answered, connections close, the listeners are cleaned up.
      Because the catalog is sharded per corpus, concurrent clients
      working on different corpora do not serialize on one cache lock.

    Every request is wrapped in an [Uxsm_obs] span
    ([server.op.<endpoint>]) and counted ([server.requests],
    [server.errors], transport bytes, connections), and its wall-clock
    latency is recorded in a [server.<op>.latency] histogram; the [stats]
    endpoint serves counters, spans, histogram quantiles (p50/p95/p99)
    and live service gauges (active connections, queue depth/capacity,
    overload rejections) together with the cache
    and catalog state. The [stats_reset] endpoint zeroes the Obs
    counters, spans and histograms — a measurement-window barrier for
    load generators (see {!Protocol.request} for its exact pipeline and
    cross-connection semantics). *)

type t

val create : ?cache_entries:int -> ?exec:Uxsm_exec.Executor.t -> unit -> t
(** [exec] defaults to sequential; [cache_entries] to the catalog
    default (per corpus shard). *)

val catalog : t -> Catalog.t

val stopping : t -> bool
(** [true] once a [shutdown] request was served or {!request_stop} was
    called; transports drain in-flight requests and then return. *)

val request_stop : t -> unit
(** Signal-handler-safe: flips an atomic flag, nothing else. *)

val handle_line : t -> string -> string

val handle_lines : t -> string list -> string list
(** Batch dispatch; one response line per request line, in order. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Read request lines until EOF or shutdown, replying (and flushing)
    after each line. Input is read in chunks and at most
    {!max_line_bytes} of a line is held; a longer line gets one
    ["request line exceeds ..."] error. Blank lines are not answered, nor
    is any line after a served [shutdown]. A last line without its
    newline is answered at EOF. *)

val max_line_bytes : int
(** {!Protocol.max_line_bytes}: the longest request line either
    transport reads. *)

val serve :
  ?max_queue:int -> ?ready:(Client.endpoint list -> unit) -> t -> Client.endpoint list -> unit
(** Bind every endpoint (a stale socket file is replaced; TCP port 0 is
    ephemeral), then accept and serve concurrently until {!stopping} (see
    the module docs for the connection model). Returns after the drain
    completes; socket files are unlinked and signal handlers restored.
    [max_queue] (default 256, must be >= 1) bounds the shared admission
    queue. [ready] is called once with the bound endpoints (in endpoint
    order, a TCP host as a dotted quad and port 0 resolved) after
    listening starts.

    @raise Invalid_argument on an empty endpoint list or non-positive
    [max_queue]. *)
