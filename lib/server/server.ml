module Json = Uxsm_util.Json
module Locks = Uxsm_util.Locks
module Executor = Uxsm_exec.Executor
module Obs = Uxsm_obs.Obs
module Timing = Uxsm_util.Timing
module Schema = Uxsm_schema.Schema
module Doc = Uxsm_xml.Doc
module Matching = Uxsm_mapping.Matching
module Mapping = Uxsm_mapping.Mapping
module Mapping_set = Uxsm_mapping.Mapping_set
module Serialize = Uxsm_mapping.Serialize
module Plan = Uxsm_plan.Plan
module Ptq = Uxsm_ptq.Ptq

let c_requests = Obs.counter "server.requests"
let c_errors = Obs.counter "server.errors"
let c_batches = Obs.counter "server.batches"
let c_connections = Obs.counter "server.connections"
let c_bytes_in = Obs.counter "server.bytes_in"
let c_bytes_out = Obs.counter "server.bytes_out"
let c_overloaded = Obs.counter "server.overloaded"
let c_contended = Obs.counter "server.exec_contended"

(* The executor's own busy-fallback counter: when the server's dispatch
   fan-out finds the warm pool already driven by another domain, the call
   degrades to sequential and this ticks. The server mirrors the delta
   into [server.exec_contended] so saturation is attributable to serving
   rather than guessed from a global number. *)
let c_exec_busy = Obs.counter "exec.sequential_busy"

let h_queue_depth = Obs.histogram "server.queue_depth"

(* Each op's span and latency histogram, resolved once when the module
   loads, so a request neither builds a name nor takes the registry
   mutex. The twelve names are those of [Protocol.op_name]. *)
let op_obs =
  List.map
    (fun op -> (op, (Obs.span ("server.op." ^ op), Obs.histogram ("server." ^ op ^ ".latency"))))
    [ "ping"; "register"; "match"; "mappings"; "query"; "query_topk"; "explain"; "save";
      "update"; "stats"; "stats_reset"; "shutdown" ]

(* Live-service gauges (not Obs counters: they go down). Zero when the
   server runs a non-concurrent transport (stdio) or none at all. *)
type gauges = {
  g_conns_active : int Atomic.t;
  g_queue_depth : int Atomic.t;
  g_queue_capacity : int Atomic.t;
}

type t = {
  cat : Catalog.t;
  exec : Executor.t;
  stop : bool Atomic.t;
  gauges : gauges;
}

let create ?cache_entries ?(exec = Executor.sequential) () =
  {
    cat = Catalog.create ?cache_entries ~exec ();
    exec;
    stop = Atomic.make false;
    gauges =
      {
        g_conns_active = Atomic.make 0;
        g_queue_depth = Atomic.make 0;
        g_queue_capacity = Atomic.make 0;
      };
  }

let catalog t = t.cat
let stopping t = Atomic.get t.stop
let request_stop t = Atomic.set t.stop true

exception Fail of string

let ok_or = function
  | Ok v -> v
  | Error msg -> raise (Fail msg)

(* ------------------------------ dispatch -------------------------- *)

let consolidated_json answers =
  Json.List
    (List.map
       (fun (bindings, p) ->
         Json.Assoc
           [ ("probability", Json.Float p); ("matches", Json.Int (List.length bindings)) ])
       (Ptq.consolidate answers))

let dispatch t (req : Protocol.request) : (string * Json.t) list =
  match req with
  | Protocol.Ping -> [ ("reply", Json.String "pong") ]
  | Protocol.Register { name; spec; doc_seed; doc_nodes } ->
    let m, d = ok_or (Catalog.register t.cat ~name ~doc_seed ?doc_nodes spec) in
    [
      ("corpus", Json.String name);
      ("source_elements", Json.Int (Schema.size (Matching.source m)));
      ("target_elements", Json.Int (Schema.size (Matching.target m)));
      ("capacity", Json.Int (Matching.capacity m));
      ("doc_nodes", Json.Int (Doc.size d));
    ]
  | Protocol.Match { corpus } ->
    let m = ok_or (Catalog.matching t.cat corpus) in
    let source = Matching.source m and target = Matching.target m in
    [
      ("corpus", Json.String corpus);
      ("capacity", Json.Int (Matching.capacity m));
      ( "correspondences",
        Json.List
          (List.map
             (fun (c : Matching.corr) ->
               Json.Assoc
                 [
                   ("score", Json.Float c.score);
                   ("source", Json.String (Schema.path_string source c.source));
                   ("target", Json.String (Schema.path_string target c.target));
                 ])
             (Matching.correspondences m)) );
    ]
  | Protocol.Mappings { corpus; h } ->
    let mset = ok_or (Catalog.mapping_set t.cat corpus ~h) in
    [
      ("corpus", Json.String corpus);
      ("h", Json.Int h);
      ("count", Json.Int (Mapping_set.size mset));
      ("o_ratio", Json.Float (Mapping_set.average_o_ratio mset));
      ( "mappings",
        Json.List
          (List.map
             (fun (m, p) ->
               Json.Assoc
                 [
                   ("probability", Json.Float p);
                   ("score", Json.Float (Mapping.score m));
                   ("size", Json.Int (Mapping.size m));
                 ])
             (Mapping_set.mappings mset)) );
    ]
  | Protocol.Query { corpus; pattern; h; tau; k; evaluator } ->
    (* Compiled plans live in the catalog LRU: a repeat query (same
       corpus, pattern, h, τ, k, evaluator) executes a prepared plan
       without re-parsing, re-resolving or re-costing anything. *)
    let plan = ok_or (Catalog.plan t.cat corpus ~pattern ~h ~tau ~k ~force:evaluator) in
    let answers = Ptq.execute plan in
    [
      ("corpus", Json.String corpus);
      ("query", Json.String pattern);
      ("h", Json.Int h);
      ("tau", Json.Float tau);
    ]
    @ (match k with None -> [] | Some k -> [ ("k", Json.Int k) ])
    @ [
        ("evaluator", Json.String (Plan.evaluator_wire (Ptq.physical plan).Plan.evaluator));
        ("relevant", Json.Int (List.length answers));
        ("answers", consolidated_json answers);
      ]
  | Protocol.Explain { corpus; pattern; h; tau; k; evaluator } ->
    let plan = ok_or (Catalog.plan t.cat corpus ~pattern ~h ~tau ~k ~force:evaluator) in
    let stats, answers = Ptq.explain_plan plan in
    [
      ("corpus", Json.String corpus);
      ("query", Json.String pattern);
      ("plan", Plan.to_json stats.Ptq.plan);
      ("resolutions", Json.Int stats.Ptq.resolutions);
      ("relevant_mappings", Json.Int stats.Ptq.relevant_mappings);
      ("blocks_used", Json.Int stats.Ptq.blocks_used);
      ("shared_evaluations", Json.Int stats.Ptq.shared_evaluations);
      ("direct_evaluations", Json.Int stats.Ptq.direct_evaluations);
      ("decompositions", Json.Int stats.Ptq.decompositions);
      ("joins", Json.Int stats.Ptq.joins);
      ("answer_sets", Json.Int (List.length (Ptq.consolidate answers)));
    ]
  | Protocol.Save { corpus; h } ->
    let text = Serialize.mapping_set_to_string (ok_or (Catalog.mapping_set t.cat corpus ~h)) in
    [ ("corpus", Json.String corpus); ("h", Json.Int h);
      ("bytes", Json.Int (String.length text)); ("text", Json.String text) ]
  | Protocol.Update { corpus; delta } ->
    let st = ok_or (Catalog.update t.cat ~name:corpus delta) in
    [
      ("corpus", Json.String corpus);
      ("capacity", Json.Int st.Catalog.u_capacity);
      ("source_elements", Json.Int st.Catalog.u_source_elements);
      ("target_elements", Json.Int st.Catalog.u_target_elements);
      ("msets_patched", Json.Int st.Catalog.u_msets_patched);
      ("trees_patched", Json.Int st.Catalog.u_trees_patched);
      ("plans_invalidated", Json.Int st.Catalog.u_plans_invalidated);
      ("doc_rebuilt", Json.Bool st.Catalog.u_doc_rebuilt);
    ]
  | Protocol.Stats ->
    let snap = Obs.nonzero (Obs.snapshot ()) in
    let cache_stats = Catalog.cache_stats t.cat in
    [
      ( "corpora",
        Json.List
          (List.map
             (fun (name, desc) ->
               Json.Assoc [ ("name", Json.String name); ("spec", Json.String desc) ])
             (Catalog.corpora t.cat)) );
      ( "cache",
        Json.Assoc
          [
            ("capacity", Json.Int (Catalog.cache_capacity t.cat));
            ("entries", Json.Int (Catalog.cache_length t.cat));
            ("shards", Json.Int (Catalog.shard_count t.cat));
            ("hits", Json.Int cache_stats.Lru.hits);
            ("misses", Json.Int cache_stats.Lru.misses);
            ("evictions", Json.Int cache_stats.Lru.evictions);
            ( "keys",
              Json.List
                (List.map
                   (fun k -> Json.String (Catalog.key_string k))
                   (Catalog.cache_keys t.cat)) );
          ] );
      ( "executor",
        Json.Assoc
          [
            ("backend", Json.String (Executor.backend_name t.exec));
            ("jobs", Json.Int (Executor.jobs t.exec));
          ] );
      ( "server",
        Json.Assoc
          [
            ("connections_opened", Json.Int (Obs.value c_connections));
            ("connections_active", Json.Int (Atomic.get t.gauges.g_conns_active));
            ("queue_depth", Json.Int (Atomic.get t.gauges.g_queue_depth));
            ("queue_capacity", Json.Int (Atomic.get t.gauges.g_queue_capacity));
            ("overloaded_rejections", Json.Int (Obs.value c_overloaded));
            ("exec_contended", Json.Int (Obs.value c_contended));
          ] );
      ( "histograms",
        Json.Assoc
          (List.filter_map
             (fun (n, v) ->
               if v.Obs.hv_count = 0 then None
               else
                 Some
                   ( n,
                     Json.Assoc
                       [
                         ("count", Json.Int v.Obs.hv_count);
                         ("p50", Json.Float (Obs.quantile v 0.50));
                         ("p95", Json.Float (Obs.quantile v 0.95));
                         ("p99", Json.Float (Obs.quantile v 0.99));
                       ] ))
             (Obs.histograms ())) );
      ( "counters",
        Json.Assoc (List.map (fun (n, v) -> (n, Json.Int v)) snap.Obs.snap_counters) );
      ( "spans",
        Json.Assoc
          (List.map
             (fun (n, (count, seconds)) ->
               (n, Json.Assoc [ ("count", Json.Int count); ("seconds", Json.Float seconds) ]))
             snap.Obs.snap_spans) );
    ]
  | Protocol.Stats_reset ->
    (* The measurement-window barrier: zero every Obs counter, span and
       histogram (process-global — see the Protocol docs for the pipeline
       semantics). Dispatched as a non-pure request, so every earlier
       request of the batch has completed and been counted before this
       runs. Cache hit/miss totals and live gauges are not Obs state and
       survive. *)
    Obs.reset ();
    [ ("reset", Json.Bool true) ]
  | Protocol.Shutdown ->
    request_stop t;
    [ ("stopping", Json.Bool true) ]

let handle_request t (env : Protocol.envelope) =
  Obs.incr c_requests;
  let span, latency = List.assoc (Protocol.op_name env.req) op_obs in
  let started = Timing.now_mono () in
  let observe_latency () = Obs.observe latency (Timing.now_mono () -. started) in
  match Obs.time span (fun () -> dispatch t env.req) with
  | fields ->
    observe_latency ();
    Protocol.ok_response ?id:env.id fields
  | exception e ->
    observe_latency ();
    Obs.incr c_errors;
    let msg =
      match e with
      | Fail m -> m
      | Invalid_argument m | Failure m -> m
      | Sys_error m -> m
      | e -> Printexc.to_string e
    in
    Protocol.error_response ?id:env.id msg

let respond_parsed t = function
  | Ok env -> Json.to_string (handle_request t env)
  | Error { Protocol.err_id; message } ->
    Obs.incr c_requests;
    Obs.incr c_errors;
    Json.to_string (Protocol.error_response ?id:err_id message)

let handle_line t line = respond_parsed t (Protocol.parse_line line)

(* Attribute executor busy-fallbacks inside [f] to server dispatch: the
   delta of [exec.sequential_busy] across the call is mirrored into
   [server.exec_contended]. The signal is approximate under concurrent
   non-server executor traffic (a global counter), but the server's
   dispatcher is the only bulk submitter in a serving process, so in
   practice the delta is exactly the dispatcher's lost fan-outs. *)
let record_exec_contention f =
  let before = Obs.value c_exec_busy in
  let finally () =
    let d = Obs.value c_exec_busy - before in
    if d > 0 then Obs.add c_contended d
  in
  Fun.protect ~finally f

(* Batch dispatch: a batch is answered run by run. A run is a barrier
   (a request that mutates catalog state or stops the server) alone, or
   the longest stretch of consecutive pure requests, which fan out
   through the executor (responses merge in index order, so the reply
   stream is identical to sequential handling). A run of one request is
   handled inline — inside a pool worker the nested-fanout guard would rob
   it of its own per-request parallelism. *)
let batch_request_units = 2000.0

let respond_run t run =
  match run with
  | [ p ] -> [ respond_parsed t p ]
  | _ when Executor.is_parallel t.exec ->
    (* A pure request normally compiles or replays a whole query plan —
       thousands of node-visit units — so size the batch accordingly for
       the executor's gate: pairs of requests already clear a multi-core
       break-even, while single-request batches never reach here (handled
       inline above). *)
    let cost_hint = float_of_int (List.length run) *. batch_request_units in
    record_exec_contention (fun () ->
        Executor.map_list ~cost_hint t.exec (respond_parsed t) run)
  | _ -> List.map (respond_parsed t) run

let pure_parsed = function
  | Ok env -> Protocol.is_pure env.Protocol.req
  | Error _ -> true (* an error reply touches no state *)

(* Answer [items] (each with its parsed request) run by run, handing every
   item and its reply to [deliver] as soon as its run is answered. *)
let answer_runs t items ~deliver =
  let pure (_, p) = pure_parsed p in
  let rec pure_prefix acc = function
    | x :: rest when pure x -> pure_prefix (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> ()
    | x :: rest ->
      let run, rest = if pure x then pure_prefix [ x ] rest else ([ x ], rest) in
      List.iter2 (fun (it, _) resp -> deliver it resp) run (respond_run t (List.map snd run));
      go rest
  in
  go items

let handle_lines t lines =
  let replies = ref [] in
  answer_runs t
    (List.map (fun l -> ((), Protocol.parse_line l)) lines)
    ~deliver:(fun () resp -> replies := resp :: !replies);
  List.rev !replies

(* ----------------------------- transports ------------------------- *)

let max_line_bytes = Protocol.max_line_bytes

(* The one reply an over-long line gets, counted as a failed request. *)
let overlong_response () =
  Obs.incr c_requests;
  Obs.incr c_errors;
  Json.to_string
    (Protocol.error_response (Printf.sprintf "request line exceeds %d bytes" max_line_bytes))

(* The stdio transport frames its input like the socket reader: chunks
   scanned for newlines, at most [max_line_bytes] of a partial line held.
   Lines are answered one at a time, in order; once a [shutdown] was
   served, nothing after it is answered. *)
let serve_channels t ic oc =
  let fr = Protocol.framer () in
  let chunk = Bytes.create 65536 in
  let reply resp =
    if not (stopping t) then begin
      let resp = resp () in
      Obs.add c_bytes_out (String.length resp + 1);
      output_string oc resp;
      output_char oc '\n';
      flush oc
    end
  in
  let line l = reply (fun () -> handle_line t l) in
  let rec loop () =
    if not (stopping t) then begin
      let n = input ic chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Obs.add c_bytes_in n;
        Protocol.feed fr chunk n ~line ~overflow:(fun () -> reply overlong_response);
        loop ()
      end
    end
  in
  loop ();
  (* Input may end without a final newline; that last line is a request. *)
  Protocol.feed fr (Bytes.of_string "\n") 1 ~line ~overflow:ignore

(* --------------------- concurrent accept service ------------------- *)
(* One reader sys-thread per connection parses lines off the socket and
   admits them (or rejects with [overloaded]) into one bounded dispatch
   queue; a single dispatcher sys-thread drains the queue in batches and
   fans runs of pure requests across the warm domain pool. Sys-threads
   interleave inside the main domain (blocking I/O releases the runtime
   lock), so readers cost no parallelism — the compute runs in executor
   domains, exactly as it does for the stdio transport. *)

type conn = {
  cn_id : int;  (** per-connection id, assigned at accept, 1-based *)
  cn_fd : Unix.file_descr;
  cn_wlock : Locks.t;
      (** serializes writes: the dispatcher (responses) and the reader
          (overload rejections) both write — one whole line per [write_all]
          under this lock, so lines never tear or interleave *)
  cn_pending : int Atomic.t;  (** admitted but not yet answered *)
  cn_eof : bool Atomic.t;  (** reader finished (EOF, error or drain) *)
  cn_closed : bool Atomic.t;  (** close-once latch *)
}

type item = {
  it_conn : conn;
  it_line : string;
}

type service = {
  srv : t;
  capacity : int;
  q : item Queue.t;  (** guarded by [m] *)
  m : Locks.t;
  nonempty : Locks.cond;
  mutable readers_live : int;  (** guarded by [m] *)
}

(* Closing is legal only when the reader is done and every admitted
   request was answered; the latch makes the close idempotent across the
   reader/dispatcher race. The latch is flipped under the write lock, so
   no writer can start on a closed fd. *)
let maybe_close g conn =
  if Atomic.get conn.cn_eof && Atomic.get conn.cn_pending = 0 then begin
    Locks.lock conn.cn_wlock;
    let close_now =
      (not (Atomic.get conn.cn_closed)) && Atomic.get conn.cn_pending = 0
    in
    if close_now then Atomic.set conn.cn_closed true;
    Locks.unlock conn.cn_wlock;
    if close_now then begin
      ignore (Atomic.fetch_and_add g.g_conns_active (-1));
      try Unix.close conn.cn_fd with Unix.Unix_error _ -> ()
    end
  end

let write_response conn resp =
  Locks.lock conn.cn_wlock;
  Fun.protect
    ~finally:(fun () -> Locks.unlock conn.cn_wlock)
    (fun () ->
      if not (Atomic.get conn.cn_closed) then begin
        let out = resp ^ "\n" in
        Obs.add c_bytes_out (String.length out);
        (* A vanished client (EPIPE/ECONNRESET; SIGPIPE is ignored while
           serving) must not take the server down — its reader will see
           the hangup and retire the connection. *)
        try Client.write_all conn.cn_fd out with Unix.Unix_error _ -> ()
      end)

(* Best-effort id recovery for a rejected line, so pipelining clients can
   correlate the overload reply without the server executing anything. *)
let line_id line =
  match Json.of_string line with
  | Ok j -> Json.member "id" j
  | Error _ -> None

let admit sv conn line =
  Locks.lock sv.m;
  let depth = Queue.length sv.q in
  if depth >= sv.capacity then begin
    Locks.unlock sv.m;
    Obs.incr c_overloaded;
    write_response conn (Json.to_string (Protocol.overloaded_response ?id:(line_id line) ()))
  end
  else begin
    Atomic.incr conn.cn_pending;
    Queue.push { it_conn = conn; it_line = line } sv.q;
    Atomic.set sv.srv.gauges.g_queue_depth (depth + 1);
    Locks.signal sv.nonempty;
    Locks.unlock sv.m;
    Obs.observe h_queue_depth (float_of_int (depth + 1))
  end

let reader sv conn =
  let fr = Protocol.framer () in
  let chunk = Bytes.create 65536 in
  let overflow () = write_response conn (overlong_response ()) in
  let rec loop () =
    if not (stopping sv.srv) then
      (* The short select timeout keeps drain responsive while idle. *)
      match Unix.select [ conn.cn_fd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ ->
        let n = Unix.read conn.cn_fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Obs.add c_bytes_in n;
          Protocol.feed fr chunk n ~line:(admit sv conn) ~overflow;
          loop ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  (try loop () with Unix.Unix_error _ -> ());
  Atomic.set conn.cn_eof true;
  maybe_close sv.srv.gauges conn;
  Locks.lock sv.m;
  sv.readers_live <- sv.readers_live - 1;
  Locks.broadcast sv.nonempty;
  Locks.unlock sv.m

(* Answer one popped batch. Items are processed in arrival order and each
   run's responses are written back in that same order, so every
   connection sees its admitted requests answered in the order it sent
   them (rejections, written by the reader, may overtake — that is what
   request ids are for). *)
let dispatch_items sv items =
  let t = sv.srv in
  Obs.incr c_batches;
  answer_runs t
    (List.map (fun it -> (it, Protocol.parse_line it.it_line)) items)
    ~deliver:(fun it resp ->
      write_response it.it_conn resp;
      ignore (Atomic.fetch_and_add it.it_conn.cn_pending (-1));
      maybe_close t.gauges it.it_conn)

let max_dispatch_batch = 64

let dispatcher sv =
  let t = sv.srv in
  let rec loop () =
    Locks.lock sv.m;
    let rec await () =
      if not (Queue.is_empty sv.q) then begin
        let batch = ref [] in
        let n = ref 0 in
        while (not (Queue.is_empty sv.q)) && !n < max_dispatch_batch do
          batch := Queue.pop sv.q :: !batch;
          incr n
        done;
        Atomic.set t.gauges.g_queue_depth (Queue.length sv.q);
        Some (List.rev !batch)
      end
      else if stopping t && sv.readers_live = 0 then None
      else begin
        Locks.wait sv.nonempty sv.m;
        await ()
      end
    in
    let batch = await () in
    Locks.unlock sv.m;
    match batch with
    | None -> ()
    | Some items ->
      dispatch_items sv items;
      loop ()
  in
  loop ()

(* ------------------------------ listeners ------------------------- *)

(* A listening socket and its cleanup; a stale socket file is replaced. *)
let bind_endpoint ep =
  let addr =
    match Client.sockaddr ep with
    | Ok addr -> addr
    | Error e -> failwith e
  in
  let unlink () =
    match ep with
    | Client.Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Client.Tcp _ -> ()
  in
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  unlink ();
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock addr;
  Unix.listen sock 64;
  (sock, fun () -> (try Unix.close sock with Unix.Unix_error _ -> ()); unlink ())

(* The endpoint a bound socket listens on, with an ephemeral port filled
   in. *)
let bound_endpoint sock =
  match Unix.getsockname sock with
  | Unix.ADDR_UNIX path -> Client.Unix_socket path
  | Unix.ADDR_INET (addr, port) -> Client.Tcp (Unix.string_of_inet_addr addr, port)

let serve ?(max_queue = 256) ?ready t endpoints =
  if endpoints = [] then invalid_arg "Server.serve: no endpoints";
  if max_queue < 1 then invalid_arg "Server.serve: max_queue must be >= 1";
  let bound = List.map bind_endpoint endpoints in
  let socks = List.map fst bound in
  Atomic.set t.gauges.g_queue_capacity max_queue;
  let sv =
    {
      srv = t;
      capacity = max_queue;
      q = Queue.create ();
      m = Locks.create ~name:"server.queue" ~rank:Locks.rank_queue;
      nonempty = Locks.cond ();
      readers_live = 0;
    }
  in
  let install s = Sys.signal s (Sys.Signal_handle (fun _ -> request_stop t)) in
  let old_int = install Sys.sigint in
  let old_term = install Sys.sigterm in
  (* A client that hangs up mid-reply must surface as EPIPE on the write,
     not kill the process. *)
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let finally () =
    List.iter (fun (_, cleanup) -> cleanup ()) bound;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigpipe old_pipe
  in
  Fun.protect ~finally (fun () ->
      (match ready with
      | None -> ()
      | Some f -> f (List.map bound_endpoint socks));
      let disp = Thread.create dispatcher sv in
      let conns = ref [] in
      let threads = ref [] in
      let next_id = ref 0 in
      let rec accept_loop () =
        if not (stopping t) then begin
          (match Unix.select socks [] [] 0.25 with
          | ready_socks, _, _ ->
            List.iter
              (fun s ->
                match Unix.accept s with
                | fd, _ ->
                  incr next_id;
                  let conn =
                    {
                      cn_id = !next_id;
                      cn_fd = fd;
                      cn_wlock =
                        Locks.create
                          ~name:(Printf.sprintf "server.conn.%d" !next_id)
                          ~rank:Locks.rank_conn_write;
                      cn_pending = Atomic.make 0;
                      cn_eof = Atomic.make false;
                      cn_closed = Atomic.make false;
                    }
                  in
                  Obs.incr c_connections;
                  Atomic.incr t.gauges.g_conns_active;
                  conns := conn :: !conns;
                  Locks.lock sv.m;
                  sv.readers_live <- sv.readers_live + 1;
                  Locks.unlock sv.m;
                  threads := Thread.create (reader sv) conn :: !threads
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
              ready_socks
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          (* Periodic wake-up so the dispatcher re-checks [stopping] even
             when no reader ever signals (a signal-delivered stop with an
             idle queue). *)
          Locks.lock sv.m;
          Locks.broadcast sv.nonempty;
          Locks.unlock sv.m;
          accept_loop ()
        end
      in
      accept_loop ();
      (* Drain: readers notice [stopping] within one select timeout and
         retire; the dispatcher answers everything admitted so far, then
         exits once the queue is empty and no reader remains. *)
      List.iter Thread.join !threads;
      Locks.lock sv.m;
      Locks.broadcast sv.nonempty;
      Locks.unlock sv.m;
      Thread.join disp;
      (* Every connection should have latched closed via its reader or its
         last answered request; sweep for robustness. *)
      List.iter
        (fun conn ->
          Atomic.set conn.cn_eof true;
          maybe_close t.gauges conn)
        !conns;
      Atomic.set t.gauges.g_queue_depth 0)
