(** The `uxsm serve` wire protocol: one JSON object per line in each
    direction (JSON Lines), parsed and emitted with {!Uxsm_util.Json}.

    Every request is an object with an ["op"] field naming the endpoint,
    op-specific parameters, and an optional ["id"] of any JSON type that is
    echoed verbatim in the response, so pipelining clients can correlate
    replies. Every response carries ["ok"] — [true] with op-specific
    payload fields, or [false] with a human-readable ["error"]. Malformed
    input is answered with an error response, never a dropped connection.

    The grammar is documented in DESIGN.md §10. *)

(** How a corpus' matching is obtained at registration time. *)
type source_spec =
  | From_dataset of Uxsm_workload.Dataset.t * int
      (** Table II dataset and generation seed: the matcher runs on the
          dataset's schema pair. *)
  | From_matching_text of string
      (** [uxsm-matching v1] text ({!Uxsm_mapping.Serialize}). *)
  | From_mapping_set_text of string
      (** [uxsm-mappings v1] text; the embedded matching is used and top-h
          sets are re-derived per requested [h]. *)

type request =
  | Ping
  | Register of {
      name : string;
      spec : source_spec;
      doc_seed : int;  (** seed for the generated source document *)
      doc_nodes : int option;  (** target node count; [None] = generator default *)
    }
  | Match of { corpus : string }
  | Mappings of { corpus : string; h : int }
  | Query of {
      corpus : string;
      pattern : string;  (** twig query, Table III syntax *)
      h : int;
      tau : float;
      k : int option;
          (** [Some k] is the [query_topk] endpoint; a ["query"] line
              with a ["k"] field decodes to it too *)
      evaluator : Uxsm_plan.Plan.force;
          (** optional ["evaluator"] field, ["basic"] / ["tree"] /
              ["auto"]; absent means [`Auto] (Algorithm 3 over
              evaluation units) *)
    }
  | Explain of {
      corpus : string;
      pattern : string;
      h : int;
      tau : float;
      k : int option;
      evaluator : Uxsm_plan.Plan.force;
    }
      (** The plan and counters of the query with the same fields, read
          by the same decoder ([k] optional). {b Barrier semantics}: the
          counters are deltas of process-global state, so the op is not
          pure and runs with no other request beside it. *)
  | Save of { corpus : string; h : int }
      (** The top-h mapping set as [uxsm-mappings v1] text, carried in
          the reply's ["text"] field. *)
  | Update of { corpus : string; delta : Uxsm_mapping.Matching.delta }
      (** Incremental corpus maintenance: apply a correspondence/element
          delta to a registered corpus, patching its cached artifacts in
          place (see {!Catalog.update}) instead of evicting them. On the
          wire the delta is four optional arrays:
          ["set"] ([{"source","target","score"}] objects — re-score or
          add correspondences, paths in the ['.']-joined path format),
          ["remove"] ([{"source","target"}]),
          ["add_source_elements"] / ["add_target_elements"]
          ([{"parent","name"}] — append-only schema growth). An entirely
          empty delta is a parse error. {b Barrier semantics}: like
          [Register], the op is not pure, so pipelined requests before it
          see the old corpus and requests after it see the patched one. *)
  | Stats
  | Stats_reset
      (** Zero every process-global [Uxsm_obs] counter, span and histogram
          so a measurement window (e.g. a load-generator run after its
          warmup phase) starts from a clean slate. {b Barrier semantics}:
          like [Register], the op is not pure, so within a pipeline every
          request admitted before it completes (and is counted) before the
          reset executes, and every later request lands in the fresh
          window. The state is process-global — concurrent traffic on
          {e other} connections that is still in flight when the reset
          runs is split across the boundary; a load generator must quiesce
          its own workers before issuing it. Cache hit/miss/eviction
          totals and live gauges are not [Obs] state and are unaffected.
          The reset request's own latency observation is the first sample
          of the new window. *)
  | Shutdown

type envelope = {
  id : Uxsm_util.Json.t option;  (** echoed verbatim when present *)
  req : request;
}

val default_h : int
(** 100 — the paper's default [|M|]. *)

val default_tau : float
(** 0.2 — the paper's default confidence threshold
    ({!Uxsm_blocktree.Block_tree.default_params}'s τ). *)

val op_name : request -> string
(** The wire name: ["ping"], ["register"], ["match"], ["mappings"],
    ["query"], ["query_topk"], ["explain"], ["save"], ["update"],
    ["stats"], ["stats_reset"], ["shutdown"]. *)

val is_pure : request -> bool
(** [true] when the request neither mutates server-global state, nor
    stops the server, nor reads counters other requests move, so a batch
    of them may be dispatched concurrently. [Register], [Update],
    [Explain], [Stats_reset] and [Shutdown] are the barriers: [Explain]
    reports deltas of the process-global [ptq.*] counters, which a query
    running beside it would also move. *)

type parse_error = {
  err_id : Uxsm_util.Json.t option;
      (** the request's ["id"], when the line was at least a JSON object —
          echoed in the error response so pipelining clients can correlate
          failures too *)
  message : string;
}

val parse : Uxsm_util.Json.t -> (envelope, parse_error) result
(** Decode a request object. Errors name the offending field, e.g.
    ["register: missing field \"name\""]. Sizes are bounded here: ["h"]
    and ["k"] must lie in [[1, 1000]] and ["doc_nodes"] in
    [[1, 100000]] (["query: field \"h\" must be <= 1000"]). Fields an op
    does not read are ignored. *)

val parse_line : string -> (envelope, parse_error) result
(** {!parse} composed with JSON parsing of one line. *)

val parse_fields : op:string -> Uxsm_util.Json.t -> (request, string) result
(** Decode an object's fields as an [op] request, as {!parse} would,
    whatever the object's own ["op"] field says. *)

val to_json : envelope -> Uxsm_util.Json.t
(** Encode a request; [parse (to_json e)] restores [e]. Every request
    line the CLI and the load generator send is built here. *)

(** {2 Line framing}, shared by both transports and by {!Client}. *)

val max_line_bytes : int
(** 16 MiB — the longest line a reader holds: over 100 times the largest
    mapping-set text a [register] carries in the benchmarks (D10 at
    h = 100, ~150 KB), over ten times the largest reply (a [save] of D9
    or D10 at h = 1000, ~1.1 MB). *)

type framer

val framer : unit -> framer

val feed :
  framer -> Bytes.t -> int -> line:(string -> unit) -> overflow:(unit -> unit) -> unit
(** [feed fr chunk n] frames the first [n] bytes of [chunk], giving each
    completed non-blank line to [line]; a line longer than
    {!max_line_bytes} calls [overflow] once and is dropped through its
    newline. *)

val ok_response : ?id:Uxsm_util.Json.t -> (string * Uxsm_util.Json.t) list -> Uxsm_util.Json.t
(** [{"id": id?, "ok": true, ...fields}]. *)

val error_response : ?id:Uxsm_util.Json.t -> string -> Uxsm_util.Json.t
(** [{"id": id?, "ok": false, "error": msg}]. *)

val overloaded_response : ?id:Uxsm_util.Json.t -> unit -> Uxsm_util.Json.t
(** The structured backpressure reply:
    [{"id": id?, "ok": false, "error": "overloaded: ...",
    "overloaded": true}]. Sent by the transport (not dispatch) when the
    admission queue is full; the request was {e not} executed and is safe
    to retry. *)

val is_overloaded_response : Uxsm_util.Json.t -> bool
(** [true] iff the response carries ["overloaded": true] — how clients
    distinguish backpressure from request errors. *)
