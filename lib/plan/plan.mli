(** The PTQ query-plan IR: a logical pipeline plus the choice between the
    two physical evaluators of Section IV.

    Every PTQ runs the same logical pipeline — resolve the pattern against
    the target schema, compute the mapping-coverage table, keep the
    relevant mappings (optionally pruned to the top-k most probable),
    evaluate, merge in mapping-id order, and feed a sink. Only the
    [evaluate] stage has two physical implementations: {!Per_mapping}
    (Algorithm 3 — rewrite and match once per evaluation unit) and
    {!Per_block} (Algorithm 4 — one shared evaluation per c-block,
    decomposition and stack joins elsewhere). They return identical
    answers. {!choose} picks by [force] alone: an [`Auto] plan runs
    Algorithm 3 over its evaluation units (mappings that rewrite the query
    alike), which leave a block tree nothing to share; [`Basic] and
    [`Tree] pin the paper's literal algorithms.

    This module is pure planning — it never evaluates anything. [Uxsm_ptq]
    compiles its queries through {!choose} and executes the chosen
    operator. *)

(** Physical implementations of the [evaluate] stage. *)
type evaluator =
  | Per_mapping  (** Algorithm 3: rewrite+match per unit leader *)
  | Per_block  (** Algorithm 4: block-tree sharing *)

type force = [ `Auto | `Basic | `Tree ]
(** Evaluator override: [`Basic] pins {!Per_mapping} and [`Tree] pins
    {!Per_block}, both over one-mapping units; [`Auto] runs {!Per_mapping}
    over grouped units. The names match the CLI/wire vocabulary
    ([--evaluator basic|tree|auto]). *)

(** One logical stage. [Evaluate None] is the unresolved logical stage;
    compilation replaces it with [Evaluate (Some e)]. *)
type op =
  | Resolve  (** pattern → schema resolutions *)
  | Coverage  (** mapping → covered-resolution table *)
  | Relevance_filter  (** drop mappings covering no resolution *)
  | Topk_prune of int  (** keep the k most probable relevant mappings *)
  | Evaluate of evaluator option
  | Ordered_merge  (** merge per-mapping results in mapping-id order *)
  | Sink  (** hand the merged answers to the caller *)

(** Why the physical evaluator was selected. *)
type reason =
  | Forced  (** a [`Basic] / [`Tree] override *)
  | Units  (** an [`Auto] plan: Algorithm 3 over its evaluation units *)

type t = {
  ops : op list;  (** the physical pipeline, [Evaluate (Some _)] resolved *)
  evaluator : evaluator;
  reason : reason;
  resolutions : int;  (** schema resolutions of the pattern *)
  relevant : int;  (** mappings surviving the relevance filter *)
  evaluated : int;  (** mappings actually evaluated (after top-k pruning) *)
  units : int;
      (** evaluations the [evaluate] stage runs: one per (resolution,
          evaluation unit) pair. A forced plan's units hold one mapping
          each, so there this is the covered (mapping, resolution)
          pairs. *)
}

val logical : ?k:int -> unit -> op list
(** The logical pipeline before evaluator selection: [Evaluate None], with
    a [Topk_prune] stage iff [k] is given. *)

val choose :
  ?k:int ->
  force:force ->
  resolutions:int ->
  relevant:int ->
  evaluated:int ->
  units:int ->
  unit ->
  t
(** Select the physical evaluator from [force] alone: [`Tree] gets
    {!Per_block}; [`Basic] and [`Auto] get {!Per_mapping} (reasons
    {!Forced} and {!Units}). The counts are the compiled query's:
    [resolutions] of the pattern, [relevant] mappings before top-k
    pruning, [evaluated] mappings after it, and the [units] its
    [evaluate] stage runs. Bumps the [plan.*] counters. *)

val describe : t -> string
(** Multi-line rendering for [--plan] / explain output: the choice, the
    cardinalities, and the stage pipeline. *)

val to_json : t -> Uxsm_util.Json.t
(** Machine-readable form of {!describe}, embedded in server [explain]
    replies. *)

val evaluator_name : evaluator -> string
(** ["per_mapping"] / ["per_block"] — operator names, used in plan
    renderings. *)

val evaluator_wire : evaluator -> string
(** ["basic"] / ["tree"] — the CLI/wire vocabulary, used when echoing the
    chosen evaluator in query replies. *)

val force_of_string : string -> force option
(** Parse ["basic"] / ["tree"] / ["auto"]; [None] otherwise. *)

val force_to_string : force -> string

val op_name : op -> string
val reason_name : reason -> string
