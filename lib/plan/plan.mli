(** The PTQ query-plan IR: a logical pipeline plus a cost-based choice
    between the two physical evaluators of Section IV.

    Every PTQ runs the same logical pipeline — resolve the pattern against
    the target schema, compute the mapping-coverage table, keep the
    relevant mappings (optionally pruned to the top-k most probable),
    evaluate, merge in mapping-id order, and feed a sink. Only the
    [evaluate] stage has two physical implementations: {!Per_mapping}
    (Algorithm 3 — rewrite and match once per covered (mapping, resolution)
    pair) and {!Per_block} (Algorithm 4 — one shared evaluation per c-block,
    decomposition and stack joins elsewhere). They return identical
    answers; which is faster depends on how much the block tree shares, so
    {!choose} estimates both costs from {!Uxsm_blocktree.Block_tree}
    statistics and picks, unless a [force] override pins the choice.

    This module is pure planning — it never evaluates anything. [Uxsm_ptq]
    compiles its queries through {!choose} and executes the chosen
    operator. *)

(** Physical implementations of the [evaluate] stage. *)
type evaluator =
  | Per_mapping  (** Algorithm 3: rewrite+match per covered mapping *)
  | Per_block  (** Algorithm 4: block-tree sharing *)

type force = [ `Auto | `Basic | `Tree ]
(** Evaluator override: [`Basic] pins {!Per_mapping}, [`Tree] pins
    {!Per_block}, [`Auto] lets the cost model decide. The names match the
    CLI/wire vocabulary ([--evaluator basic|tree|auto]). *)

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

type cost = {
  per_mapping : float;  (** estimated Algorithm 3 cost *)
  per_block : float option;  (** estimated Algorithm 4 cost; [None] without a tree *)
}
(** Estimates in rewrite+match node-visit units — comparable to each
    other, not to wall time. *)

(** Why the physical evaluator was selected. *)
type reason =
  | Forced  (** a [`Basic] / [`Tree] override *)
  | No_tree  (** no block tree in the context, only {!Per_mapping} applies *)
  | Cost_based  (** the smaller estimate won *)

type t = {
  ops : op list;  (** the physical pipeline, [Evaluate (Some _)] resolved *)
  evaluator : evaluator;
  reason : reason;
  cost : cost;
  resolutions : int;  (** schema resolutions of the pattern *)
  relevant : int;  (** mappings surviving the relevance filter *)
  evaluated : int;  (** mappings actually evaluated (after top-k pruning) *)
  units : int;
      (** evaluations the [evaluate] stage runs: one per (resolution,
          evaluation unit) pair. {!choose} counts one-mapping units, so
          this is the covered (mapping, resolution) pairs;
          [Uxsm_ptq.Ptq.compile] lowers it when an [`Auto] plan groups
          mappings that rewrite the query alike. *)
}

val logical : ?k:int -> unit -> op list
(** The logical pipeline before evaluator selection: [Evaluate None], with
    a [Topk_prune] stage iff [k] is given. *)

val choose :
  ?tree:Uxsm_blocktree.Block_tree.t ->
  ?k:int ->
  force:force ->
  n_mappings:int ->
  pattern:Uxsm_twig.Pattern.t ->
  resolutions:Uxsm_twig.Binding.t array ->
  coverage:(int * int list) list ->
  relevant:int ->
  unit ->
  t
(** Select the physical evaluator: honor [force], fall back to
    {!Per_mapping} without a tree, otherwise take the cheaper of the two
    estimates. Both evaluators are costed for the compiled query.
    [coverage] is the relevance table actually handed to the evaluator
    (mapping id → covered resolution indices), so top-k pruning is priced
    in by passing the pruned table. The {!Per_block} estimate walks the
    pattern shape per resolution: a node whose resolved target element
    holds c-blocks costs one shared evaluation per block plus the expected
    residual of unclaimed mappings, a blockless leaf costs one visit per
    mapping, and a blockless branch node pays its children plus a
    per-(mapping, child) join charge.
    [relevant] is the pre-pruning relevant-mapping count (reported in the
    plan; [coverage] may already be pruned). Raises [Invalid_argument] for
    [~force:`Tree] without a tree. Bumps the [plan.*] counters. *)

val describe : t -> string
(** Multi-line rendering for [--plan] / explain output: the choice, both
    cost estimates, the cardinalities, and the stage pipeline. *)

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
