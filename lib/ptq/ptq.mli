(** Probabilistic twig queries (Section IV).

    A PTQ is a twig pattern over the target schema, answered on a document
    conforming to the source schema, under a set of possible mappings: the
    result pairs each relevant mapping's matches with the mapping's
    probability (Definition 4).

    Two evaluators are provided: {!query_basic} (Algorithm 3 — rewrite and
    match once per mapping) and {!query_tree} (Algorithm 4 — one evaluation
    per c-block shared by many mappings, recursive decomposition and
    stack-based structural joins elsewhere). They return identical answers;
    only speed differs. {!query_topk} evaluates only the k most probable
    relevant mappings (Definition 5).

    Every query is compiled to a {!Uxsm_plan.Plan} — the shared
    resolve/coverage prefix runs once, a cost model fed by block-tree
    statistics picks the physical evaluator (overridable with [~force]),
    and {!execute} replays the evaluate/merge suffix. {!compile} exposes
    the compiled form so callers (the server catalog, the CLI) can cache
    and re-execute plans without repeating resolution.

    Under the default [`Auto] plans the evaluator runs once per
    {e evaluation unit}, not once per mapping: the mappings that send every
    target element of a resolution to the same source elements rewrite the
    query identically, so one evaluation answers them all. *)

type context

val target_index : Uxsm_schema.Schema.t -> Uxsm_xml.Doc.t
(** A target schema indexed as a document, for query resolution. *)

val context :
  ?tree:Uxsm_blocktree.Block_tree.t ->
  ?target_doc:Uxsm_xml.Doc.t ->
  mset:Uxsm_mapping.Mapping_set.t ->
  doc:Uxsm_xml.Doc.t ->
  unit ->
  context
(** [context ~mset ~doc ()] prepares evaluation state: the indexed target
    schema for query resolution and (optionally) a block tree for
    Algorithm 4. [doc] must conform to the mapping set's source schema.

    [target_doc] is the mapping set's target schema as {!target_index}
    builds it; a caller that keeps one per schema (the server catalog)
    passes it to skip re-indexing. Without it, the context builds its own.

    Evaluation runs on the calling domain and only reads the context, so
    any number of domains may evaluate plans of one context at once. *)

val mapping_set : context -> Uxsm_mapping.Mapping_set.t

type answer = {
  mapping_id : int;  (** index into the mapping set *)
  probability : float;  (** [p_i] *)
  bindings : Uxsm_twig.Binding.t list;
      (** [R_i]: matches of the rewritten query in the source document,
          deduplicated, in document order. May be empty (the mapping is
          relevant but the pattern does not occur). *)
}

type plan
(** A compiled query: the materialized resolve/coverage prefix plus the
    chosen physical plan. Pins its context (mapping set, document, block
    tree), so a cached plan stays executable after cache evictions
    elsewhere. *)

val compile :
  ?force:Uxsm_plan.Plan.force ->
  ?k:int ->
  context ->
  Uxsm_twig.Pattern.t ->
  plan
(** Resolve the pattern, compute the coverage table (pruned to the [k]
    most probable relevant mappings when [k] is given), and pick the
    physical evaluator — the cost model decides under [`Auto] (the
    default); [`Basic] / [`Tree] force Algorithm 3 / 4. An [`Auto] plan
    then splits the coverage table into evaluation units, one set per
    resolution: a unit is the mappings whose [Mapping.source_of] agrees on
    every target element of that resolution, led by its lowest mapping id.
    Forced plans keep one-mapping units, so they run the paper's literal
    algorithms. The plan's [units] field counts the evaluations. Raises
    [Invalid_argument] for [~force:`Tree] on a context without a block
    tree, or [k <= 0]. *)

val execute : plan -> answer list
(** Run the plan's evaluate/merge suffix: the chosen operator evaluates
    each unit's leader once, every member gets its leader's bindings, and
    each distinct bindings list is sorted and deduplicated once. Mappings
    in the same units under every resolution share one bindings list,
    physically. Answers in mapping-id order, byte-identical across
    evaluators and unit groupings (tested property). Re-executing a plan
    repeats no resolution or coverage work. *)

val physical : plan -> Uxsm_plan.Plan.t
(** The chosen physical plan (evaluator, cost estimates, pipeline). *)

val query_basic : context -> Uxsm_twig.Pattern.t -> answer list
(** Algorithm 3 ([compile ~force:`Basic] + {!execute}). Answers in
    mapping-id order. *)

val query_tree : context -> Uxsm_twig.Pattern.t -> answer list
(** Algorithm 4 ([compile ~force:`Tree] + {!execute}); requires the
    context to hold a block tree (raises [Invalid_argument] otherwise).
    Answers in mapping-id order. *)

val query_topk :
  ?force:Uxsm_plan.Plan.force -> context -> k:int -> Uxsm_twig.Pattern.t -> answer list
(** Top-k PTQ: evaluates only the [k] most probable relevant mappings,
    with the cost-chosen evaluator (or [force]d one). *)

val query : ?force:Uxsm_plan.Plan.force -> context -> Uxsm_twig.Pattern.t -> answer list
(** One-shot [compile] + {!execute}. Under the default [`Auto] the cost
    model picks the evaluator per query; all choices return identical
    answers. *)

val consolidate : answer list -> (Uxsm_twig.Binding.t list * float) list
(** Merge answers with identical match sets, summing probabilities — the
    presentation of the introduction's example
    [{("Cathy", 0.3), ("Bob", 0.3), ("Alice", 0.2)}]. A set's probability
    is its answers' probabilities added in answer order. Sorted by
    decreasing probability, and sets of equal probability by their bindings
    lists ([List.compare Binding.compare]), so no two sets tie. Answers that share one bindings list physically,
    as {!execute}'s unit members do, are grouped without comparing their
    lists. *)

val binding_texts :
  context -> Uxsm_twig.Pattern.t -> Uxsm_twig.Binding.t -> (string * string) list
(** For presentation: each query node's label paired with the text content
    of the document node it matched. *)

(** Evaluation statistics of one query run — how much work the block tree
    saved (its "EXPLAIN"), plus the plan that ran. *)
type stats = {
  resolutions : int;  (** schema resolutions of the query *)
  relevant_mappings : int;
      (** mappings with a correspondence for every query node under some
          resolution (Algorithm 3 Step 1), after top-k pruning *)
  blocks_used : int;  (** c-blocks whose mapping set intersected the run *)
  shared_evaluations : int;
      (** twig evaluations executed once per block and reused *)
  direct_evaluations : int;
      (** per-mapping rewrite+match executions (subqueries included); per
          unit leader under [`Auto] plans *)
  decompositions : int;  (** split_query events (no block at the node) *)
  joins : int;  (** stack-join invocations *)
  plan : Uxsm_plan.Plan.t;  (** the physical plan the run executed *)
}

val explain : ?force:Uxsm_plan.Plan.force -> context -> Uxsm_twig.Pattern.t -> stats * answer list
(** Compile (resolving and covering exactly once), execute, and report
    what the run did. The answers equal the plain query's. The counts
    follow the plan: under [`Auto] they count evaluation units, so pass
    [~force] for the per-mapping counts of Algorithm 3 or 4. *)

val explain_plan : plan -> stats * answer list
(** {!explain} for an already compiled plan — what the server uses so a
    cached plan's explain repeats no compilation work. *)
