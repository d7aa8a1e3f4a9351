(** The server's prepared-artifact catalog: named corpora plus one shared
    LRU cache of everything derived from them. It is the one place a
    corpus is assembled and the only cache of matchings, mapping sets,
    block trees and plans in the process: the server, every dataset
    command of the CLI and the paper's bench all go through it.

    A corpus is registered from a {!Protocol.source_spec} (a Table II
    dataset, serialized matching text, or serialized mapping-set text).
    Registration builds the corpus: its scored matching and the document
    generated from its source schema. Both are pinned in the corpus entry
    for as long as the corpus is registered — never evicted. Everything
    derived from them — each top-h mapping set, each (h, τ) block tree,
    each compiled plan — lives in the LRU under a structured {!key}, so the
    expensive pipeline runs once per key and repeat queries are served
    from cache. A block tree is built only when something reads it: a
    forced Algorithm 4 plan or {!prepared}. An evicted artifact is rebuilt deterministically from the
    entry's matching on next use (same algorithms), so eviction affects
    latency, never answers.

    {b Concurrency: per-corpus shards.} The catalog is sharded by corpus:
    each corpus owns a shard holding its entry, its own LRU (capacity
    [cache_entries] {e per corpus}) and its own mutex. Every cache key
    names exactly one corpus, so concurrent clients querying different
    corpora build and hit cache in parallel; requests for the same corpus
    serialize on that shard only (same-key builds still run once — the
    loser waits). The global lock guards only the name → shard map and is
    never held across a build, so lock acquisition never nests and cannot
    deadlock. Monitoring reads ({!cache_stats}, {!cache_length},
    {!corpora}) use atomic counters/entry cells and stay responsive while a
    shard is mid-build; {!cache_keys} briefly takes each shard lock. *)

type plan_key = {
  pk_corpus : string;
  pk_pattern : string;  (** the query's wire text *)
  pk_h : int;
  pk_tau : float;
  pk_k : int option;
  pk_force : Uxsm_plan.Plan.force;
      (** forced and auto plans for the same query are distinct entries *)
}

type key =
  | K_mset of string * int  (** corpus, h *)
  | K_tree of string * int * float  (** corpus, h, τ *)
  | K_plan of plan_key  (** compiled query plan *)

val key_string : key -> string
(** Stable rendering for the [stats] endpoint, e.g.
    ["tree/orders/h=100/tau=0.2"] or
    ["plan/orders/h=100/tau=0.2/k=3//IP//ICN"]. *)

type t

val create : ?cache_entries:int -> exec:Uxsm_exec.Executor.t -> unit -> t
(** [cache_entries] (default 64) bounds each corpus shard's artifact LRU
    (a per-corpus budget: total population is bounded by
    [corpora × cache_entries]). [exec] schedules the two fan-outs of
    artifact builds: the matcher's name-table rows and top-h ranking.
    Query evaluation never fans out; a plan executes on the domain that
    calls {!Uxsm_ptq.Ptq.execute}. *)

val register :
  t ->
  name:string ->
  doc_seed:int ->
  ?doc_nodes:int ->
  Protocol.source_spec ->
  (Uxsm_mapping.Matching.t * Uxsm_xml.Doc.t, string) result
(** Build the spec's matching and document and pin them as the corpus.
    Re-registering a name replaces the corpus and invalidates every cached
    artifact of it; a spec that does not build ([Error]) leaves the
    previous corpus, if any, in place. *)

val corpora : t -> (string * string) list
(** Registered corpora as [(name, spec description)], sorted by name. *)

type update_stats = {
  u_capacity : int;  (** correspondence count after the delta *)
  u_source_elements : int;
  u_target_elements : int;
  u_msets_patched : int;  (** cached mapping sets re-pointed at their h's patched set *)
  u_trees_patched : int;  (** cached trees re-pointed at their h's patched set, unbuilt *)
  u_plans_invalidated : int;  (** prepared plans dropped (recompiled on next use) *)
  u_doc_rebuilt : bool;  (** the generated document was regenerated (source schema grew) *)
}

val update :
  t -> name:string -> Uxsm_mapping.Matching.delta -> (update_stats, string) result
(** Apply an incremental delta to a registered corpus. The matching is
    patched via {!Uxsm_mapping.Matching.apply_delta}; for each h with a
    cached mapping set or block tree, one set is re-ranked through
    {!Uxsm_mapping.Mapping_set.update} (only the connected components the
    delta touches are re-enumerated), and every set and tree entry of that
    h is re-pointed at it, a tree entry with a tree that is built when it
    is next read. The generated document is regenerated only when the
    delta grew the source schema. Prepared plans of the
    corpus are dropped rather than patched — compilation is cheap and a
    plan pins its entire stale context. The patched matching and document
    replace the corpus entry's, so an artifact evicted later rebuilds to
    the maintained state, never the original one.

    Runs entirely under the corpus' shard lock with compute-then-commit
    discipline: a rejected delta ([Error]) leaves the corpus and its cache
    exactly as they were. Concurrent traffic on other corpora is not
    serialized against an update. *)

val matching : t -> string -> (Uxsm_mapping.Matching.t, string) result
(** The corpus' matching, as maintained by {!update}s. [Error] when the
    corpus is unknown. *)

val doc : t -> string -> (Uxsm_xml.Doc.t, string) result
(** The corpus' generated source document. *)

val mapping_set : t -> string -> h:int -> (Uxsm_mapping.Mapping_set.t, string) result

val prepared :
  t ->
  string ->
  h:int ->
  tau:float ->
  (Uxsm_mapping.Mapping_set.t * Uxsm_blocktree.Block_tree.t, string) result
(** The full pipeline product for one (corpus, h, τ): the top-h mapping set
    and its block tree (built with {!Uxsm_blocktree.Block_tree.default_params}'s
    MAX_B and MAX_F), built here if no plan has built it yet. [Error] when
    τ is outside (0, 1]. *)

val plan :
  t ->
  string ->
  pattern:string ->
  h:int ->
  tau:float ->
  k:int option ->
  force:Uxsm_plan.Plan.force ->
  (Uxsm_ptq.Ptq.plan, string) result
(** The compiled plan for one (corpus, pattern, h, τ, k, evaluator) — the
    prepared-statement analogue. Parses the pattern, assembles the
    evaluation context from the cached artifacts (the block tree only for
    a forced [`Tree] plan), compiles it with {!Uxsm_ptq.Ptq.compile}, and
    caches the result;
    repeat queries call {!Uxsm_ptq.Ptq.execute} on the cached plan
    directly. [Error] on unknown corpus, unparsable pattern, or
    [k <= 0]. *)

val cache_length : t -> int
(** Total population across all shards (lock-free monitoring read). *)

val cache_capacity : t -> int
(** The per-corpus shard capacity (the [cache_entries] given at
    creation). *)

val cache_stats : t -> Lru.stats
(** Hit/miss/eviction totals summed across shards (atomic reads; exact
    even while shards serve traffic). *)

val cache_keys : t -> key list
(** Keys grouped by corpus (corpus names ascending), most-recently-used
    first within each corpus. *)

val shard_count : t -> int
(** Number of corpus shards (includes shards whose registration
    failed and that hold no corpus). *)
