(** Sets of possible mappings with probabilities — the paper's
    [M = {m_1, ..., m_|M|}] with [p_i], i.e. the probabilistic reading of a
    schema matching.

    Generation follows Section V: the top-h mappings of the matching's
    bipartite graph are extracted with the divide-and-conquer partitioning
    of Algorithm 5, and each mapping's probability is its score normalized
    over the h scores. *)

type t

val generate : h:int -> Matching.t -> t
(** [generate ~h u] — the top-h possible mappings of matching [u] (fewer if
    the space is smaller), probabilities normalized over the set, ranked by
    {!Uxsm_assignment.Partition.rank} over [u]'s own graph
    ({!Matching.to_bipartite}). Each mapping is built from a copy
    of the target→source scratch array
    {!Uxsm_assignment.Partition.right_to_left} hands over, through
    {!Mapping.of_target_sources} (bumping [mapping_set.mappings_built]).
    Each component is ranked only as deep as the merge reads, so the set
    keeps those prefixes as its provenance, not full top-h lists. *)

val of_mappings : Matching.t -> (Mapping.t * float) list -> t
(** Build from explicit mappings and probabilities (e.g. the paper's
    Figure 3 running example). Probabilities must be finite and positive
    (NaN and infinity raise [Invalid_argument]); they are normalized to
    sum to 1. *)

val ranked : t -> Uxsm_assignment.Partition.ranked option
(** Component provenance: the reusable per-component ranking state of a
    {!generate}d set. [None] for {!of_mappings} sets, which {!update}
    therefore rejects. *)

val update : Matching.t -> t -> t
(** [update u' t] — the set [generate ~h u'] computed incrementally from
    [t]'s component provenance: {!Uxsm_assignment.Partition.rerank}
    ranks [u']'s correspondence graph ({!Matching.to_bipartite}, the
    graph [u'] was built with: no second graph is built here) with [t]'s
    per-component lists and merge levels as its cache, so only
    components whose edges changed are ranked afresh, a cached component
    is ranked again only when the new fold reads it deeper than its
    stored prefix, and only the fold levels the edit changes are
    re-merged; probabilities renormalize over the new scores.

    A new mapping holding exactly the correspondences of one of [t]'s
    mappings reuses that mapping under its new score ({!Mapping.with_score},
    sharing its array; bumps [mapping_set.mappings_reused]). Which ones do
    is read from the fold's back-pointers by
    {!Uxsm_assignment.Partition.right_to_left_reusing}: no array is hashed
    or compared, and only the re-ranked components' chosen solutions are
    compared by value. Only the other mappings get an array written and
    copied (bumps [mapping_set.mappings_built]). Nothing is reused when
    [u'] grew the target schema or changed the number of connected
    components of the correspondence graph (the folds then have no
    levels in common); a grown source schema alone leaves every old
    mapping shareable. The result is identical to a from-scratch
    [generate] for any [u'] (a tested property), whether or not it came
    from [Matching.apply_delta] on [t]'s matching. Raises
    [Invalid_argument] when [t] has no provenance ({!ranked} is
    [None]). *)

val matching : t -> Matching.t
val source : t -> Uxsm_schema.Schema.t
val target : t -> Uxsm_schema.Schema.t

val size : t -> int
(** [|M|]. *)

val mapping : t -> int -> Mapping.t
(** [mapping t i] — the [i]-th mapping, [0 <= i < size t]. *)

val probability : t -> int -> float
(** [p_i]; the probabilities sum to 1. *)

val mappings : t -> (Mapping.t * float) list
(** All mappings with probabilities, in decreasing probability order. *)

val average_o_ratio : t -> float
(** Mean pairwise overlap ratio (Table II's "o-ratio"); 1.0 for singleton
    sets. Exact: bit-identical to {!Mapping.o_ratio} summed over every
    pair (i < j) in index order. It is computed from each mapping's
    differences to the first, so its cost grows with how much the
    mappings differ rather than with |T| per pair; each pair it evaluates
    bumps [mapping_set.o_ratio_pairs]. Computed once per set: the first
    read keeps the result, and later reads return it without evaluating
    a pair. A set from {!generate}, {!update} or {!of_mappings} starts
    without it. Safe to call from several domains at once (each may
    compute the same value). *)

val storage_bytes_naive : t -> int
(** Accounting model for the uncompressed representation: every mapping
    stores all its correspondences, each costing two element ids (4 bytes
    each) plus an 8-byte probability per mapping. Used by the
    compression-ratio experiments (Figure 9a). *)
