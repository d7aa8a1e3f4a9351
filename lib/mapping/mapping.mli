(** Possible mappings: injective partial functions between the elements of a
    source and a target schema.

    A mapping is one consistent reading of a schema matching — each element
    matches at most one element on the other side (the [m_1..m_5] of the
    paper's Figure 3). It is stored as one array indexed by target
    element, so it holds |T| ints whatever the source schema's size. *)

type t

val of_pairs :
  source:Uxsm_schema.Schema.t ->
  target:Uxsm_schema.Schema.t ->
  score:float ->
  (Uxsm_schema.Schema.element * Uxsm_schema.Schema.element) list ->
  t
(** [of_pairs ~source ~target ~score pairs] builds a mapping from
    [(source_element, target_element)] correspondences. Raises
    [Invalid_argument] if either side repeats an element or indices are out
    of range. *)

val of_target_sources :
  source:Uxsm_schema.Schema.t ->
  target:Uxsm_schema.Schema.t ->
  score:float ->
  int array ->
  t
(** [of_target_sources ~source ~target ~score a] — the mapping whose
    target element [y] corresponds to source element [a.(y)], or to
    nothing when [a.(y) = -1]: the form in which
    {!Uxsm_assignment.Partition.right_to_left} writes a ranked solution.
    The mapping takes [a] over as its only array, so the caller must not
    mutate it afterwards; no source-indexed array is allocated (the
    injectivity check uses an |S|-byte scratch). Raises
    [Invalid_argument] unless [a] has one entry per target element, every
    entry is [-1] or a source element, and no source element appears
    twice. *)

val with_score : t -> float -> t
(** The same correspondences under another score. The result shares
    the target→source array with the original (mappings are immutable),
    so it allocates one small record. *)

val score : t -> float
(** Sum of the correspondence scores the mapping was built from. *)

val size : t -> int
(** Number of correspondences. *)

val pairs : t -> (Uxsm_schema.Schema.element * Uxsm_schema.Schema.element) list
(** Correspondences sorted by source element. *)

val source_of : t -> Uxsm_schema.Schema.element -> Uxsm_schema.Schema.element option
(** [source_of m y] — the source element corresponding to target element
    [y], if any. This is the lookup direction used by query rewriting and
    the block tree. *)

val source_at : t -> Uxsm_schema.Schema.element -> int
(** [source_at m y] — {!source_of} as a plain int, [-1] when [y] has no
    correspondence. Allocation-free: the block tree's [init_block] and
    its update's dirty scan read every (mapping, target element) slot,
    so option boxing would dominate small updates. *)

val n_targets : t -> int
(** Length of the target→source array: the size of the target schema
    the mapping was built over. {!source_at} reads targets below it. *)

val inter_size : t -> t -> int
(** Number of correspondences shared by two mappings: one loop over the
    targets both mappings range over. *)

val o_ratio : t -> t -> float
(** The paper's overlap ratio [|m_i ∩ m_j| / |m_i ∪ m_j|]; 1.0 when both
    mappings are empty. *)

val equal : t -> t -> bool
(** Same correspondence set (scores not compared). *)
