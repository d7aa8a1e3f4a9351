(** A COMA++-style composite schema matcher.

    Combines the linguistic ({!Name_sim}) and structural
    ({!Structure_sim}) measures under one of two strategies mirroring the
    COMA++ options of Table II:

    - {e Context} ([c]): name + root-to-element path similarity — elements
      match when their names {e and} their positions agree;
    - {e Fragment} ([f]): name + children/leaf similarity — subtree shapes
      match locally, ignoring where the fragment sits.

    The combined score weighs the name measure (with the default synonym
    table) at 0.55 and the structural one at 0.45. Candidate selection
    keeps pairs whose combined score clears the threshold 0.55 and lies
    within 0.12 of the best score of {e both} elements involved (COMA++'s
    "both directions" selection), which yields the sparse,
    locally-ambiguous matchings the paper's uncertainty model feeds on. *)

type strategy =
  | Context
  | Fragment

val pair_score :
  strategy ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  float
(** Combined score of one element pair under the strategy, computed
    from {!Name_sim.combined} and {!Structure_sim} directly. The per-pair
    reference that tests compare {!matrix} against; a matcher run never
    calls it. *)

val matrix :
  ?exec:Uxsm_exec.Executor.t ->
  strategy ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.t ->
  float array array
(** [matrix strategy source target] scores every element pair, one row per
    source element: [(matrix strategy s t).(x).(y)] is bitwise equal to
    [pair_score strategy s x t y]. Each distinct label pair is scored once
    through a {!Name_table}, and the structural terms read per-element
    label-id arrays (ancestors nearest first, children, subtree leaves,
    parent) against it. [exec] (default [Sequential]) fans the table's
    label rows out over its shared read-only token table; the matrix is
    identical for every backend. *)

val run :
  ?exec:Uxsm_exec.Executor.t ->
  source:Uxsm_schema.Schema.t ->
  target:Uxsm_schema.Schema.t ->
  unit ->
  Uxsm_mapping.Matching.t
(** Match two schemas under the {!Context} strategy.

    [exec] (default [Sequential]) schedules the {!matrix}; candidate
    selection stays sequential, so the correspondence list is identical
    for every backend (a tested property). The [matcher.name_table],
    [matcher.rows] and [matcher.select] Obs spans time the three stages. *)

val run_with_capacity :
  ?exec:Uxsm_exec.Executor.t ->
  strategy:strategy ->
  capacity:int ->
  source:Uxsm_schema.Schema.t ->
  target:Uxsm_schema.Schema.t ->
  unit ->
  Uxsm_mapping.Matching.t
(** Binary-search the threshold so the matching has (approximately, then
    exactly by truncation of the lowest-scored pairs) [capacity]
    correspondences — used to reproduce Table II's "Cap." column. Each
    delta band is filtered once; the search's probes count scores in it,
    and only the final threshold builds and sorts a pair list. *)
