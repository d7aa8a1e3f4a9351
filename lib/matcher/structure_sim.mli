(** Structural similarity measures between schema elements, in the style of
    COMA++'s structure-level matchers.

    Each measure takes the name-similarity function to use on labels
    ([name_sim]). These are the per-pair reference definitions behind
    {!Coma.pair_score}; a matcher run evaluates the same terms, fold for
    fold, over the label ids of a {!Name_table} ({!Coma.matrix}). *)

val path_similarity :
  name_sim:(string -> string -> float) ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  float
(** Similarity of root-to-element contexts: the elements' own names weigh
    60%, a soft set comparison of their ancestor labels 40%. Soft ancestor
    matching keeps renamed hierarchies with extra wrapper levels (XCBL's
    [BuyerParty/Buyer]) comparable. Backbone of the {e context} strategy. *)

val soft_set_similarity :
  name_sim:(string -> string -> float) -> string list -> string list -> float
(** Symmetric average-best-match similarity of two label multisets; 1 when
    both are empty, 0 when exactly one is. *)

val children_similarity :
  name_sim:(string -> string -> float) ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  float
(** Soft set similarity of direct child names; 1 when both are leaves. *)

val leaf_similarity :
  name_sim:(string -> string -> float) ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  float
(** Soft set similarity of the leaf names of the two subtrees — the
    {e fragment} strategy's structural signal. *)

val parent_similarity :
  name_sim:(string -> string -> float) ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  float
(** Name similarity of the two elements' parents (1 when both are roots,
    0 when only one is) — the local context of a fragment. *)
