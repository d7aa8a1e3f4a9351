(** Query rewriting: translating a resolved target query into a source query
    through a mapping (the [rewrite(q_T, m_i)] of Algorithm 3).

    Each query node's target element is replaced by the source element the
    mapping assigns to it; target axes are re-derived from the source
    schema: a target edge maps to [/] when the two source elements are in a
    parent-child relation, to [//] when in a (strict) ancestor-descendant
    relation, and the rewrite fails (the mapping contributes no answers)
    when they are structurally unrelated. Text predicates carry over
    verbatim. *)

val through :
  source:Uxsm_schema.Schema.t ->
  pattern:Uxsm_twig.Pattern.t ->
  resolution:Resolve.t ->
  at_top:bool ->
  lookup:(Uxsm_schema.Schema.element -> Uxsm_schema.Schema.element option) ->
  Uxsm_twig.Pattern.t option
(** [through ~source ~pattern ~resolution ~at_top ~lookup] rewrites
    [pattern] (resolved over the target schema by [resolution]) into a
    source-schema pattern. [lookup] maps a target element to its source
    element under the mapping (or block); [None] anywhere fails the rewrite.

    [at_top] controls the root step's axis: when true (rewriting a full
    query), the root binds the document root if its source element is the
    schema root and binds by label anywhere otherwise; when false (rewriting
    a subquery whose position is enforced by a later structural join), the
    root always binds anywhere. *)

val axis_for :
  Uxsm_schema.Schema.t ->
  parent_src:Uxsm_schema.Schema.element ->
  child_src:Uxsm_schema.Schema.element ->
  Uxsm_twig.Pattern.axis option
(** The rewritten axis between two source elements, or [None] if unrelated.
    Exposed for the per-branch joins of Algorithm 4. *)
