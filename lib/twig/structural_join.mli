(** Stack-based binary structural join (Al-Khalifa et al., ICDE 2002).

    Joins two lists of document nodes on an ancestor-descendant (or
    parent-child) relationship in a single merge pass over their pre-order
    intervals, with a stack holding the current chain of nested ancestors.
    This is the [stack_join] primitive of Algorithm 4. *)

val node_pairs :
  Uxsm_xml.Doc.t ->
  axis:Pattern.axis ->
  left:Uxsm_xml.Doc.node list ->
  right:Uxsm_xml.Doc.node list ->
  (Uxsm_xml.Doc.node * Uxsm_xml.Doc.node) list
(** [node_pairs doc ~axis ~left ~right] — all [(a, d)] with [a ∈ left],
    [d ∈ right] and [a] a strict ancestor ([Descendant]) or the parent
    ([Child]) of [d]. Inputs must be sorted ascending (document order);
    duplicates are allowed and join independently. Output is ordered by
    descendant, then innermost ancestor first. *)

val join_bindings :
  Uxsm_xml.Doc.t ->
  axis:Pattern.axis ->
  left:Binding.t list ->
  left_col:int ->
  right:Binding.t list ->
  right_col:int ->
  Binding.t list
(** Join two binding sets on a structural relationship between the document
    nodes in their respective columns: the result contains
    [Binding.merge l r] for every pair where [l.(left_col)] is an ancestor
    ([Descendant]) or the parent ([Child]) of [r.(right_col)]. Algorithm 4
    joins with it wherever no c-block covers a subquery.

    Each side is grouped by its column's node by sorting (ties in reverse
    input order), and the join walks the distinct nodes. The result is
    ordered by pair, as {!node_pairs} orders the distinct nodes; within a
    pair, left bindings outer and right bindings inner, each in reverse
    input order. *)
