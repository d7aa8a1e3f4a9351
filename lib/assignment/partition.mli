(** Divide-and-conquer top-h assignment (the paper's Algorithm 5).

    A schema matching's bipartite graph is typically sparse, so it splits
    into many small connected components ("partitions"). The top-h
    assignments of the whole graph are obtained by ranking each component
    independently ({!Murty.top}) and merging the per-component lists with a
    heap — per-component rank beyond [h] can never contribute to the global
    top-h, which is what makes the merge sound. *)

type component = {
  lefts : int list;  (** left nodes of the component, ascending *)
  rights : int list;  (** right nodes of the component, ascending *)
  edges : (int * int * float) list;  (** edges, in global indices *)
}

val components : Bipartite.t -> component list
(** Maximal connected components of the correspondence graph that contain at
    least one edge (isolated nodes never affect scores). Deterministic
    order: by smallest left node. *)

val merge : h:int -> Murty.solution list -> Murty.solution list -> Murty.solution list
(** [merge ~h xs ys] — top-h combinations of two non-increasing solution
    lists, non-increasing: each combination's score is [x.score +. y.score]
    and its pairs are [List.merge] of the two pair lists by (left, right).
    Ties come out in one fixed heap-walk order, the same one every level of
    {!rank}'s fold uses (it is computed by the same score merge). Bumps
    [partition.merges]. Exposed for testing. *)

val merge_fold : h:int -> Murty.solution list list -> Murty.solution list
(** [merge_fold ~h locals] — the left fold of {!merge} over [locals] from
    the single empty solution, computed as {!rank} computes it: one level
    of scores and back-pointers per list, pair lists built only for the
    final top-h. Equal to the fold of {!merge} (pairs, score bits and
    order) whenever the lists use disjoint left nodes and keep their pairs
    sorted by left — true of component rankings. Exposed for testing. *)

val top :
  ?exec:Uxsm_exec.Executor.t ->
  h:int ->
  Bipartite.t ->
  Murty.solution list
(** Same contract as {!Murty.top} — identical score sequence — but computed
    component-wise. [exec] (default [Sequential]) ranks the components on a
    pool of domains; the heap merge runs sequentially in component order,
    so the result is identical for every backend (a tested property). *)

(** {1 Incremental maintenance}

    Correspondence updates touch only some connected components, so only
    those components need re-ranking before the heap merge re-folds over
    cached per-component lists. *)

type ranked
(** Reusable ranking state: the graph, per-component Murty lists (keyed by
    the component's ordered edge list) and one merge-fold level per
    component. A level holds, for each of its (at most [h]) entries, the
    combined score, the entry of the previous level it extends and the
    local solution it adds — back-pointers, not pair lists. The merged
    top-h is the last level; it is read on demand, by {!right_to_left} or
    {!solutions}, and never stored. Plain data — no closures — so a
    catalog can own one per cached mapping set. *)

type delta = {
  d_set : (int * int * float) list;
      (** edges to add or re-score, as [(left, right, weight)] *)
  d_remove : (int * int) list;  (** edges to drop *)
  d_n_left : int;  (** left size {e after} the delta (schemas only grow) *)
  d_n_right : int;  (** right size after the delta *)
}

val rank :
  ?exec:Uxsm_exec.Executor.t ->
  h:int ->
  Bipartite.t ->
  ranked
(** Rank every component and merge, keeping the per-component lists for
    later {!apply_delta} calls. [solutions (rank ~h g) = top ~h g] always.
    Raises [Invalid_argument] when [h <= 0]. *)

val right_to_left : ranked -> (float * int array) array
(** The merged global top-h, non-increasing, each as its score and a
    fresh right→left array [a] of length [n_right]: [a.(j)] is the left
    node matched to right node [j], or [-1]. Written straight from the
    levels' back-pointers, with no pair list built or sorted; the
    caller owns the arrays. Holds exactly the pairs and scores of
    {!solutions} (a tested property). Timed by the
    [partition.materialize] span. *)

val solutions : ranked -> Murty.solution list
(** The merged global top-h, non-increasing, as pair lists sorted by
    (left, right). Built on demand from the back-pointers on every call
    (timed by [partition.materialize]); {!top}, tests and the Figure 10
    benches read it, the mapping layer reads {!right_to_left}. *)

val graph : ranked -> Bipartite.t
(** The graph this state ranks. *)

val ranked_h : ranked -> int

val delta_of_graphs : old:Bipartite.t -> Bipartite.t -> delta
(** The delta that rewrites [old]'s edge list into the new graph's, in the
    {!Bipartite.apply_edge_delta} algebra. When the new graph was itself
    produced by that algebra (the matching layer's [apply_delta]),
    applying the result reconstructs its edge list {e exactly}, order
    included. *)

val apply_delta : ?exec:Uxsm_exec.Executor.t -> delta -> ranked -> ranked
(** Apply a delta: rebuild the edge list via {!Bipartite.apply_edge_delta},
    recompute the component index, re-rank {e only} components whose edge
    list changed (cached lists cover the rest — membership, order and
    weights all equal means the cached ranking is exactly a fresh one),
    and resume the heap merge from the deepest cached level: the fold is
    left-associative, so a delta confined to component [k] keeps levels
    [0..k-1] verbatim and re-merges only the score arrays from [k] on.
    No solution is built here; the caller reads the new top-h through
    {!right_to_left} or {!solutions}. Bumps
    [partition.components_reranked] / [partition.components_reused];
    only the re-ranked components run on [exec]. The result equals
    [rank ~h] of the patched graph (a tested property). *)
