(** Divide-and-conquer top-h assignment (the paper's Algorithm 5).

    A schema matching's bipartite graph is typically sparse, so it splits
    into many small connected components ("partitions"). The top-h
    assignments of the whole graph are obtained by ranking each component
    independently ({!Murty}) and merging the per-component lists with a
    heap — per-component rank beyond [h] can never contribute to the global
    top-h, which is what makes the merge sound. The merge asks a component
    for its next local solution only when its heap walk reaches it, so each
    component is ranked only as deep as the merge reads. *)

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

val top : h:int -> Bipartite.t -> Murty.solution list
(** Same contract as {!Murty.top} — identical score sequence — but computed
    component-wise: [solutions (rank ~h g)], or [[]] when [h <= 0]. *)

(** {1 Incremental maintenance}

    A correspondence edit touches only some connected components, so only
    those components need re-ranking before the heap merge re-folds over
    cached per-component lists. *)

type ranked
(** Reusable ranking state: per component, its ordered edge list (the
    cache key), the prefix of its Murty list that the fold read — in
    order, at most [h] solutions — and whether that prefix is the whole
    list (Murty ran out, or it holds [h] solutions); and one merge-fold
    level per component. A level holds, for each of its (at most [h])
    entries, the combined score, the entry of the previous level it
    extends and the local solution it adds — back-pointers, not pair
    lists; every local solution a level points at lies in the stored
    prefix. The merged top-h is the last level; it is read on demand, by
    {!right_to_left} or {!solutions}, and never stored. Plain data — no
    closures and no Murty cursor — so a catalog can own one per cached
    mapping set. *)

val rank : h:int -> Bipartite.t -> ranked
(** Rank every component as deep as the merge reads and merge, keeping
    the per-component prefixes for later {!rerank} calls.
    [solutions (rank ~h g) = top ~h g] always, and equals ranking each
    component to depth [h] with {!Murty.top} and folding the lists with
    {!merge} (pairs, score bits and order; a tested property). While the
    fold runs each component is a stream: its prefix so far and a
    {!Murty.cursor} that the merge resumes when its walk pushes the first
    cell of a column past that prefix. Murty's time is timed by the
    [partition.fold] span. Raises [Invalid_argument] when [h <= 0]. *)

val rerank : old:ranked -> Bipartite.t -> ranked
(** [rerank ~old g] — [rank ~h g] at [old]'s [h], with [old] as the
    cache: recompute the component index of [g], rank afresh {e only}
    components whose ordered edge list is not one of [old]'s keys (equal
    membership, order and weights mean the cached prefix is exactly a
    fresh ranking's), and re-merge only the fold levels the edit can
    change. The fold is left-associative and each level's merge reads
    only the previous level's scores and its own component's list, so:
    - the {e kept prefix}: the leading run of components that match
      [old]'s position by position keeps [old]'s levels verbatim (an edit
      confined to component [k] keeps levels [0..k-1]);
    - the {e kept suffix}: when every component after some level matches
      [old]'s at its position, the fold stops at the first re-merged
      level whose scores equal [old]'s level at the same position, bit
      for bit, and keeps [old]'s levels after it (bumping
      [partition.fold_cutoffs]).
    A re-merged level can read a cached component deeper than its stored
    prefix, when an earlier edit changed the previous level's scores.
    That component is then ranked again up to the new depth, skipping
    the cached prefix (Murty is deterministic), into the {e new}
    ranking; [old] is never mutated. Each such re-ranking bumps
    [partition.local_extensions] (and [murty.solves]).
    All of this is exact, so the result equals a fresh [rank] for any [g]
    — edges permuted, sides shrunk or an unrelated graph simply hit the
    cache less (a tested property). No solution is built here; the
    caller reads the new top-h through {!right_to_left},
    {!right_to_left_reusing} or {!solutions}. Timed by the
    [partition.apply_delta] span; bumps [partition.components_reranked]
    (components not in [old]) / [partition.components_reused]. *)

val right_to_left : ranked -> (float -> int array -> 'a) -> 'a array
(** [right_to_left r f] — [f] applied to each solution of the merged
    global top-h, non-increasing, as its score and a right→left array
    [a] of length [n_right]: [a.(j)] is the left node matched to right
    node [j], or [-1]. Every call of [f] gets the same scratch array,
    rewritten from the levels' back-pointers with no pair list built or
    sorted, so [f] must copy [a] to keep it. Holds exactly the pairs and
    scores of {!solutions} (a tested property). Timed, [f] included, by
    the [partition.materialize] span. *)

val right_to_left_reusing :
  old:ranked -> ranked -> same:(float -> int -> 'a) -> (float -> int array -> 'a) -> 'a array
(** [right_to_left_reusing ~old r ~same f] — {!right_to_left} [r f],
    except that a solution found to hold exactly the pairs of [old]'s
    [i]-th solution is [same score i], and no array is written for it.
    Solutions are matched component position by component position,
    from the back-pointers rather than the arrays: where [r] shares a
    level or a local list with [old] (physically, as {!rerank} leaves
    them), equal indices mean equal pairs, and only the pairs of a
    re-ranked component's chosen solutions are compared by value. [same]
    never gets a solution whose pairs differ. Every solution with an
    equal in [old] is found when each position's component spans the
    same nodes in both rankings (as after re-scores); a ranking with
    another right side or another number of components finds none. Timed
    with [f] and [same] by the [partition.materialize] span. *)

val solutions : ranked -> Murty.solution list
(** The merged global top-h, non-increasing, as pair lists sorted by
    (left, right). Built on demand from the back-pointers on every call
    (timed by [partition.materialize]); {!top}, tests and the Figure 10
    benches read it, the mapping layer reads {!right_to_left}. *)
