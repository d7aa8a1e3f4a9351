(** Weighted bipartite graphs for the top-h mapping problem.

    Left nodes model source-schema elements, right nodes target-schema
    elements, and edges scored correspondences. Per the paper (Section V),
    every left node may also stay unassigned — the solvers model this with an
    implicit zero-weight {e image} node per left node, so a "solution" is an
    injective partial map from left to right. *)

type t

val create : n_left:int -> n_right:int -> (int * int * float) list -> t
(** [create ~n_left ~n_right edges] builds a graph from [(left, right,
    weight)] triples, in O(edges + n_left + n_right) time and without a
    hash table. Raises [Invalid_argument] on out-of-range indices,
    weights that are negative, infinite or NaN, or duplicate
    [(left, right)] pairs. When the list holds several faults, the first
    edge in list order with a range or weight fault fires (its left index
    checked before its right index before its weight); a duplicate fires
    only when no edge has such a fault. *)

val n_left : t -> int
val n_right : t -> int

val edges : t -> (int * int * float) list
(** All edges, in insertion order. *)

val apply_edge_delta :
  set:(int * int * float) list ->
  remove:(int * int) list ->
  (int * int * float) list ->
  (int * int * float) list
(** The delta algebra over edge lists: how the mapping layer's
    [Matching.apply_delta] rewrites a matching's correspondences, so edge
    {e order} — which Murty-based ranking is sensitive to, and which
    [Partition.rerank]'s component keys include — changes one fixed way.
    Removals apply first. A [set] of an existing [(left, right)] pair re-scores it in
    place (position preserved); a [set] of a new pair appends it at the
    end, in first-occurrence order of [set] (later duplicates only
    override the score). A pair both removed and set is appended.
    Removals of absent pairs are ignored here — callers that care
    validate before applying. *)

val adj : t -> int -> (int * float) array
(** Real (non-image) out-edges of a left node. *)

val radj : t -> int -> (int * float) array
(** In-edges of a right node, as [(left, weight)]. *)

val weight : t -> int -> int -> float option
(** Weight of a specific edge, if present. *)

val max_weight : t -> float
(** Largest edge weight; [0.] if the graph has no edges. *)
