(** Schema matchings: the scored correspondences produced by an automatic
    matcher (the paper's [U]).

    A correspondence [(x, y, score)] links source element [x] to target
    element [y] with a similarity in [(0, 1]]. A matching is the full edge
    set between one source and one target schema. *)

type corr = {
  source : Uxsm_schema.Schema.element;
  target : Uxsm_schema.Schema.element;
  score : float;
}

type t

val create :
  source:Uxsm_schema.Schema.t -> target:Uxsm_schema.Schema.t -> corr list -> t
(** Validates element ranges and scores in [(0, 1]] (NaN is rejected),
    then builds the correspondence graph ({!to_bipartite}) once, which
    rejects a duplicated [(source, target)] pair; raises
    [Invalid_argument] otherwise. The graph is the matching's only copy
    of its correspondences: every reader below reads it. *)

val source : t -> Uxsm_schema.Schema.t
val target : t -> Uxsm_schema.Schema.t

val correspondences : t -> corr list
(** In creation order, as records built from the graph's edges on each
    call. *)

val capacity : t -> int
(** Number of correspondences (Table II's "Cap."). *)

val score : t -> Uxsm_schema.Schema.element -> Uxsm_schema.Schema.element -> float option
(** [score m x y] — similarity of the [(x, y)] correspondence, if present:
    a scan of source [x]'s out-edges in the graph. *)

val to_bipartite : t -> Uxsm_assignment.Bipartite.t
(** The correspondence graph: left = source elements, right = target
    elements, one weighted edge per correspondence, in creation order.
    Built once by {!create} or {!apply_delta} and returned as is, so
    ranking a matching twice builds no second graph. *)

(** {1 Incremental deltas}

    A delta is the unit of incremental corpus maintenance: re-scored,
    added or removed correspondences, plus appended schema elements.
    Elements are addressed by their ['.']-joined path (the
    {!Uxsm_schema.Schema.path_string} format), so deltas survive
    serialization and the wire protocol without leaking pre-order ids. *)

type delta = {
  set_scores : (string * string * float) list;
      (** [(source path, target path, score)] — re-score an existing
          correspondence in place, or add a new one (appended after the
          existing ones) *)
  remove_corrs : (string * string) list;
      (** correspondences to drop; removing an absent one is an error *)
  add_source : (string * string) list;
      (** [(parent path, name)] — append a new leaf element under the
          parent; the parent must lie on the rightmost root-to-leaf
          spine so existing pre-order ids stay stable *)
  add_target : (string * string) list;
}

val empty_delta : delta
val delta_is_empty : delta -> bool

val apply_delta : delta -> t -> (t, string) result
(** Apply a delta: extend the schemas (append-only), resolve paths
    against the extended schemas (so a delta may add an element and a
    correspondence to it in one step), and rewrite the graph's edge list
    in the {!Uxsm_assignment.Bipartite.apply_edge_delta} algebra —
    re-scores keep their position, additions append — into the new
    matching's graph, built once. [Error] (and no
    change) on unknown paths, scores outside [(0, 1]] (NaN included),
    removals of absent
    correspondences, or element additions that would renumber existing
    elements. *)
