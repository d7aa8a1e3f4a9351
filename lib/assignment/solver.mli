(** Successive-shortest-path solver for the max-weight assignment problem
    with optional non-assignment, on the paper's square image construction
    (Figure 7).

    The extended graph has [n_left + n_right] nodes on each side:

    - extended left [i < n_left] is source [s_i]; extended left
      [n_left + j] is the image [t'_j] of target [j];
    - extended right [j < n_right] is target [t_j]; extended right
      [n_right + i] is the image [s'_i] of source [i].

    Edges are the real correspondences plus zero-weight [(s_i, s'_i)],
    [(t'_j, t_j)], and a zero-weight mirror [(t'_j, s'_i)] for each real
    edge, so every injective partial real mapping extends to a perfect
    matching. Weights are maximized by minimizing shifted costs
    [max_weight - w]; augmenting paths use Dijkstra over Johnson-reduced
    costs, so warm restarts (as needed by Murty's ranking algorithm) cost a
    single augmentation.

    This module is exposed mainly for Murty's algorithm and for white-box
    testing; library users should call {!Murty} or {!Partition}. *)

type state
(** Mutable matching + potential state for one subproblem. *)

(** Constraints of a (Murty) subproblem. *)
type constraints = {
  forbidden : (int, unit) Hashtbl.t;
      (** keys are [encode g left extright] for excluded edges *)
  committed_l : bool array;  (** extended left nodes fixed by the subproblem *)
  committed_r : bool array;  (** extended right nodes fixed by the subproblem *)
}

val encode : Bipartite.t -> int -> int -> int
(** [encode g i extj] is the hash key for the edge from extended left [i] to
    extended right [extj]. *)

val no_constraints : Bipartite.t -> constraints
(** Fresh, empty constraints (nothing forbidden, nothing committed). *)

val init : Bipartite.t -> state
(** Fresh state: nothing matched, zero potentials. *)

val copy : state -> state

val augment : Bipartite.t -> constraints -> state -> int -> bool
(** [augment g cs st i] finds a shortest augmenting path from free extended
    left node [i]; returns [false] when the subproblem is infeasible for
    [i]. *)

val unmatch : state -> int -> unit
(** Free extended left node [i] (no-op if already free). *)

val solve : Bipartite.t -> constraints -> state -> bool
(** Augment every free, non-committed extended left node; [false] on
    infeasibility (state is then partially updated and should be
    discarded). *)

val matched_ext : state -> int -> int
(** Extended-right partner of extended left [i], or [-1]. *)

val score : Bipartite.t -> state -> float
(** Total weight of matched real edges. *)
