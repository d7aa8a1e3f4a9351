(** Murty's algorithm: rank assignments in decreasing order of total weight.

    Given the bipartite graph of a schema matching, enumerates the top-h
    injective partial assignments (possible mappings) by repeatedly
    partitioning the solution space of the best remaining subproblem
    (Murty 1968). Subproblems are re-solved with a single warm-started
    augmentation as in the Pascoal–Captivo–Clímaco variant the paper cites
    as "the advanced version of Murty's algorithm [13]". *)

type solution = {
  pairs : (int * int) list;  (** matched real [(left, right)] pairs, by left *)
  score : float;  (** sum of matched edge weights *)
}

val top : h:int -> Bipartite.t -> solution list
(** [top ~h g] returns up to [h] distinct solutions in non-increasing score
    order (fewer when the whole solution space is smaller than [h]).

    A popped solution's subproblem is partitioned on its left nodes in
    increasing order of their remaining alternatives (ties by index), which
    narrows the subproblem tree — our stand-in for the reordering trick of
    Pascoal et al. Each child subproblem reuses the parent's matching and
    potentials and runs one augmentation: the "advanced variant" the paper
    implements. It is the loop of {!next} over a cursor from {!start},
    timed by the [murty.top] span. *)

(** {1 Ranking on demand}

    A cursor is a ranking stopped between deliveries. The node delivered
    last is expanded only when the next solution is asked for, and the
    queue is then trimmed to [h - delivered], as {!top} trims it. So a
    cursor stopped after [d] deliveries has taken exactly the first [d]
    steps of [top ~h], and the solutions it returned are that list's
    prefix: the same pairs, score bits and order (a tested property).
    Cursors are mutable and not safe to share between domains; no span
    times them, so their time lands in the caller's. *)

type cursor

val start : h:int -> Bipartite.t -> cursor
(** [start ~h g] solves [g]'s best assignment (bumping [murty.solves])
    and stops before delivering it. Raises [Invalid_argument] when
    [h <= 0]. *)

val has_next : cursor -> bool
(** Whether another solution exists within the first [h]. It expands the
    node delivered last, if that is still pending, to find out. *)

val next : cursor -> solution
(** The next solution of [top ~h g]. Raises [Invalid_argument] when
    [has_next] is false. *)
