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
    implements. *)
