(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the library (workload generation, matcher
    tie-breaking, property-test corpora) draws from an explicit [Prng.t] so
    that datasets and experiments are reproducible bit-for-bit from a seed.
    The stdlib [Random] module is never used. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Generators
    created from equal seeds produce equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]. Streams of the
    parent and child are statistically independent. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires [lo <= hi]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box–Muller. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct ints from
    [\[0, n)], in increasing order. Requires [0 <= k <= n]. *)
