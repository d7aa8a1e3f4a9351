(** Pluggable execution backend for the embarrassingly-parallel loops of
    the pipeline: the matcher's name-table rows and the server's runs of
    pure requests. Top-h ranking and query evaluation do not fan out: a
    ranking or a PTQ runs on the domain that asked for it.

    A value of type {!t} names a scheduling policy, not live state:
    [Sequential] runs bulk operations in the calling domain; [Domains n]
    runs them across [n] members of a process-wide {e warm worker pool}
    (the caller counts as one of the [n], so [Domains 4] uses three pool
    workers and participates itself).

    {b The warm pool.} Worker domains are spawned lazily on the first
    parallel bulk call, parked on a mutex/condition mailbox when idle, and
    reused by every subsequent bulk call — spawning is a pool-lifetime
    cost, not a per-call cost (the [exec.domains_spawned] counter stays
    bounded by the pool's high-water width). The pool grows on demand to
    the widest [Domains n] seen, is joined by {!shutdown} (registered
    [at_exit]), and re-warms transparently if used again afterwards.

    {b Chunked scheduling.} A bulk call hands out {e chunks} of
    consecutive indices (sized from the item count and member count, a few
    chunks per member) through an atomic cursor, so dynamic load balancing
    survives skewed item costs without paying cursor traffic per item.

    {b Determinism.} Every bulk operation merges results in index order,
    so outputs are bit-identical across backends and pool sizes — the
    only observable difference is wall-clock time (and the
    interleaving of {!Uxsm_obs} counter increments, whose totals are
    preserved). This is the contract the differential test suites enforce.

    {b Nesting.} A bulk operation issued from inside a pool worker — or
    while another domain is driving the pool — degrades to sequential
    execution instead of spawning or deadlocking, so nested parallel call
    sites are safe and never oversubscribe the machine.

    {b Exceptions.} If any item's function raises, remaining unstarted
    chunks are abandoned, the workers park again, and the first recorded
    exception is re-raised in the caller {e with the worker's backtrace}
    (captured at the catch site, restored with
    [Printexc.raise_with_backtrace]). *)

type t =
  | Sequential
  | Domains of int
      (** Use this many warm-pool members per bulk operation, caller
          included. Must be >= 1; [Domains 1] behaves like [Sequential]. *)

val sequential : t

val domains : int -> t
(** [domains n] is [Domains n]; raises [Invalid_argument] when [n < 1]. *)

val of_jobs : int -> t
(** Map a CLI [--jobs N] value to a backend: [1] is [Sequential], [N > 1]
    is [Domains N]. Raises [Invalid_argument] when [n < 1]. *)

val jobs : t -> int
(** [Sequential] is [1]; [Domains n] is [n]. *)

val backend_name : t -> string
(** ["sequential"] or ["domains"] — the tag recorded in bench run
    records. *)

val is_parallel : t -> bool
(** [true] iff a bulk operation may run item functions outside the calling
    domain (i.e. [Domains n] with [n > 1]). *)

val pool_width : unit -> int
(** Current number of live pool workers (the high-water mark of helpers
    any bulk call has needed so far); [0] before the first parallel call
    and after {!shutdown}. *)

val shutdown : unit -> unit
(** Stop and join every pool worker. Registered [at_exit] automatically;
    safe to call repeatedly, and the pool re-warms lazily if a parallel
    bulk call happens afterwards. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f a] is [Array.map f a], scheduled by [t]. Every call on
    [Domains n] with [n > 1] and two or more items fans out, unless the
    nesting rule above applies. [f] must be safe to call from any domain
    (pure up to domain-safe effects such as {!Uxsm_obs} counters); items
    may run in any order and concurrently. The result is in index order
    regardless of backend. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** List analogue of {!map_array}; preserves list order. *)
