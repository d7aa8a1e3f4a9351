(** Mutable binary min-heap of [int] payloads with [float] priorities.

    Used by the Dijkstra augmentation inside the assignment solver and by
    the top-h merge of the partitioning algorithm. Decrease-key is handled
    by lazy deletion: stale entries are skipped at pop time. Both callers
    pop with {!min_priority} then {!pop_min}, which allocate nothing once
    inlined; {!push} is marked for inlining, so where it inlines (a
    release build) its float priority is not boxed; {!pop} and {!peek}
    box their result.

    Equal priorities pop in an order fixed by the push sequence alone, and
    that order is part of the contract: the top-h fold's tie order, hence
    every pinned mapping set, is the order in which this heap pops equal
    sums. The sifts move a hole rather than swap entries, but compare
    exactly as a swap-based binary heap does (strict [<] down, strict [>]
    up), so they leave the same shape and pop the same sequence; the test
    suite checks this against a swap-based copy. *)

type t

val create : unit -> t

val clear : t -> unit
(** Remove every entry, keeping the grown capacity. *)

val is_empty : t -> bool
val size : t -> int

val push : t -> float -> int -> unit
(** [push h prio x] inserts [x] with priority [prio]. *)

val min_priority : t -> float
(** The minimum priority; unspecified on an empty heap. *)

val pop_min : t -> int
(** Remove the minimum-priority entry and return its payload. Raises
    [Invalid_argument] on an empty heap. *)

val pop : t -> (float * int) option
(** Remove and return the minimum-priority entry. *)

val peek : t -> (float * int) option
