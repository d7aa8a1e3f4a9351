(** Ranked, named mutexes with an optional runtime lock-order witness.

    Every lock in this repo is created through this module with a {e name}
    (for diagnostics) and an integer {e rank}. The process-wide discipline
    is: a thread may only block on a lock whose rank is strictly greater
    than every rank it already holds. Acquisition in ascending rank order
    makes a cycle in the waits-for graph impossible, so the discipline
    rules out deadlock by construction. The static analyzer
    ([tools/lint], rule [lock-order]) proves the discipline over the call
    graph; the runtime witness below checks it on real executions — the
    two detectors are designed to catch the same bug independently.

    The canonical rank order (documented with rationale in DESIGN.md §15):

    {ul
    {- 10 [exec.pool] — warm-pool growth/submission/shutdown}
    {- 14 [catalog.map] — corpus-name → shard map}
    {- 20 [catalog.shard] — per-corpus artifact cache and builds}
    {- 24 [server.queue] — bounded admission queue}
    {- 30 [server.conn] — per-connection write serialization}
    {- 50 [loadgen.outstanding] — open-loop in-flight request table}
    {- 70 [latch] — one-shot startup/ready latches (drivers, tests)}
    {- 80 [exec.worker] — per-worker mailbox (innermost: taken during
       fan-out, which can happen under a catalog shard lock)}
    {- 90 [obs.registry] — metrics handle registry (leaf)}}

    {b Witness.} When [UXSM_LOCK_WITNESS] is set (any value but [0]; the
    value [raise] selects {!Raise}), every thread keeps a stack of the
    ranks it holds. A blocking acquisition that breaks ascending order
    counts a violation (mirrored into the [locks.order_violations] Obs
    counter via {!set_violation_hook}) and, under {!Raise}, raises
    {!Order_violation} {e before} blocking — so a test run surfaces the
    inversion instead of deadlocking on it. With the witness off, lock
    operations cost one extra atomic load over a raw [Mutex]. *)

type t
(** A named, ranked mutual-exclusion lock. *)

val create : name:string -> rank:int -> t
(** [create ~name ~rank] makes a fresh unlocked lock. [rank] must be
    positive. Prefer the [rank_*] constants below; a new lock class gets a
    new constant and a DESIGN.md §15 row, not an ad-hoc number. *)

val name : t -> string
val rank : t -> int

val lock : t -> unit
(** Blocking acquire. Under the witness, checks rank order against the
    calling thread's held stack first ({!Raise} mode raises before
    blocking). Not re-entrant, as with [Mutex.lock]. *)

val unlock : t -> unit

val try_lock : t -> bool
(** Non-blocking acquire; [true] on success. A [try_lock] is exempt from
    the order check — it cannot contribute the blocking edge of a
    deadlock cycle — but on success the lock {e does} join the held stack
    and constrains later blocking acquisitions. This is the submission
    path of [Uxsm_exec.Executor]: fan-out under a catalog shard lock is
    legal precisely because the pool lock is only ever tried, never
    waited for. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock l f] runs [f ()] with [l] held; the lock is released on
    return and on raise. *)

(** {1 Condition variables}

    Conditions pair with a specific lock at each wait. Under the witness,
    waiting requires the lock to be the {e innermost} held lock: waiting
    on an outer lock would re-acquire it beneath a higher-held rank. *)

type cond

val cond : unit -> cond
val wait : cond -> t -> unit
(** [wait c l] atomically releases [l] and blocks until signalled, then
    re-acquires [l]. The caller must hold [l]. *)

val signal : cond -> unit
val broadcast : cond -> unit

(** {1 Canonical ranks} *)

val rank_pool : int
val rank_catalog_map : int
val rank_shard : int
val rank_queue : int
val rank_conn_write : int
val rank_loadgen : int
val rank_latch : int
val rank_worker_mailbox : int
val rank_registry : int

(** {1 Witness control} *)

type mode =
  | Off  (** no tracking; the default without [UXSM_LOCK_WITNESS] *)
  | Count  (** track stacks, count violations, never raise *)
  | Raise  (** as [Count], plus raise {!Order_violation} at the site *)

exception Order_violation of string

val mode : unit -> mode

val set_mode : mode -> unit
(** Programmatic override of the [UXSM_LOCK_WITNESS] environment choice;
    tests use [set_mode Raise] around a scenario. Takes effect for
    acquisitions that begin after the call. *)

val violations : unit -> int
(** Total order violations observed since start (or {!reset_violations}),
    across all threads and modes. *)

val reset_violations : unit -> unit

val set_violation_hook : (string -> unit) -> unit
(** [set_violation_hook f] has every violation also call [f message];
    [Uxsm_obs.Obs] installs a hook at load time that bumps the
    [locks.order_violations] counter so services expose the witness
    through their normal stats surface. The hook runs with the violation
    already counted and must not itself take ranked locks. *)

val held : unit -> (string * int) list
(** The calling thread's held (name, rank) stack, innermost first. Empty
    when the witness is off; for tests and diagnostics. *)
