(** Interprocedural lock analysis: the static half of the
    [Uxsm_util.Locks] rank discipline (the runtime witness is the other
    half; DESIGN.md §15).

    Builds a dune-wrapper-aware value-level call graph over the analyzed
    files, propagates may-be-held lock sets along it to a fixed point —
    including into lambdas passed to known higher-order callees, via
    one-level parameter summaries — and reports:

    - [lock-order] (error): a blocking acquisition whose rank is not
      strictly above every rank that may already be held, a [Locks.wait]
      on a lock that is not held, or a wait that is not on the
      highest-ranked held lock. Unresolvable lock expressions and
      unknown-rank acquisitions under held locks degrade to warnings.
    - [blocking-under-lock] (error): a call that can block indefinitely
      ([Unix.read]/[write]/[select]/…, [Thread.join], [Domain.join], raw
      [Condition.wait], or an [Executor.map_*] fan-out) reachable with
      any lock held.

    Held sets are over-approximate (branch exits union, closures passed
    to unknown functions assumed invoked in place), so a finding can name
    a path that never executes at runtime — such sites carry a reasoned
    [lint: allow] annotation rather than a code change. *)

val analyze : files:string list -> Lint_core.finding list
(** Run the whole-program analysis over [files] (root-relative [.ml]
    paths, typically lib/bin/bench). [lib/util/locks.ml] contributes its
    rank constants but is exempt from the rules; files that fail to parse
    are skipped (the per-file pass already reports [parse-error]).
    Findings are deduplicated and unsuppressed — the driver applies
    annotations. *)

val analyze_sources : (string * string) list -> Lint_core.finding list
(** {!analyze} over in-memory [(path, source)] pairs instead of files on
    disk. *)
