(** Wall-clock timing helpers used by the benchmark harness and the CLI.

    All elapsed-time measurement is monotonic: an NTP step or manual clock
    change mid-run cannot corrupt a duration. Use [Unix.gettimeofday] /
    [Unix.time] only for calendar {e timestamps} (e.g. stamping a bench
    record), never for differences. *)

val now_mono : unit -> float
(** Seconds on the system's monotonic clock, from an arbitrary epoch: only
    differences between two [now_mono] readings are meaningful. *)
