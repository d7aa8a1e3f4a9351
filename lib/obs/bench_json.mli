(** Machine-readable benchmark records.

    One bench invocation produces one {!run}: the git revision it measured,
    the experiments it executed, and for each experiment its wall time, its
    named point measurements (seconds per run, from the harness) and the
    {!Obs} counter/span snapshot accumulated while it ran. Runs are appended
    to [BENCH_<rev>.json] as one JSON object per line (JSON Lines), so the
    trajectory of a branch is a diffable, append-only log.

    This lives in the library (not in [bench/]) so tests can round-trip the
    exact serialization the harness emits. *)

type measurement = {
  m_name : string;
  m_seconds_per_run : float;
}

type experiment = {
  e_id : string;  (** harness section id, e.g. ["fig9a"] *)
  e_title : string;
  e_params : (string * Uxsm_util.Json.t) list;  (** experiment parameters *)
  e_wall_seconds : float;  (** wall time of the whole section *)
  e_measurements : measurement list;  (** in emission order *)
  e_counters : (string * int) list;  (** nonzero {!Obs} counters *)
  e_spans : (string * (int * float)) list;  (** nonzero spans: count, seconds *)
  e_histograms : (string * Obs.hist_view) list;
      (** nonzero {!Obs} histograms (e.g. server latency distributions);
          records written before histograms existed parse as []. The JSON
          field is omitted when empty, so old records round-trip
          byte-identically. *)
}

type loadgen = {
  lg_profile : string;  (** profile id, the AB-comparison key *)
  lg_mode : string;  (** arrival model: ["closed"] or ["open"] *)
  lg_clients : int;  (** concurrent connections driving the server *)
  lg_target_rps : float option;  (** open-loop offered rate; [None] when closed *)
  lg_warmup_seconds : float;  (** configured warmup phase length *)
  lg_window_seconds : float;  (** measured wall length of the measurement window *)
  lg_plan_cache : string;  (** ["warm"] or ["cold"] *)
  lg_seed : int;  (** sampler seed the request streams derive from *)
  lg_sent : int;  (** requests written to the server inside the window *)
  lg_completed : int;  (** [ok: true] replies received *)
  lg_errors : int;  (** error replies (excluding overload rejections) plus lost requests *)
  lg_overloaded : int;  (** structured [overloaded] backpressure rejections *)
  lg_late : int;  (** open-loop arrivals dropped for exceeding the lateness bound *)
  lg_offered_rps : float;  (** (sent + late) / window *)
  lg_achieved_rps : float;  (** completed / window *)
  lg_latency : (string * Obs.hist_view) list;
      (** client-side per-op latency histograms, keyed by op name plus the
          merged ["all"]; same fixed bucket scale as every {!Obs} histogram *)
  lg_server : (string * int) list;
      (** server-side counter deltas over the window (the [stats] reply
          after a window-opening [stats_reset]) *)
}
(** One load-generator run against a live server: the workload
    configuration that produced it and the client-side measurements. *)

type run = {
  r_git_rev : string;
  r_unix_time : float;  (** seconds since the epoch at run start *)
  r_argv : string list;
  r_jobs : int;  (** executor pool size the run was measured with (1 = sequential) *)
  r_executor : string;  (** executor backend name, e.g. ["sequential"], ["domains"] *)
  r_experiments : experiment list;
  r_kind : string;  (** record kind: ["bench"] (harness experiments) or ["loadgen"] *)
  r_loadgen : loadgen option;  (** present exactly when [r_kind = "loadgen"] *)
}
(** Records written before the executor fields existed parse with
    [r_jobs = 1] and [r_executor = "sequential"] — the only configuration
    those runs could have used. Records written before the loadgen kind
    existed parse with [r_kind = "bench"] and [r_loadgen = None], and
    re-serialize byte-identically (the new fields are omitted for bench
    records). *)

val experiment :
  ?params:(string * Uxsm_util.Json.t) list ->
  ?measurements:measurement list ->
  ?snapshot:Obs.snapshot ->
  id:string ->
  title:string ->
  wall_seconds:float ->
  unit ->
  experiment
(** Constructor; the snapshot is filtered through {!Obs.nonzero}. *)

val check_run : run -> (unit, string) result
(** Structural invariants beyond what parsing enforces, used by
    [bench/validate.exe]. A ["loadgen"] record must carry its payload (and
    a ["bench"] record must not), with a known mode and plan-cache value,
    at least one client, non-negative counts and rates, a positive
    measurement window, and well-formed latency histograms (strictly
    ascending bucket bounds on the shared 41-bucket scale, non-negative
    counts, bucket mass covering the total count). In a ["bench"] record,
    an [abl_update] experiment must time every [<ID>-incr] below its
    [<ID>-full] and re-rank fewer components than exist, and a [fig10e]
    experiment must time every [<ID>-partition] below its [<ID>-murty]. *)

val run_to_string : run -> string
(** Single line, no trailing newline. *)

val run_of_string : string -> (run, string) result

val runs_of_lines : string -> (run list, string) result
(** Parse a whole JSON-Lines file content (blank lines skipped). A
    malformed record fails with its 1-based line number and the offending
    field, e.g. ["line 3: field \"jobs\" is not a number"]. *)

val append_to_file : path:string -> run -> unit
(** Append [run_to_string run] plus a newline to [path], creating it if
    missing. *)

val git_rev : unit -> string
(** Short revision of the working tree's HEAD, or ["unknown"] outside a git
    checkout. *)
