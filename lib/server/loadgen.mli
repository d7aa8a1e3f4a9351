(** Load generation against a live [uxsm serve]: workload profiles, a
    seeded deterministic request sampler, the closed/open-loop driver, and
    A/B regression comparison of recorded runs.

    A {e profile} (a JSON file, committed under [bench/profiles/])
    describes a traffic mix: corpora with zipfian popularity, a weighted
    pool of request templates, an arrival model (closed-loop with N
    concurrent clients, or open-loop at a target request rate with
    bounded lateness), warmup/measurement phases, and a cold or warm
    plan-cache mode. Every request is a {!Protocol.request}, encoded by
    {!Protocol.to_json} and sent through {!Client}: the load generator
    knows a corpus only from the server's replies. {!Runner.run} replays
    the profile against a server over TCP or a Unix socket and returns a
    {!Uxsm_obs.Bench_json.loadgen} payload — offered vs achieved
    throughput, per-op client-side latency histograms, error/overload
    counts and the server-side counter window — which the CLI appends to
    the [BENCH_<rev>.json] trajectory as a ["loadgen"]-kind record.
    {!Ab} diffs two such records and flags regressions beyond a noise
    tolerance; CI runs it as a smoke gate.

    Everything here is deterministic from the profile seed: two runs of
    the same profile issue byte-identical request streams per client
    (server timing, not request content, is the only variable). No global
    [Random] state is used — every stochastic choice draws from an
    explicit {!Uxsm_util.Prng}. *)

module Profile : sig
  (** Arrival model of a profile. *)
  type arrival =
    | Closed of { clients : int }
        (** [clients] concurrent connections, each sending its next
            request as soon as the previous reply arrives. *)
    | Open of { rps : float; clients : int; max_lateness : float }
        (** Poisson arrivals at [rps] requests/second spread over
            [clients] pipelined connections; an arrival that cannot be
            sent within [max_lateness] seconds of its schedule is dropped
            and counted as late (bounding coordinated omission), and
            latency is measured from the {e scheduled} arrival time. *)

  (** What a template draws, besides the corpus. *)
  type draw =
    | Request of Protocol.request  (** a pure request; each draw sets its corpus *)
    | Rescore of int
        (** an [update] re-scoring this many of the corpus' correspondences
            (JSON field ["corrs"], default 1) with fresh scores in
            [(0, 1]]: a long run never grows schemas or removes edges *)

  type template = {
    t_draw : draw;
    t_weight : float;  (** relative sampling weight, >= 0 *)
  }

  type corpus = {
    c_name : string;  (** server-side corpus name *)
    c_register : Protocol.request;  (** the [register] request that creates it *)
  }

  type plan_cache =
    | Warm  (** warmup traffic populates the server caches before measuring *)
    | Cold
        (** every corpus is re-registered after warmup, invalidating all
            cached artifacts, so the window measures cold plan builds *)

  type t = {
    p_id : string;
    p_description : string;
    p_corpora : corpus list;
        (** popularity rank order: the first corpus is the most popular *)
    p_zipf_s : float;  (** zipf exponent; 0 = uniform popularity *)
    p_templates : template list;
    p_arrival : arrival;
    p_warmup_s : float;
    p_duration_s : float;  (** measurement window length *)
    p_plan_cache : plan_cache;
    p_seed : int;
  }

  val of_json : Uxsm_util.Json.t -> (t, string) result
  (** Decode and validate. A corpus entry is a [register] request without
      ["op"]; a template is a pure request without ["corpus"], plus
      ["weight"] (or ["op": "update"] with ["corrs"]). The protocol's
      decoder reads both, so a template the server would refuse is refused
      here with the protocol's message, prefixed by its 1-based position.
      Query patterns must parse, corpus names be distinct, rates
      positive, and so on; errors name the offending field. *)

  val to_json : t -> Uxsm_util.Json.t
  (** [of_json (to_json p)] restores [p]. *)

  val of_string : string -> (t, string) result

  val load : string -> (t, string) result
  (** Read and decode a file. *)

  val clients : t -> int
  val mode_name : t -> string
  (** ["closed"] or ["open"] *)

  val plan_cache_name : t -> string
  (** ["warm"] or ["cold"] *)

  val target_rps : t -> float option
  (** [Some rps] in open-loop mode *)

  val ops : t -> string list
  (** Distinct template op names, sorted. *)
end

module Sampler : sig
  type t

  val correspondences : Uxsm_util.Json.t -> ((string * string) array, string) result
  (** The (source path, target path) pairs of a [match] reply, in its
      order. *)

  val create :
    ?stream:int -> corrs:(string * (string * string) array) list -> Profile.t -> t
  (** A deterministic sampler for client [stream] (default 0). [corrs]
      gives each corpus' {!correspondences}, which update draws re-score;
      it may be empty when the profile has no update template. Samplers
      created from equal [(profile seed, stream, corrs)] produce equal
      request sequences; distinct streams are statistically independent
      (derived via {!Uxsm_util.Prng.split}). *)

  val next : t -> Protocol.request
  (** Draw a corpus (zipfian over the profile's rank order) and a template
      (weighted), and build the request; {!Protocol.to_json} encodes it
      (the runner adds the ["id"]). *)

  val interarrival : t -> rps:float -> float
  (** Next exponential inter-arrival gap in seconds for a Poisson process
      at [rps]; used by the open-loop sender. Draws from the same stream,
      so the (request, gap) sequence is deterministic too. *)
end

module Ab : sig
  (** Regression comparison of two loadgen records for the same profile. *)

  type metric = {
    ab_metric : string;  (** ["throughput_rps"], ["latency_p50"], ... *)
    ab_a : float;  (** baseline value *)
    ab_b : float;  (** candidate value *)
    ab_delta : float;
        (** signed relative delta [(b - a) / a]; [infinity] when [a = 0]
            and [b > 0], [0] when both are 0 *)
    ab_worse : bool;
        (** [true] when the delta exceeds the tolerance in the metric's
            bad direction (lower throughput, higher latency or error
            rate). A delta {e equal} to the tolerance passes. *)
  }

  type report = {
    ab_profile : string;
    ab_tolerance : float;
    ab_metrics : metric list;
  }

  val compare_loadgen :
    tolerance:float ->
    Uxsm_obs.Bench_json.loadgen ->
    Uxsm_obs.Bench_json.loadgen ->
    (report, string) result
  (** [compare_loadgen ~tolerance a b] diffs candidate [b] against
      baseline [a]: achieved throughput, p50/p95/p99 of the merged
      ["all"] latency histogram, and the error rate (errors / sent,
      compared as an absolute fraction against the tolerance). [Error]
      when the records belong to different profiles or arrival modes —
      such a pair is not comparable. [tolerance] must be >= 0. *)

  val regressed : report -> bool
  (** [true] iff any metric is worse than tolerated. *)

  val pick :
    ?profile:string ->
    Uxsm_obs.Bench_json.run list ->
    (Uxsm_obs.Bench_json.loadgen, string) result
  (** The {e last} loadgen-kind record of a parsed trajectory file
      (optionally restricted to a profile id) — the record an A/B gate
      compares. [Error] when none matches. *)

  val report_lines : report -> string list
  (** Human-readable rendering, one metric per line. *)
end

module Runner : sig
  val run :
    ?log:(string -> unit) ->
    Profile.t ->
    Client.endpoint ->
    (Uxsm_obs.Bench_json.loadgen, string) result
  (** Replay the profile against a live server: connect, register the
      profile's corpora (and read each one's [match] reply when the
      profile has update templates), run the warmup phase, open the measurement
      window with a [stats_reset] barrier (after re-registering when the
      plan-cache mode is {!Profile.Cold}), drive the arrival model for
      the configured duration, drain, and read the server's [stats]
      window. Latencies are observed into process-local
      [loadgen.<op>.latency] {!Uxsm_obs.Obs} histograms (reset at window
      start). [log] receives progress lines (default: silent).

      [Error] on connection failure ({!Client.connect}'s message), a
      failed registration, or a refused [stats_reset]; mid-run connection
      loss surfaces as error counts, not failure. *)

  val record : argv:string list -> Uxsm_obs.Bench_json.loadgen -> Uxsm_obs.Bench_json.run
  (** Wrap a runner result as an appendable ["loadgen"]-kind run record
      ([r_jobs] = client count, [r_executor] = ["loadgen"]). *)

  val summary_lines : Uxsm_obs.Bench_json.loadgen -> string list
  (** Human-readable run summary (throughput, quantiles, error counts). *)
end
