module Json = Uxsm_util.Json
module Prng = Uxsm_util.Prng
module Timing = Uxsm_util.Timing
module Obs = Uxsm_obs.Obs
module Bench_json = Uxsm_obs.Bench_json
module Matching = Uxsm_mapping.Matching

(* ------------------------------ profiles -------------------------- *)

module Profile = struct
  type arrival =
    | Closed of { clients : int }
    | Open of { rps : float; clients : int; max_lateness : float }

  type draw =
    | Request of Protocol.request
    | Rescore of int

  type template = {
    t_draw : draw;
    t_weight : float;
  }

  type corpus = {
    c_name : string;
    c_register : Protocol.request;
  }

  type plan_cache =
    | Warm
    | Cold

  type t = {
    p_id : string;
    p_description : string;
    p_corpora : corpus list;
    p_zipf_s : float;
    p_templates : template list;
    p_arrival : arrival;
    p_warmup_s : float;
    p_duration_s : float;
    p_plan_cache : plan_cache;
    p_seed : int;
  }

  exception Fail of string

  let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

  let field name j =
    match Json.member name j with
    | Some v -> v
    | None -> failf "missing field %S" name

  let get what conv name j =
    match conv (field name j) with
    | Some v -> v
    | None -> failf "field %S is not %s" name what

  let opt ~default conv what name j =
    match Json.member name j with
    | None -> default
    | Some v -> (
      match conv v with
      | Some x -> x
      | None -> failf "field %S is not %s" name what)

  let str = get "a string" Json.to_string_opt
  let num = get "a number" Json.to_float
  let items = get "an array" Json.to_list

  (* A template is a request object without "corpus" (each draw names
     one), plus "weight"; an "update" template says how many
     correspondences each draw re-scores instead. The server's own decoder
     checks every field, so a profile cannot hold a request the server
     refuses for its shape. *)
  let template_of_json i j =
    let what = Printf.sprintf "template %d" i in
    let weight = opt ~default:1.0 Json.to_float "a number" "weight" j in
    if (not (Float.is_finite weight)) || weight < 0.0 then
      failf "%s: field \"weight\" must be finite and >= 0" what;
    let draw =
      match Json.member "op" j with
      | Some (Json.String "update") ->
        let corrs = opt ~default:1 Json.to_int "an integer" "corrs" j in
        if corrs < 1 then failf "%s: field \"corrs\" must be >= 1" what;
        Rescore corrs
      | _ -> (
        (* [Json.member] finds the first binding, so this "corpus" wins. *)
        let j =
          match j with
          | Json.Assoc fields -> Json.Assoc (("corpus", Json.String "") :: fields)
          | j -> j
        in
        match Protocol.parse j with
        | Error e -> failf "%s: %s" what e.Protocol.message
        | Ok { Protocol.req; _ } when not (Protocol.is_pure req) ->
          failf "%s: op %S is neither pure nor \"update\"" what (Protocol.op_name req)
        | Ok { Protocol.req = Protocol.Query { pattern; _ } as req; _ } -> (
          match Uxsm_twig.Pattern_parser.parse pattern with
          | Ok _ -> Request req
          | Error e -> failf "%s: query %S does not parse: %s" what pattern e)
        | Ok { Protocol.req; _ } -> Request req)
    in
    { t_draw = draw; t_weight = weight }

  (* A corpus entry is a register request without "op". *)
  let corpus_of_json i j =
    match Protocol.parse_fields ~op:"register" j with
    | Error e -> failf "corpus %d: %s" i e
    | Ok (Protocol.Register { name; _ } as r) when String.trim name <> "" ->
      { c_name = name; c_register = r }
    | Ok _ -> failf "corpus %d: name must be non-empty" i

  let arrival_of_json j =
    match str "mode" j with
    | "closed" ->
      let clients = get "an integer" Json.to_int "clients" j in
      if clients < 1 then failf "arrival field \"clients\" must be >= 1";
      Closed { clients }
    | "open" ->
      let rps = num "rps" j in
      let clients = opt ~default:1 Json.to_int "an integer" "clients" j in
      let max_lateness = opt ~default:1.0 Json.to_float "a number" "max_lateness_seconds" j in
      if (not (Float.is_finite rps)) || rps <= 0.0 then failf "arrival field \"rps\" must be positive";
      if clients < 1 then failf "arrival field \"clients\" must be >= 1";
      if (not (Float.is_finite max_lateness)) || max_lateness <= 0.0 then
        failf "arrival field \"max_lateness_seconds\" must be positive";
      Open { rps; clients; max_lateness }
    | m -> failf "arrival mode %S is not \"closed\" or \"open\"" m

  let of_json j =
    try
      let p =
        {
          p_id = str "id" j;
          p_description = opt ~default:"" Json.to_string_opt "a string" "description" j;
          p_corpora = List.mapi (fun i c -> corpus_of_json (i + 1) c) (items "corpora" j);
          p_zipf_s = opt ~default:1.0 Json.to_float "a number" "zipf_s" j;
          p_templates = List.mapi (fun i t -> template_of_json (i + 1) t) (items "templates" j);
          p_arrival = arrival_of_json (field "arrival" j);
          p_warmup_s = opt ~default:0.0 Json.to_float "a number" "warmup_seconds" j;
          p_duration_s = num "duration_seconds" j;
          p_plan_cache =
            (match opt ~default:"warm" Json.to_string_opt "a string" "plan_cache" j with
            | "warm" -> Warm
            | "cold" -> Cold
            | pc -> failf "field \"plan_cache\" %S is not \"warm\" or \"cold\"" pc);
          p_seed = opt ~default:42 Json.to_int "an integer" "seed" j;
        }
      in
      if String.trim p.p_id = "" then failf "field \"id\" must be non-empty";
      if p.p_corpora = [] then failf "field \"corpora\" must be non-empty";
      let names = List.map (fun c -> c.c_name) p.p_corpora in
      if List.length (List.sort_uniq String.compare names) <> List.length names then
        failf "corpus names must be distinct";
      if (not (Float.is_finite p.p_zipf_s)) || p.p_zipf_s < 0.0 then
        failf "field \"zipf_s\" must be finite and >= 0";
      if p.p_templates = [] then failf "field \"templates\" must be non-empty";
      if not (List.fold_left (fun acc t -> acc +. t.t_weight) 0.0 p.p_templates > 0.0) then
        failf "total template weight must be positive";
      if (not (Float.is_finite p.p_warmup_s)) || p.p_warmup_s < 0.0 then
        failf "field \"warmup_seconds\" must be finite and >= 0";
      if (not (Float.is_finite p.p_duration_s)) || p.p_duration_s <= 0.0 then
        failf "field \"duration_seconds\" must be positive";
      Ok p
    with Fail msg -> Error msg

  (* The request's fields without [drop]. *)
  let request_fields ~drop req =
    List.remove_assoc drop
      (Option.value ~default:[] (Json.to_assoc (Protocol.to_json { Protocol.id = None; req })))

  let template_to_json t =
    Json.Assoc
      ((match t.t_draw with
       | Request req -> request_fields ~drop:"corpus" req
       | Rescore n ->
         (* an empty update encodes as its op alone *)
         request_fields ~drop:"corpus"
           (Protocol.Update { corpus = ""; delta = Matching.empty_delta })
         @ [ ("corrs", Json.Int n) ])
      @ [ ("weight", Json.Float t.t_weight) ])

  let to_json p =
    Json.Assoc
      [
        ("id", Json.String p.p_id);
        ("description", Json.String p.p_description);
        ("seed", Json.Int p.p_seed);
        ("zipf_s", Json.Float p.p_zipf_s);
        ( "corpora",
          Json.List
            (List.map (fun c -> Json.Assoc (request_fields ~drop:"op" c.c_register)) p.p_corpora)
        );
        ("templates", Json.List (List.map template_to_json p.p_templates));
        ( "arrival",
          match p.p_arrival with
          | Closed { clients } ->
            Json.Assoc [ ("mode", Json.String "closed"); ("clients", Json.Int clients) ]
          | Open { rps; clients; max_lateness } ->
            Json.Assoc
              [
                ("mode", Json.String "open");
                ("rps", Json.Float rps);
                ("clients", Json.Int clients);
                ("max_lateness_seconds", Json.Float max_lateness);
              ] );
        ("warmup_seconds", Json.Float p.p_warmup_s);
        ("duration_seconds", Json.Float p.p_duration_s);
        ( "plan_cache",
          Json.String
            (match p.p_plan_cache with
            | Warm -> "warm"
            | Cold -> "cold") );
      ]

  let of_string s =
    match Json.of_string s with
    | Error e -> Error (Printf.sprintf "profile is not valid JSON: %s" e)
    | Ok j -> of_json j

  let load path =
    match open_in path with
    | exception Sys_error e -> Error e
    | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      of_string s

  let clients p =
    match p.p_arrival with
    | Closed { clients } | Open { clients; _ } -> clients

  let mode_name p =
    match p.p_arrival with
    | Closed _ -> "closed"
    | Open _ -> "open"

  let plan_cache_name p =
    match p.p_plan_cache with
    | Warm -> "warm"
    | Cold -> "cold"

  let target_rps p =
    match p.p_arrival with
    | Closed _ -> None
    | Open { rps; _ } -> Some rps

  let ops p =
    List.sort_uniq String.compare
      (List.map
         (fun t ->
           match t.t_draw with
           | Request req -> Protocol.op_name req
           | Rescore _ -> "update")
         p.p_templates)
end

(* ------------------------------ sampling -------------------------- *)

module Sampler = struct
  type t = {
    s_prng : Prng.t;
    s_corpora : string array;  (* popularity rank order *)
    s_corpus_cum : float array;  (* cumulative zipf weights *)
    s_templates : Profile.template array;
    s_template_cum : float array;
    s_corrs : (string * (string * string) array) list;
        (* corpus -> the (source path, target path) pairs update draws
           re-score *)
  }

  let correspondences reply =
    let path field c =
      match Json.member field c with
      | Some (Json.String s) -> s
      | _ -> raise Exit
    in
    match Json.member "correspondences" reply with
    | Some (Json.List cs) -> (
      try Ok (Array.of_list (List.map (fun c -> (path "source" c, path "target" c)) cs))
      with Exit -> Error "match reply: a correspondence lacks its source or target path")
    | _ -> Error "match reply carries no correspondences"

  let cumulative weights =
    let acc = ref 0.0 in
    Array.map
      (fun w ->
        acc := !acc +. w;
        !acc)
      weights

  (* Smallest index whose cumulative weight exceeds [x]; [x] is drawn in
     [0, total), so the scan always lands. *)
  let pick_cum cum x =
    let n = Array.length cum in
    let rec go i = if i >= n - 1 || x < cum.(i) then i else go (i + 1) in
    go 0

  let create ?(stream = 0) ~corrs (p : Profile.t) =
    (* Stream derivation: child [stream] of one parent generator, so
       distinct clients draw independent sequences while (seed, stream)
       fully determines each. *)
    let parent = Prng.create p.Profile.p_seed in
    let rec child i = if i = 0 then Prng.split parent else (ignore (Prng.split parent); child (i - 1)) in
    let prng = child (max 0 stream) in
    let corpora = Array.of_list (List.map (fun c -> c.Profile.c_name) p.Profile.p_corpora) in
    let zipf =
      Array.init (Array.length corpora) (fun i ->
          (* Rank 1 is the head of the corpora list. *)
          Float.pow (float_of_int (i + 1)) (-.p.Profile.p_zipf_s))
    in
    let templates = Array.of_list p.Profile.p_templates in
    let weights = Array.map (fun t -> t.Profile.t_weight) templates in
    {
      s_prng = prng;
      s_corpora = corpora;
      s_corpus_cum = cumulative zipf;
      s_templates = templates;
      s_template_cum = cumulative weights;
      s_corrs = corrs;
    }

  let with_corpus corpus (req : Protocol.request) =
    match req with
    | Protocol.Match _ -> Protocol.Match { corpus }
    | Protocol.Mappings r -> Protocol.Mappings { r with corpus }
    | Protocol.Query r -> Protocol.Query { r with corpus }
    | Protocol.Explain r -> Protocol.Explain { r with corpus }
    | Protocol.Save r -> Protocol.Save { r with corpus }
    | Protocol.Update r -> Protocol.Update { r with corpus }
    | (Protocol.Ping | Protocol.Register _ | Protocol.Stats | Protocol.Stats_reset
      | Protocol.Shutdown) as req ->
      req

  let next s =
    let total_c = s.s_corpus_cum.(Array.length s.s_corpus_cum - 1) in
    let corpus = s.s_corpora.(pick_cum s.s_corpus_cum (Prng.float s.s_prng total_c)) in
    let total_t = s.s_template_cum.(Array.length s.s_template_cum - 1) in
    let t = s.s_templates.(pick_cum s.s_template_cum (Prng.float s.s_prng total_t)) in
    match t.Profile.t_draw with
    | Profile.Request req -> with_corpus corpus req
    | Profile.Rescore n ->
      (* Re-score only: the correspondence set, the schemas and every
         component partition stay fixed, so a long run neither grows the
         corpus nor invalidates the sampled path universe. Scores land in
         [0.01, 1) ⊂ (0, 1]. *)
      let paths = List.assoc corpus s.s_corrs in
      let set =
        List.init
          (min n (Array.length paths))
          (fun _ ->
            let src, tgt = paths.(Prng.int s.s_prng (Array.length paths)) in
            let score = 0.01 +. Prng.float s.s_prng 0.99 in
            (src, tgt, score))
      in
      Protocol.Update { corpus; delta = { Matching.empty_delta with set_scores = set } }

  let interarrival s ~rps =
    (* Exponential deviate; [Prng.float] is in [0, bound), so [1 - u] is
       never zero and the log is finite. *)
    let u = Prng.float s.s_prng 1.0 in
    -.Float.log (1.0 -. u) /. rps
end

(* ------------------------------ A/B diff -------------------------- *)

module Ab = struct
  type metric = {
    ab_metric : string;
    ab_a : float;
    ab_b : float;
    ab_delta : float;
    ab_worse : bool;
  }

  type report = {
    ab_profile : string;
    ab_tolerance : float;
    ab_metrics : metric list;
  }

  let rel_delta a b = if a > 0.0 then (b -. a) /. a else if b > 0.0 then infinity else 0.0

  (* A delta exactly at the tolerance passes: the gate trips only on
     strictly-worse-than-tolerated runs. *)
  let metric ~tolerance ~bad name a b =
    let delta = rel_delta a b in
    let worse =
      match bad with
      | `Lower -> -.delta > tolerance
      | `Higher -> delta > tolerance
    in
    { ab_metric = name; ab_a = a; ab_b = b; ab_delta = delta; ab_worse = worse }

  let empty_view = { Obs.hv_count = 0; hv_sum = 0.0; hv_buckets = []; hv_overflow = 0 }

  let all_latency (lg : Bench_json.loadgen) =
    match List.assoc_opt "all" lg.Bench_json.lg_latency with
    | Some v -> v
    | None -> empty_view

  let error_rate (lg : Bench_json.loadgen) =
    float_of_int lg.Bench_json.lg_errors /. float_of_int (max lg.Bench_json.lg_sent 1)

  let compare_loadgen ~tolerance (a : Bench_json.loadgen) (b : Bench_json.loadgen) =
    if (not (Float.is_finite tolerance)) || tolerance < 0.0 then
      Error "tolerance must be finite and >= 0"
    else if a.Bench_json.lg_profile <> b.Bench_json.lg_profile then
      Error
        (Printf.sprintf "profile mismatch: %S vs %S — records are not comparable"
           a.Bench_json.lg_profile b.Bench_json.lg_profile)
    else if a.Bench_json.lg_mode <> b.Bench_json.lg_mode then
      Error
        (Printf.sprintf "arrival-mode mismatch: %S vs %S — records are not comparable"
           a.Bench_json.lg_mode b.Bench_json.lg_mode)
    else begin
      let va = all_latency a and vb = all_latency b in
      let quantile name q =
        metric ~tolerance ~bad:`Higher name (Obs.quantile va q) (Obs.quantile vb q)
      in
      (* Error rates compare as an absolute fraction of requests: relative
         deltas on near-zero rates would trip the gate on a single stray
         error. *)
      let ea = error_rate a and eb = error_rate b in
      let err =
        {
          ab_metric = "error_rate";
          ab_a = ea;
          ab_b = eb;
          ab_delta = eb -. ea;
          ab_worse = eb -. ea > tolerance;
        }
      in
      Ok
        {
          ab_profile = a.Bench_json.lg_profile;
          ab_tolerance = tolerance;
          ab_metrics =
            [
              metric ~tolerance ~bad:`Lower "throughput_rps" a.Bench_json.lg_achieved_rps
                b.Bench_json.lg_achieved_rps;
              quantile "latency_p50" 0.50;
              quantile "latency_p95" 0.95;
              quantile "latency_p99" 0.99;
              err;
            ];
        }
    end

  let regressed r = List.exists (fun m -> m.ab_worse) r.ab_metrics

  let pick ?profile runs =
    let matches (r : Bench_json.run) =
      r.Bench_json.r_kind = "loadgen"
      &&
      match (r.Bench_json.r_loadgen, profile) with
      | None, _ -> false
      | Some _, None -> true
      | Some lg, Some id -> lg.Bench_json.lg_profile = id
    in
    match List.rev (List.filter matches runs) with
    | { Bench_json.r_loadgen = Some lg; _ } :: _ -> Ok lg
    | _ ->
      Error
        (match profile with
        | None -> "no loadgen record found"
        | Some id -> Printf.sprintf "no loadgen record for profile %S found" id)

  let report_lines r =
    Printf.sprintf "profile %s (tolerance %.1f%%)" r.ab_profile (100.0 *. r.ab_tolerance)
    :: List.map
         (fun m ->
           let delta =
             if Float.is_finite m.ab_delta then
               Printf.sprintf "%+7.1f%%" (100.0 *. m.ab_delta)
             else "     inf"
           in
           Printf.sprintf "  %-14s A %12.6f   B %12.6f   delta %s   %s" m.ab_metric m.ab_a
             m.ab_b delta
             (if m.ab_worse then "REGRESSION" else "ok"))
         r.ab_metrics
end

(* ------------------------------- runner --------------------------- *)

module Runner = struct
  exception Fail of string

  let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

  let line ?id req = Json.to_string (Protocol.to_json { Protocol.id; req })

  (* Control-channel request/reply with a generous bound: registration of
     an XCBL-sized corpus runs the matcher. *)
  let control_timeout = 300.0

  let request conn req =
    (match Client.send conn [ line req ] with
    | Ok () -> ()
    | Error e -> failf "cannot send a control request: %s" e);
    match Client.recv ~timeout:control_timeout conn with
    | Client.Timeout ->
      failf "server did not answer a control request within %.0fs" control_timeout
    | Client.Closed -> failf "server closed the control connection"
    | Client.Failed e -> failf "control reply: %s" e
    | Client.Line reply -> (
      match Json.of_string reply with
      | Error e -> failf "malformed control reply: %s" e
      | Ok j ->
        if Json.member "ok" j = Some (Json.Bool true) then j
        else
          failf "control request failed: %s"
            (match Json.member "error" j with
            | Some (Json.String m) -> m
            | _ -> reply))

  let register_corpora conn (p : Profile.t) =
    List.iter (fun c -> ignore (request conn c.Profile.c_register)) p.Profile.p_corpora

  (* What update templates re-score: each corpus' correspondences, read
     from the server's match reply. *)
  let correspondences conn (p : Profile.t) =
    if not (List.mem "update" (Profile.ops p)) then []
    else
      List.map
        (fun c ->
          let name = c.Profile.c_name in
          match Sampler.correspondences (request conn (Protocol.Match { corpus = name })) with
          | Ok paths -> (name, paths)
          | Error e -> failf "corpus %s: %s" name e)
        p.Profile.p_corpora

  let server_counters conn =
    match Json.member "counters" (request conn Protocol.Stats) with
    | Some (Json.Assoc cs) ->
      List.filter_map
        (fun (n, v) ->
          match Json.to_int v with
          | Some i -> Some (n, i)
          | None -> None)
        cs
    | _ -> []

  (* --------------------------- accounting -------------------------- *)

  type counters = {
    k_sent : int Atomic.t;
    k_completed : int Atomic.t;
    k_errors : int Atomic.t;
    k_overloaded : int Atomic.t;
    k_late : int Atomic.t;
  }

  let fresh_counters () =
    {
      k_sent = Atomic.make 0;
      k_completed = Atomic.make 0;
      k_errors = Atomic.make 0;
      k_overloaded = Atomic.make 0;
      k_late = Atomic.make 0;
    }

  type hists = {
    hs_per_op : (string * Obs.histogram) list;
    hs_all : Obs.histogram;
  }

  let resolve_hists (p : Profile.t) =
    {
      hs_per_op = List.map (fun op -> (op, Obs.histogram ("loadgen." ^ op ^ ".latency"))) (Profile.ops p);
      hs_all = Obs.histogram "loadgen.all.latency";
    }

  let classify line =
    match Json.of_string line with
    | Error _ -> `Err
    | Ok j ->
      if Protocol.is_overloaded_response j then `Overloaded
      else if Json.member "ok" j = Some (Json.Bool true) then `Ok
      else `Err

  let observe ~measure hists op dt =
    if measure then begin
      (match List.assoc_opt op hists.hs_per_op with
      | Some h -> Obs.observe h dt
      | None -> ());
      Obs.observe hists.hs_all dt
    end

  (* How long a worker waits for one reply before giving the server up. *)
  let reply_timeout = 120.0

  (* ------------------------- closed loop --------------------------- *)

  (* One synchronous send/await loop per connection: the next request
     leaves when the previous reply lands, so concurrency equals the
     client count. In-flight requests at the deadline complete. A dropped
     connection mid-window is an error observation, not a run failure: the
     worker counts it and stops. *)
  let closed_worker ~sampler ~conn ~deadline ~measure ~counters ~hists ~next_id () =
    let rec loop () =
      if Timing.now_mono () < deadline then begin
        let rq = Sampler.next sampler in
        incr next_id;
        let l = line ~id:(Json.Int !next_id) rq in
        let t0 = Timing.now_mono () in
        match Client.send conn [ l ] with
        | Error _ -> if measure then Atomic.incr counters.k_errors
        | Ok () -> (
          if measure then Atomic.incr counters.k_sent;
          match Client.recv ~timeout:reply_timeout conn with
          | Client.Timeout | Client.Closed | Client.Failed _ ->
            if measure then Atomic.incr counters.k_errors
          | Client.Line reply ->
            let dt = Timing.now_mono () -. t0 in
            (if measure then
               match classify reply with
               | `Ok ->
                 Atomic.incr counters.k_completed;
                 observe ~measure hists (Protocol.op_name rq) dt
               | `Overloaded -> Atomic.incr counters.k_overloaded
               | `Err -> Atomic.incr counters.k_errors);
            loop ())
      end
    in
    loop ()

  (* -------------------------- open loop ---------------------------- *)

  type open_state = {
    os_lock : Uxsm_util.Locks.t;
    os_outstanding : (int, string * float) Hashtbl.t;  (* id -> (op, scheduled at) *)
    os_sender_done : bool Atomic.t;
  }

  (* Pipelined sender at the connection's share of the target rate.
     Latency is charged from the *scheduled* arrival, and arrivals that
     cannot leave within the lateness bound are dropped and counted, so a
     stalled server cannot hide queueing delay (bounded coordinated
     omission). Drops still advance the sampler, keeping the request
     stream a deterministic function of (seed, stream). *)
  let open_sender ~sampler ~conn ~start ~deadline ~rate ~max_lateness ~measure ~counters ~state
      ~next_id () =
    let rec loop t =
      if t < deadline then begin
        let now = Timing.now_mono () in
        if t > now then Thread.delay (t -. now);
        let now = Timing.now_mono () in
        let alive =
          if now -. t > max_lateness then begin
            ignore (Sampler.next sampler);
            if measure then Atomic.incr counters.k_late;
            true
          end
          else begin
            let rq = Sampler.next sampler in
            incr next_id;
            Uxsm_util.Locks.lock state.os_lock;
            Hashtbl.replace state.os_outstanding !next_id (Protocol.op_name rq, t);
            Uxsm_util.Locks.unlock state.os_lock;
            match Client.send conn [ line ~id:(Json.Int !next_id) rq ] with
            | Ok () ->
              if measure then Atomic.incr counters.k_sent;
              true
            | Error _ ->
              if measure then Atomic.incr counters.k_errors;
              false
          end
        in
        if alive then loop (t +. Sampler.interarrival sampler ~rps:rate)
      end
    in
    loop (start +. Sampler.interarrival sampler ~rps:rate);
    Atomic.set state.os_sender_done true

  (* Matches replies to sends by id (rejections may overtake admitted
     replies); drains until the sender finished and nothing is
     outstanding, or the drain deadline expires — whatever is still
     unanswered then counts as errors. *)
  let open_receiver ~conn ~drain_deadline ~measure ~counters ~hists ~state () =
    let outstanding_count () =
      Uxsm_util.Locks.with_lock state.os_lock (fun () ->
          Hashtbl.length state.os_outstanding)
    in
    let take id =
      Uxsm_util.Locks.with_lock state.os_lock (fun () ->
          let entry = Hashtbl.find_opt state.os_outstanding id in
          (match entry with
          | Some _ -> Hashtbl.remove state.os_outstanding id
          | None -> ());
          entry)
    in
    let lose_remaining () =
      if measure then begin
        let n = outstanding_count () in
        if n > 0 then
          for _ = 1 to n do
            Atomic.incr counters.k_errors
          done
      end;
      Uxsm_util.Locks.with_lock state.os_lock (fun () ->
          Hashtbl.reset state.os_outstanding)
    in
    let rec loop () =
      if Atomic.get state.os_sender_done && outstanding_count () = 0 then ()
      else if Timing.now_mono () > drain_deadline then lose_remaining ()
      else
        match Client.recv ~timeout:0.25 conn with
        | Client.Timeout -> loop ()
        | Client.Closed | Client.Failed _ -> lose_remaining ()
        | Client.Line reply ->
          (let matched =
             match Json.of_string reply with
             | Error _ -> None
             | Ok j -> (
               match Json.member "id" j with
               | Some idj -> Option.bind (Json.to_int idj) take
               | None -> None)
           in
           match matched with
           | None -> ()  (* unmatched line: a reply to a pre-window send *)
           | Some (op, sched) ->
             let dt = Timing.now_mono () -. sched in
             if measure then (
               match classify reply with
               | `Ok ->
                 Atomic.incr counters.k_completed;
                 observe ~measure hists op dt
               | `Overloaded -> Atomic.incr counters.k_overloaded
               | `Err -> Atomic.incr counters.k_errors));
          loop ()
    in
    loop ()

  (* ---------------------------- phases ----------------------------- *)

  type client = {
    cl_conn : Client.t;
    cl_sampler : Sampler.t;
    cl_next_id : int ref;  (* ids stay unique per connection across phases *)
  }

  let drain_grace = 30.0

  (* Run one phase (warmup or measurement) of the profile's arrival model
     across all clients; returns once every worker thread retired. *)
  let run_phase (p : Profile.t) ~clients ~measure ~duration ~counters ~hists =
    let start = Timing.now_mono () in
    let deadline = start +. duration in
    match p.Profile.p_arrival with
    | Profile.Closed _ ->
      let threads =
        List.map
          (fun cl ->
            Thread.create
              (closed_worker ~sampler:cl.cl_sampler ~conn:cl.cl_conn ~deadline ~measure
                 ~counters ~hists ~next_id:cl.cl_next_id)
              ())
          clients
      in
      List.iter Thread.join threads
    | Profile.Open { rps; clients = n_conns; max_lateness } ->
      let rate = rps /. float_of_int n_conns in
      let pairs =
        List.map
          (fun cl ->
            let state =
              {
                os_lock =
                  Uxsm_util.Locks.create ~name:"loadgen.outstanding"
                    ~rank:Uxsm_util.Locks.rank_loadgen;
                os_outstanding = Hashtbl.create 64;
                os_sender_done = Atomic.make false;
              }
            in
            let sender =
              Thread.create
                (open_sender ~sampler:cl.cl_sampler ~conn:cl.cl_conn ~start ~deadline ~rate
                   ~max_lateness ~measure ~counters ~state ~next_id:cl.cl_next_id)
                ()
            in
            let receiver =
              Thread.create
                (open_receiver ~conn:cl.cl_conn ~drain_deadline:(deadline +. drain_grace)
                   ~measure ~counters ~hists ~state)
                ()
            in
            (sender, receiver))
          clients
      in
      List.iter
        (fun (s, r) ->
          Thread.join s;
          Thread.join r)
        pairs

  (* ----------------------------- run ------------------------------- *)

  let latency_views hists =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.filter_map
         (fun (op, h) ->
           let v = Obs.histogram_view h in
           if v.Obs.hv_count = 0 then None else Some (op, v))
         (("all", hists.hs_all) :: hists.hs_per_op))

  let run ?(log = fun _ -> ()) (p : Profile.t) endpoint =
    let connect () =
      match Client.connect endpoint with
      | Ok c -> c
      | Error e -> failf "%s" e
    in
    match
      let ctrl = connect () in
      Fun.protect
        ~finally:(fun () -> Client.close ctrl)
        (fun () ->
          log (Printf.sprintf "registering %d corpora" (List.length p.Profile.p_corpora));
          register_corpora ctrl p;
          let corrs = correspondences ctrl p in
          let n = Profile.clients p in
          let clients =
            List.init n (fun i ->
                { cl_conn = connect (); cl_sampler = Sampler.create ~stream:i ~corrs p; cl_next_id = ref 0 })
          in
          Fun.protect
            ~finally:(fun () -> List.iter (fun cl -> Client.close cl.cl_conn) clients)
            (fun () ->
              let hists = resolve_hists p in
              if p.Profile.p_warmup_s > 0.0 then begin
                log (Printf.sprintf "warmup: %.1fs" p.Profile.p_warmup_s);
                run_phase p ~clients ~measure:false ~duration:p.Profile.p_warmup_s
                  ~counters:(fresh_counters ()) ~hists
              end;
              (match p.Profile.p_plan_cache with
              | Profile.Warm -> ()
              | Profile.Cold ->
                (* Re-registering replaces each corpus' spec and drops every
                   cached artifact, so the window measures cold builds. *)
                log "cold plan cache: re-registering corpora";
                register_corpora ctrl p);
              (* Window barrier: every worker is quiescent here, so the
                 reset cleanly separates warmup from measurement on both
                 sides of the wire. *)
              ignore (request ctrl Protocol.Stats_reset);
              Obs.reset ();
              let counters = fresh_counters () in
              log (Printf.sprintf "measuring: %.1fs (%s)" p.Profile.p_duration_s
                     (Profile.mode_name p));
              let t0 = Timing.now_mono () in
              run_phase p ~clients ~measure:true ~duration:p.Profile.p_duration_s ~counters ~hists;
              let window = Timing.now_mono () -. t0 in
              let server = server_counters ctrl in
              let sent = Atomic.get counters.k_sent in
              let completed = Atomic.get counters.k_completed in
              let late = Atomic.get counters.k_late in
              {
                Bench_json.lg_profile = p.Profile.p_id;
                lg_mode = Profile.mode_name p;
                lg_clients = n;
                lg_target_rps = Profile.target_rps p;
                lg_warmup_seconds = p.Profile.p_warmup_s;
                lg_window_seconds = window;
                lg_plan_cache = Profile.plan_cache_name p;
                lg_seed = p.Profile.p_seed;
                lg_sent = sent;
                lg_completed = completed;
                lg_errors = Atomic.get counters.k_errors;
                lg_overloaded = Atomic.get counters.k_overloaded;
                lg_late = late;
                lg_offered_rps = float_of_int (sent + late) /. window;
                lg_achieved_rps = float_of_int completed /. window;
                lg_latency = latency_views hists;
                lg_server = server;
              }))
    with
    | lg -> Ok lg
    | exception Fail msg -> Error msg

  let record ~argv lg =
    {
      Bench_json.r_git_rev = Bench_json.git_rev ();
      r_unix_time = Unix.time ();
      r_argv = argv;
      r_jobs = lg.Bench_json.lg_clients;
      r_executor = "loadgen";
      r_experiments = [];
      r_kind = "loadgen";
      r_loadgen = Some lg;
    }

  let summary_lines (lg : Bench_json.loadgen) =
    let q name v = Printf.sprintf "%s %.2fms" name (1000.0 *. v) in
    let all = Ab.all_latency lg in
    [
      Printf.sprintf "profile %s: %s loop, %d client(s), %s plan cache, seed %d"
        lg.Bench_json.lg_profile lg.Bench_json.lg_mode lg.Bench_json.lg_clients
        lg.Bench_json.lg_plan_cache lg.Bench_json.lg_seed;
      Printf.sprintf "window %.2fs: offered %.1f rps, achieved %.1f rps%s"
        lg.Bench_json.lg_window_seconds lg.Bench_json.lg_offered_rps
        lg.Bench_json.lg_achieved_rps
        (match lg.Bench_json.lg_target_rps with
        | None -> ""
        | Some r -> Printf.sprintf " (target %.1f rps)" r);
      Printf.sprintf "requests: sent %d, completed %d, errors %d, overloaded %d, late %d"
        lg.Bench_json.lg_sent lg.Bench_json.lg_completed lg.Bench_json.lg_errors
        lg.Bench_json.lg_overloaded lg.Bench_json.lg_late;
      Printf.sprintf "latency (all ops): %s  %s  %s"
        (q "p50" (Obs.quantile all 0.50))
        (q "p95" (Obs.quantile all 0.95))
        (q "p99" (Obs.quantile all 0.99));
    ]
end
