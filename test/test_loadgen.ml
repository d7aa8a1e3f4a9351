(* Loadgen subsystem tests: profile codec and validation, deterministic
   sampling (identical seeds → identical request streams), A/B regression
   detection semantics, and the closed/open-loop runner end-to-end
   against an in-process TCP server. *)

module Json = Uxsm_util.Json
module Locks = Uxsm_util.Locks
module Obs = Uxsm_obs.Obs
module Bench_json = Uxsm_obs.Bench_json
module Loadgen = Uxsm_server.Loadgen
module Profile = Loadgen.Profile
module Sampler = Loadgen.Sampler
module Ab = Loadgen.Ab
module Runner = Loadgen.Runner
module Server = Uxsm_server.Server
module Client = Uxsm_server.Client
module Protocol = Uxsm_server.Protocol

(* ------------------------------ profiles -------------------------- *)

let base_profile =
  {|{
    "id": "t",
    "corpora": [
      { "name": "a", "dataset": "D1" },
      { "name": "b", "dataset": "D2", "seed": 7 }
    ],
    "zipf_s": 1.0,
    "templates": [
      { "op": "query", "query": "Order//LineNo", "h": 5, "tau": 0.2, "weight": 2.0 },
      { "op": "query", "query": "Order/DeliverTo/Contact/EMail", "h": 5, "k": 3 },
      { "op": "mappings", "h": 5 },
      { "op": "ping", "weight": 0.5 }
    ],
    "arrival": { "mode": "closed", "clients": 2 },
    "warmup_seconds": 0.0,
    "duration_seconds": 1.0,
    "plan_cache": "warm",
    "seed": 11
  }|}

let profile_exn s =
  match Profile.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "profile rejected: %s" e

let test_profile_roundtrip () =
  let p = profile_exn base_profile in
  Alcotest.(check string) "id" "t" p.Profile.p_id;
  Alcotest.(check int) "clients" 2 (Profile.clients p);
  Alcotest.(check string) "mode" "closed" (Profile.mode_name p);
  Alcotest.(check string) "plan cache" "warm" (Profile.plan_cache_name p);
  Alcotest.(check bool) "no target rps in closed mode" true (Profile.target_rps p = None);
  Alcotest.(check (list string)) "distinct ops, sorted"
    [ "mappings"; "ping"; "query"; "query_topk" ] (Profile.ops p);
  (* A bare "query" template with a "k" lands on the topk endpoint. *)
  Alcotest.(check bool) "k forces query_topk" true
    (List.exists
       (fun t ->
         match t.Profile.t_draw with
         | Profile.Request (Protocol.Query { k = Some 3; _ } as req) ->
           Protocol.op_name req = "query_topk"
         | _ -> false)
       p.Profile.p_templates);
  (* Encode → decode restores the profile exactly. *)
  match Profile.of_json (Profile.to_json p) with
  | Error e -> Alcotest.failf "re-decode rejected: %s" e
  | Ok p' -> Alcotest.(check bool) "to_json/of_json round-trip" true (p = p')

let test_profile_validation () =
  let patch field value =
    match Json.of_string base_profile with
    | Error e -> Alcotest.failf "base profile JSON: %s" e
    | Ok (Json.Assoc fields) ->
      Json.to_string (Json.Assoc ((field, value) :: List.remove_assoc field fields))
    | Ok _ -> Alcotest.fail "base profile is not an object"
  in
  let rejected ?(says = "") what s =
    match Profile.of_string s with
    | Ok _ -> Alcotest.failf "%s: expected rejection" what
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error is descriptive (%s)" what e)
        true
        (String.length e > 10 && Test_server.contains ~needle:says e)
  in
  let template fields = patch "templates" (Json.List [ Json.Assoc fields ]) in
  let query = [ ("op", Json.String "query"); ("query", Json.String "A//B") ] in
  rejected "not json" "nonsense";
  rejected "empty id" (patch "id" (Json.String " "));
  rejected "no corpora" (patch "corpora" (Json.List []));
  rejected "duplicate corpus names"
    (patch "corpora"
       (Json.List
          [
            Json.Assoc [ ("name", Json.String "a"); ("dataset", Json.String "D1") ];
            Json.Assoc [ ("name", Json.String "a"); ("dataset", Json.String "D2") ];
          ]));
  rejected "unknown dataset"
    (patch "corpora"
       (Json.List [ Json.Assoc [ ("name", Json.String "a"); ("dataset", Json.String "D99") ] ]));
  rejected "no templates" (patch "templates" (Json.List []));
  rejected "unparseable pattern"
    (template [ ("op", Json.String "query"); ("query", Json.String "[[[") ]);
  rejected "query_topk without k"
    (template [ ("op", Json.String "query_topk"); ("query", Json.String "A//B") ]);
  rejected "zero total weight"
    (patch "templates"
       (Json.List
          [ Json.Assoc [ ("op", Json.String "ping"); ("weight", Json.Float 0.0) ] ]));
  (* Templates pass the server's own checks, with its messages. *)
  rejected "bad evaluator" ~says:{|query: field "evaluator" must be one of|}
    (template (query @ [ ("evaluator", Json.String "warp") ]));
  rejected "h over the protocol bound" ~says:{|query: field "h" must be <= 1000|}
    (template (query @ [ ("h", Json.Int 1001) ]));
  rejected "k over the protocol bound" ~says:{|query: field "k" must be <= 1000|}
    (template (query @ [ ("k", Json.Int 1001) ]));
  rejected "tau outside (0, 1]" ~says:{|query: field "tau" must be in (0, 1]|}
    (template (query @ [ ("tau", Json.Float 0.0) ]));
  rejected "barrier op" ~says:"shutdown" (template [ ("op", Json.String "shutdown") ]);
  rejected "bad arrival mode" (patch "arrival" (Json.Assoc [ ("mode", Json.String "burst") ]));
  rejected "open mode needs positive rps"
    (patch "arrival"
       (Json.Assoc [ ("mode", Json.String "open"); ("rps", Json.Float 0.0) ]));
  rejected "zero clients"
    (patch "arrival"
       (Json.Assoc [ ("mode", Json.String "closed"); ("clients", Json.Int 0) ]));
  rejected "bad plan_cache" (patch "plan_cache" (Json.String "lukewarm"));
  rejected "zero duration" (patch "duration_seconds" (Json.Float 0.0));
  rejected "negative warmup" (patch "warmup_seconds" (Json.Float (-1.0)))

let test_committed_profiles_load () =
  List.iter
    (fun (path, mode, cache) ->
      match Profile.load path with
      | Error e -> Alcotest.failf "%s rejected: %s" path e
      | Ok p ->
        Alcotest.(check string) (path ^ " mode") mode (Profile.mode_name p);
        Alcotest.(check string) (path ^ " plan cache") cache (Profile.plan_cache_name p))
    [
      ("../bench/profiles/smoke.json", "closed", "warm");
      ("../bench/profiles/open_mix.json", "open", "cold");
      ("../bench/profiles/update_mix.json", "closed", "warm");
    ]

(* ------------------------------ sampling -------------------------- *)

(* MD5 of the first 500 draws of every client stream of the committed
   profiles, in the order the runner takes them: for an open-loop profile
   the gap before each request (its float bits) and then the request;
   each request as the line the runner sends, ids counting from 1. *)
let traffic_pins =
  [
    ("smoke", [ "c4741b82e68b1b9ff037c9d52c178957"; "84859aac2e6b15bcdf3fc0dc1a84cd31" ]);
    ( "open_mix",
      [ "c914a6a82b5b9d63948cc3a8115305b3"; "2087c367f942b8cb6d0e28d88b16ed54";
        "bc6ae2acb099c5119e4065f8ebe8607b"; "29edd4782304b0df01c18a22653950ee" ] );
    ("update_mix", [ "fda43c72d8069d33c64d4494e930acaa"; "d33ca0eb71562a6d115fb6658468c9ba" ]);
  ]

(* What the runner reads before sampling: each corpus' match reply, here
   from an in-process server, when the profile has update templates. *)
let corrs_of (p : Profile.t) =
  if not (List.mem "update" (Profile.ops p)) then []
  else begin
    let srv = Server.create () in
    let send req =
      Server.handle_line srv (Json.to_string (Protocol.to_json { Protocol.id = None; req }))
    in
    List.map
      (fun c ->
        ignore (send c.Profile.c_register);
        match
          Result.bind (Json.of_string (send (Protocol.Match { corpus = c.Profile.c_name })))
            Sampler.correspondences
        with
        | Ok paths -> (c.Profile.c_name, paths)
        | Error e -> Alcotest.failf "%s: %s" c.Profile.c_name e)
      p.Profile.p_corpora
  end

let stream_digest p ~corrs stream =
  let s = Sampler.create ~stream ~corrs p in
  let buf = Buffer.create 65536 in
  let gap () =
    match Profile.target_rps p with
    | None -> ()
    | Some rps ->
      let rate = rps /. float_of_int (Profile.clients p) in
      Buffer.add_string buf (Int64.to_string (Int64.bits_of_float (Sampler.interarrival s ~rps:rate)))
  in
  for id = 1 to 500 do
    gap ();
    let line =
      Json.to_string (Protocol.to_json { Protocol.id = Some (Json.Int id); req = Sampler.next s })
    in
    Buffer.add_string buf line;
    Buffer.add_char buf '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_committed_traffic_pinned () =
  List.iter
    (fun (id, pins) ->
      match Profile.load (Printf.sprintf "../bench/profiles/%s.json" id) with
      | Error e -> Alcotest.failf "%s rejected: %s" id e
      | Ok p ->
        Alcotest.(check int) (id ^ " client streams") (List.length pins) (Profile.clients p);
        let corrs = corrs_of p in
        List.iteri
          (fun stream pin ->
            Alcotest.(check string) (Printf.sprintf "%s stream %d" id stream) pin
              (stream_digest p ~corrs stream))
          pins)
    traffic_pins

let encode req = Protocol.to_json { Protocol.id = None; req }

let test_sampler_deterministic () =
  let p = profile_exn base_profile in
  let draw stream n =
    let s = Sampler.create ~stream ~corrs:[] p in
    List.init n (fun _ ->
        let rq = Sampler.next s in
        (Json.to_string (encode rq), Sampler.interarrival s ~rps:50.0))
  in
  (* The satellite guarantee: equal (seed, stream) → equal request and
     inter-arrival streams, byte for byte. *)
  Alcotest.(check bool) "identical seeds give identical streams" true
    (draw 0 200 = draw 0 200);
  Alcotest.(check bool) "stream 1 reproducible too" true (draw 1 200 = draw 1 200);
  Alcotest.(check bool) "distinct streams diverge" false
    (List.map fst (draw 0 200) = List.map fst (draw 1 200));
  let reseeded =
    Profile.of_json
      (match Profile.to_json p with
      | Json.Assoc fields -> Json.Assoc (("seed", Json.Int 999) :: List.remove_assoc "seed" fields)
      | j -> j)
  in
  (match reseeded with
  | Ok p' ->
    let s' = Sampler.create ~stream:0 ~corrs:[] p' in
    let other = List.init 200 (fun _ -> Json.to_string (encode (Sampler.next s'))) in
    Alcotest.(check bool) "different seed diverges" false (List.map fst (draw 0 200) = other)
  | Error e -> Alcotest.failf "reseeded profile rejected: %s" e);
  List.iter
    (fun (_, gap) ->
      Alcotest.(check bool) "inter-arrival gaps are finite and non-negative" true
        (Float.is_finite gap && gap >= 0.0))
    (draw 0 200)

let test_sampler_zipf_popularity () =
  let p = profile_exn base_profile in
  let s = Sampler.create ~corrs:[] p in
  let counts = Hashtbl.create 4 in
  let total = 3000 in
  for _ = 1 to total do
    match Json.member "corpus" (encode (Sampler.next s)) with
    | Some (Json.String c) ->
      Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
    | _ -> ()
  done;
  let count c = Option.value ~default:0 (Hashtbl.find_opt counts c) in
  (* zipf_s = 1.0 over two corpora: rank 1 gets 2/3 of the corpus-targeted
     traffic in expectation. Loose bounds keep the test seed-robust. *)
  Alcotest.(check bool) "rank-1 corpus dominates" true (count "a" > count "b");
  Alcotest.(check bool) "rank-2 corpus still sampled" true (count "b" > 0);
  let ratio = float_of_int (count "a") /. float_of_int (max 1 (count "b")) in
  Alcotest.(check bool)
    (Printf.sprintf "ratio near 2 (got %.2f)" ratio)
    true
    (ratio > 1.4 && ratio < 2.8)

let test_sampler_request_shapes () =
  let p = profile_exn base_profile in
  let s = Sampler.create ~corrs:[] p in
  for _ = 1 to 100 do
    let rq = Sampler.next s in
    let body = encode rq in
    match Protocol.op_name rq with
    | "ping" -> Alcotest.(check bool) "ping has no corpus" true (Json.member "corpus" body = None)
    | "mappings" | "query" | "query_topk" -> (
      Alcotest.(check bool) "body names a profile corpus" true
        (List.mem (Json.member "corpus" body) [ Some (Json.String "a"); Some (Json.String "b") ]);
      match Protocol.op_name rq with
      | "query_topk" ->
        Alcotest.(check bool) "topk carries k" true (Json.member "k" body <> None)
      | _ -> ())
    | op -> Alcotest.failf "unexpected sampled op %S" op
  done

(* ------------------------------ A/B diff -------------------------- *)

let view_of samples =
  Obs.reset ();
  let h = Obs.histogram "test.loadgen.ab" in
  List.iter (Obs.observe h) samples;
  Obs.histogram_view h

let mk_lg ?(profile = "p") ?(mode = "closed") ?(sent = 1000) ?(errors = 0) ~rps ~latency () =
  {
    Bench_json.lg_profile = profile;
    lg_mode = mode;
    lg_clients = 2;
    lg_target_rps = None;
    lg_warmup_seconds = 0.0;
    lg_window_seconds = 1.0;
    lg_plan_cache = "warm";
    lg_seed = 1;
    lg_sent = sent;
    lg_completed = sent - errors;
    lg_errors = errors;
    lg_overloaded = 0;
    lg_late = 0;
    lg_offered_rps = rps;
    lg_achieved_rps = rps;
    lg_latency = [ ("all", latency) ];
    lg_server = [ ("server.requests", sent) ];
  }

let compare_exn ~tolerance a b =
  match Ab.compare_loadgen ~tolerance a b with
  | Ok r -> r
  | Error e -> Alcotest.failf "comparison refused: %s" e

let test_ab_pass_and_regress () =
  let lat = view_of [ 0.001; 0.002; 0.004; 0.008 ] in
  let a = mk_lg ~rps:100.0 ~latency:lat () in
  (* Identical records: all deltas are zero, nothing regresses. *)
  let r = compare_exn ~tolerance:0.10 a a in
  Alcotest.(check bool) "self-compare passes" false (Ab.regressed r);
  List.iter
    (fun m -> Alcotest.(check (float 1e-9)) (m.Ab.ab_metric ^ " delta") 0.0 m.Ab.ab_delta)
    r.Ab.ab_metrics;
  Alcotest.(check int) "five metrics" 5 (List.length r.Ab.ab_metrics);
  Alcotest.(check bool) "report renders one line per metric" true
    (List.length (Ab.report_lines r) = 6);
  (* Throughput drop beyond tolerance trips the gate... *)
  let slow = mk_lg ~rps:89.0 ~latency:lat () in
  Alcotest.(check bool) "11% throughput drop regresses" true
    (Ab.regressed (compare_exn ~tolerance:0.10 a slow));
  (* ...but a gain never does, whatever its size. *)
  let fast = mk_lg ~rps:250.0 ~latency:lat () in
  Alcotest.(check bool) "improvement passes" false
    (Ab.regressed (compare_exn ~tolerance:0.10 a fast));
  (* Latency inflation regresses even at equal throughput. *)
  let slow_lat = mk_lg ~rps:100.0 ~latency:(view_of [ 0.1; 0.2; 0.4; 0.8 ]) () in
  let r = compare_exn ~tolerance:0.10 a slow_lat in
  Alcotest.(check bool) "latency inflation regresses" true (Ab.regressed r);
  Alcotest.(check bool) "the latency metric is the one flagged" true
    (List.exists (fun m -> m.Ab.ab_worse && m.Ab.ab_metric = "latency_p95") r.Ab.ab_metrics);
  (* Error-rate growth compares as an absolute fraction. *)
  let errs = mk_lg ~errors:200 ~rps:100.0 ~latency:lat () in
  let r = compare_exn ~tolerance:0.10 a errs in
  Alcotest.(check bool) "20% error rate regresses" true (Ab.regressed r);
  Alcotest.(check bool) "error_rate flagged" true
    (List.exists (fun m -> m.Ab.ab_worse && m.Ab.ab_metric = "error_rate") r.Ab.ab_metrics)

let test_ab_tolerance_boundary () =
  let lat = view_of [ 0.001; 0.002 ] in
  let a = mk_lg ~rps:100.0 ~latency:lat () in
  (* Exactly at tolerance passes: the gate is strict-inequality. *)
  let at = mk_lg ~rps:90.0 ~latency:lat () in
  Alcotest.(check bool) "delta == tolerance passes" false
    (Ab.regressed (compare_exn ~tolerance:0.10 a at));
  let just_over = mk_lg ~rps:89.9 ~latency:lat () in
  Alcotest.(check bool) "delta just over tolerance fails" true
    (Ab.regressed (compare_exn ~tolerance:0.10 a just_over));
  (* Zero tolerance means any drop at all fails and equality passes. *)
  Alcotest.(check bool) "zero tolerance, equal records pass" false
    (Ab.regressed (compare_exn ~tolerance:0.0 a a));
  Alcotest.(check bool) "zero tolerance, tiny drop fails" true
    (Ab.regressed (compare_exn ~tolerance:0.0 a (mk_lg ~rps:99.9 ~latency:lat ())))

let test_ab_mismatch_rejected () =
  let lat = view_of [ 0.001 ] in
  let a = mk_lg ~profile:"alpha" ~rps:100.0 ~latency:lat () in
  let b = mk_lg ~profile:"beta" ~rps:100.0 ~latency:lat () in
  (match Ab.compare_loadgen ~tolerance:0.1 a b with
  | Ok _ -> Alcotest.fail "cross-profile comparison must be refused"
  | Error e -> Alcotest.(check bool) "error names both profiles" true
      (String.length e > 0));
  let open_b = mk_lg ~mode:"open" ~rps:100.0 ~latency:lat () in
  (match Ab.compare_loadgen ~tolerance:0.1 a { open_b with Bench_json.lg_profile = "alpha" } with
  | Ok _ -> Alcotest.fail "cross-mode comparison must be refused"
  | Error _ -> ());
  match Ab.compare_loadgen ~tolerance:(-0.5) a a with
  | Ok _ -> Alcotest.fail "negative tolerance must be refused"
  | Error _ -> ()

let test_ab_pick () =
  let lat = view_of [ 0.001 ] in
  let wrap lg = Runner.record ~argv:[] lg in
  let bench =
    {
      Bench_json.r_git_rev = "deadbee";
      r_unix_time = 0.0;
      r_argv = [];
      r_jobs = 1;
      r_executor = "seq";
      r_experiments = [];
      r_kind = "bench";
      r_loadgen = None;
    }
  in
  let runs =
    [
      bench;
      wrap (mk_lg ~profile:"alpha" ~rps:10.0 ~latency:lat ());
      wrap (mk_lg ~profile:"beta" ~rps:20.0 ~latency:lat ());
      wrap (mk_lg ~profile:"alpha" ~rps:30.0 ~latency:lat ());
    ]
  in
  (* The last loadgen record wins; bench records are invisible to pick. *)
  (match Ab.pick runs with
  | Ok lg -> Alcotest.(check string) "last record" "alpha" lg.Bench_json.lg_profile
  | Error e -> Alcotest.failf "pick failed: %s" e);
  (match Ab.pick ~profile:"alpha" runs with
  | Ok lg ->
    Alcotest.(check (float 1e-9)) "last alpha record" 30.0 lg.Bench_json.lg_achieved_rps
  | Error e -> Alcotest.failf "pick alpha failed: %s" e);
  (match Ab.pick ~profile:"beta" runs with
  | Ok lg -> Alcotest.(check (float 1e-9)) "beta record" 20.0 lg.Bench_json.lg_achieved_rps
  | Error e -> Alcotest.failf "pick beta failed: %s" e);
  (match Ab.pick ~profile:"ghost" runs with
  | Ok _ -> Alcotest.fail "unknown profile must not pick"
  | Error _ -> ());
  match Ab.pick [ bench ] with
  | Ok _ -> Alcotest.fail "bench-only file must not pick"
  | Error _ -> ()

(* ------------------------------- runner --------------------------- *)

let start_server () =
  let srv = Server.create ~cache_entries:16 () in
  let bound = ref [] in
  let m = Locks.create ~name:"test.loadgen.ready" ~rank:Locks.rank_latch in
  let cond = Locks.cond () in
  let th =
    Thread.create
      (fun () ->
        Server.serve
          ~ready:(fun endpoints ->
            Locks.lock m;
            bound := endpoints;
            Locks.signal cond;
            Locks.unlock m)
          srv
          [ Client.Tcp ("127.0.0.1", 0) ])
      ()
  in
  Locks.lock m;
  while !bound = [] do
    Locks.wait cond m
  done;
  Locks.unlock m;
  (srv, List.hd !bound, th)

let runner_profile arrival =
  Printf.sprintf
    {|{
      "id": "e2e",
      "corpora": [ { "name": "c1", "dataset": "D1" } ],
      "templates": [
        { "op": "query", "query": "Order//LineNo", "h": 5, "tau": 0.2, "weight": 2.0 },
        { "op": "mappings", "h": 5 },
        { "op": "update", "corrs": 2, "weight": 0.5 },
        { "op": "ping" }
      ],
      "arrival": %s,
      "warmup_seconds": 0.1,
      "duration_seconds": 0.4,
      "plan_cache": "warm",
      "seed": 3
    }|}
    arrival

let run_e2e arrival =
  let p = profile_exn (runner_profile arrival) in
  let srv, endpoint, th = start_server () in
  let result = Runner.run p endpoint in
  Server.request_stop srv;
  Thread.join th;
  match result with
  | Error e -> Alcotest.failf "runner failed: %s" e
  | Ok lg -> lg

let check_common lg =
  Alcotest.(check string) "profile id recorded" "e2e" lg.Bench_json.lg_profile;
  Alcotest.(check bool) "sent some traffic" true (lg.Bench_json.lg_sent > 0);
  Alcotest.(check bool) "all sends answered" true
    (lg.Bench_json.lg_completed = lg.Bench_json.lg_sent);
  Alcotest.(check int) "no errors" 0 lg.Bench_json.lg_errors;
  Alcotest.(check bool) "window measured" true (lg.Bench_json.lg_window_seconds > 0.0);
  Alcotest.(check bool) "achieved throughput positive" true
    (lg.Bench_json.lg_achieved_rps > 0.0);
  (match List.assoc_opt "all" lg.Bench_json.lg_latency with
  | None -> Alcotest.fail "no merged latency histogram"
  | Some v ->
    Alcotest.(check int) "every completion observed" lg.Bench_json.lg_completed
      v.Obs.hv_count);
  Alcotest.(check bool) "server window captured" true
    (List.mem_assoc "server.requests" lg.Bench_json.lg_server);
  (* The record wraps into a run that passes the validator's checks and
     survives the JSONL codec. *)
  let run = Runner.record ~argv:[ "test" ] lg in
  (match Bench_json.check_run run with
  | Ok () -> ()
  | Error e -> Alcotest.failf "emitted record fails validation: %s" e);
  match Bench_json.run_of_string (Bench_json.run_to_string run) with
  | Error e -> Alcotest.failf "emitted record does not round-trip: %s" e
  | Ok run' -> (
    Alcotest.(check string) "kind survives" "loadgen" run'.Bench_json.r_kind;
    match run'.Bench_json.r_loadgen with
    | None -> Alcotest.fail "loadgen payload lost in round-trip"
    | Some lg' ->
      Alcotest.(check int) "sent survives" lg.Bench_json.lg_sent lg'.Bench_json.lg_sent;
      let count =
        match List.assoc_opt "all" lg'.Bench_json.lg_latency with
        | Some v -> v.Obs.hv_count
        | None -> 0
      in
      Alcotest.(check int) "histogram count survives" lg.Bench_json.lg_completed count)

let test_runner_closed_loop () =
  let lg = run_e2e {|{ "mode": "closed", "clients": 2 }|} in
  Alcotest.(check string) "closed mode" "closed" lg.Bench_json.lg_mode;
  Alcotest.(check int) "two clients" 2 lg.Bench_json.lg_clients;
  Alcotest.(check int) "closed loop is never late" 0 lg.Bench_json.lg_late;
  check_common lg;
  (* A record never regresses against itself. *)
  match Ab.compare_loadgen ~tolerance:0.0 lg lg with
  | Ok r -> Alcotest.(check bool) "self-AB passes at zero tolerance" false (Ab.regressed r)
  | Error e -> Alcotest.failf "self-AB refused: %s" e

let test_runner_open_loop () =
  let lg =
    run_e2e {|{ "mode": "open", "rps": 80.0, "clients": 2, "max_lateness_seconds": 0.5 }|}
  in
  Alcotest.(check string) "open mode" "open" lg.Bench_json.lg_mode;
  Alcotest.(check bool) "target rps recorded" true
    (lg.Bench_json.lg_target_rps = Some 80.0);
  check_common lg;
  Alcotest.(check bool) "offered rate in the target's vicinity" true
    (lg.Bench_json.lg_offered_rps > 8.0 && lg.Bench_json.lg_offered_rps < 400.0)

let test_runner_connection_refused () =
  let p = profile_exn (runner_profile {|{ "mode": "closed", "clients": 1 }|}) in
  (* Port 1 on localhost: nothing listens there. *)
  match Runner.run p (Client.Tcp ("127.0.0.1", 1)) with
  | Ok _ -> Alcotest.fail "connecting to a dead port must fail"
  | Error e -> Alcotest.(check bool) "error mentions the failure" true (String.length e > 0)

let suite =
  [
    Alcotest.test_case "profile JSON round-trip" `Quick test_profile_roundtrip;
    Alcotest.test_case "profile validation names bad fields" `Quick test_profile_validation;
    Alcotest.test_case "committed profiles load" `Quick test_committed_profiles_load;
    Alcotest.test_case "committed profiles' traffic pinned" `Quick test_committed_traffic_pinned;
    Alcotest.test_case "sampler: equal seeds, equal streams" `Quick test_sampler_deterministic;
    Alcotest.test_case "sampler: zipfian corpus popularity" `Quick test_sampler_zipf_popularity;
    Alcotest.test_case "sampler: request shapes" `Quick test_sampler_request_shapes;
    Alcotest.test_case "ab: pass and regression detection" `Quick test_ab_pass_and_regress;
    Alcotest.test_case "ab: tolerance boundary is strict" `Quick test_ab_tolerance_boundary;
    Alcotest.test_case "ab: mismatched records refused" `Quick test_ab_mismatch_rejected;
    Alcotest.test_case "ab: pick finds the last matching record" `Quick test_ab_pick;
    Alcotest.test_case "runner: closed loop end-to-end" `Quick test_runner_closed_loop;
    Alcotest.test_case "runner: open loop end-to-end" `Quick test_runner_open_loop;
    Alcotest.test_case "runner: connection failure is an error" `Quick
      test_runner_connection_refused;
  ]
