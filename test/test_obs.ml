(* Tests for the observability layer: Obs counters/spans, the Json
   emitter/parser, and the Bench_json record round-trip the bench harness
   relies on. Obs state is process-global, so every test starts from
   [Obs.reset]. *)

module Obs = Uxsm_obs.Obs
module Bench_json = Uxsm_obs.Bench_json
module Json = Uxsm_util.Json

let test_counter_basics () =
  Obs.reset ();
  let c = Obs.counter "test.basics" in
  Alcotest.(check int) "starts at zero" 0 (Obs.value c);
  Obs.incr c;
  Obs.incr c;
  Obs.add c 5;
  Alcotest.(check int) "incr and add accumulate" 7 (Obs.value c);
  Alcotest.(check string) "name" "test.basics" (Obs.name c);
  let c' = Obs.counter "test.basics" in
  Obs.incr c';
  Alcotest.(check int) "same name aliases the same cell" 8 (Obs.value c)

let test_counter_monotone () =
  Obs.reset ();
  let c = Obs.counter "test.monotone" in
  let last = ref (Obs.value c) in
  for i = 0 to 19 do
    if i mod 3 = 0 then Obs.incr c else Obs.add c i;
    let v = Obs.value c in
    Alcotest.(check bool) "never decreases" true (v >= !last);
    last := v
  done;
  Alcotest.check_raises "add rejects negatives"
    (Invalid_argument "Obs.add: counters only count up") (fun () -> Obs.add c (-1))

let test_reset () =
  Obs.reset ();
  let c = Obs.counter "test.reset" in
  let s = Obs.span "test.reset_span" in
  Obs.add c 42;
  ignore (Obs.time s (fun () -> 1 + 1));
  Obs.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Obs.value c);
  Alcotest.(check int) "span count zeroed" 0 (Obs.span_count s);
  Alcotest.(check (float 0.0)) "span seconds zeroed" 0.0 (Obs.span_seconds s);
  Alcotest.(check bool) "registration survives reset" true
    (List.mem_assoc "test.reset" (Obs.counters ()))

(* Regression: a reset issued inside an active [time] used to zero the
   span's re-entrancy depth, so the matching [finish] drove the depth
   negative — the span then never accumulated seconds again, and counts
   were attributed to a broken state. Reset must leave the in-flight
   activation intact and only restart its clock. *)
let test_reset_inside_active_span () =
  Obs.reset ();
  let s = Obs.span "test.reset_mid_span" in
  Obs.time s (fun () -> Obs.reset ());
  Alcotest.(check int) "the interrupted activation still completes" 1 (Obs.span_count s);
  Alcotest.(check bool) "its duration is non-negative" true (Obs.span_seconds s >= 0.0);
  (* The span must keep working after the mid-span reset: a fresh [time]
     both counts and accumulates time. *)
  Obs.time s (fun () -> ignore (Sys.opaque_identity (Array.init 10000 Fun.id)));
  Alcotest.(check int) "subsequent activations count" 2 (Obs.span_count s);
  Alcotest.(check bool) "subsequent activations accumulate time" true
    (Obs.span_seconds s > 0.0);
  (* Nested variant: reset fires between the outer and inner activations of
     a recursive span; the outer finish must still see a sane depth. *)
  Obs.reset ();
  Obs.time s (fun () ->
      Obs.reset ();
      Obs.time s (fun () -> ()));
  Alcotest.(check int) "both activations complete after nested reset" 2 (Obs.span_count s);
  Obs.time s (fun () -> ());
  Alcotest.(check int) "depth is back to zero (outermost activations count)" 3
    (Obs.span_count s)

let test_nested_spans () =
  Obs.reset ();
  let outer = Obs.span "test.outer" in
  let inner = Obs.span "test.inner" in
  let x =
    Obs.time outer (fun () ->
        Obs.time inner (fun () -> ignore (Sys.opaque_identity (Array.init 1000 Fun.id)));
        17)
  in
  Alcotest.(check int) "result passes through" 17 x;
  Alcotest.(check int) "outer counted" 1 (Obs.span_count outer);
  Alcotest.(check int) "inner counted" 1 (Obs.span_count inner);
  Alcotest.(check bool) "outer covers inner" true
    (Obs.span_seconds outer >= Obs.span_seconds inner);
  (* Re-entering the same span recursively must not double-count time. *)
  let s = Obs.span "test.recursive" in
  let rec go n = Obs.time s (fun () -> if n > 0 then go (n - 1)) in
  go 4;
  Alcotest.(check int) "every entry counted" 5 (Obs.span_count s);
  Alcotest.(check bool) "recursive time attributed once (not 5x the wall time)" true
    (Obs.span_seconds outer +. Obs.span_seconds s < 10.0);
  (* An exception still closes the span. *)
  (try Obs.time s (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "exceptional exit counted" 6 (Obs.span_count s)

let test_snapshot_determinism () =
  Obs.reset ();
  Obs.add (Obs.counter "test.b") 2;
  Obs.add (Obs.counter "test.a") 1;
  Obs.add (Obs.counter "test.c") 0;
  let names l = List.map fst l in
  let snap1 = Obs.snapshot () in
  let snap2 = Obs.snapshot () in
  Alcotest.(check bool) "snapshots of unchanged state are equal" true (snap1 = snap2);
  Alcotest.(check (list string))
    "counters sorted by name"
    (List.sort String.compare (names snap1.Obs.snap_counters))
    (names snap1.Obs.snap_counters);
  let nz = Obs.nonzero snap1 in
  Alcotest.(check bool) "nonzero drops zero counters" true
    (not (List.mem_assoc "test.c" nz.Obs.snap_counters));
  Alcotest.(check bool) "nonzero keeps live counters" true
    (List.mem_assoc "test.a" nz.Obs.snap_counters)

(* ----------------------------- histograms ------------------------- *)

let test_histogram_basics () =
  Obs.reset ();
  let h = Obs.histogram "test.hist" in
  Alcotest.(check int) "starts empty" 0 (Obs.histogram_count h);
  Alcotest.(check string) "name" "test.hist" (Obs.histogram_name h);
  List.iter (Obs.observe h) [ 0.001; 0.002; 0.004; 0.008; 0.1; 2.0 ];
  Alcotest.(check int) "six observations" 6 (Obs.histogram_count h);
  let v = Obs.histogram_view h in
  Alcotest.(check int) "view count" 6 v.Obs.hv_count;
  Alcotest.(check (float 1e-9)) "view sum" 2.115 v.Obs.hv_sum;
  let total_bucketed =
    List.fold_left (fun acc (_, c) -> acc + c) v.Obs.hv_overflow v.Obs.hv_buckets
  in
  Alcotest.(check int) "every observation landed in a bucket" 6 total_bucketed;
  Alcotest.(check int) "nothing overflowed" 0 v.Obs.hv_overflow;
  (* Same name aliases the same cell, like counters. *)
  Obs.observe (Obs.histogram "test.hist") 0.5;
  Alcotest.(check int) "aliased observe lands" 7 (Obs.histogram_count h)

let test_histogram_quantiles () =
  Obs.reset ();
  let h = Obs.histogram "test.quant" in
  Alcotest.(check (float 0.0)) "empty histogram quantile is 0" 0.0
    (Obs.quantile (Obs.histogram_view h) 0.5);
  (* 90 fast observations and 10 slow ones: the median must sit near the
     fast mass and p99 near the slow mass, with quantiles monotone in q. *)
  for _ = 1 to 90 do Obs.observe h 0.001 done;
  for _ = 1 to 10 do Obs.observe h 1.0 done;
  let v = Obs.histogram_view h in
  let p50 = Obs.quantile v 0.50 in
  let p95 = Obs.quantile v 0.95 in
  let p99 = Obs.quantile v 0.99 in
  Alcotest.(check bool) "p50 <= p95" true (p50 <= p95);
  Alcotest.(check bool) "p95 <= p99" true (p95 <= p99);
  Alcotest.(check bool) "p50 near the fast mass" true (p50 < 0.01);
  Alcotest.(check bool) "p99 near the slow mass" true (p99 > 0.25);
  (* q is clamped, not rejected. *)
  Alcotest.(check bool) "q clamps low" true (Obs.quantile v (-1.0) <= p50);
  Alcotest.(check bool) "q clamps high" true (Obs.quantile v 2.0 >= p99);
  (* Out-of-range observations land in the overflow bucket and keep the
     top quantile finite. *)
  let o = Obs.histogram "test.quant_over" in
  Obs.observe o 1e9;
  let ov = Obs.histogram_view o in
  Alcotest.(check int) "overflow recorded" 1 ov.Obs.hv_overflow;
  let top = Obs.quantile ov 1.0 in
  Alcotest.(check bool) "overflow quantile is finite" true (Float.is_finite top)

let test_histogram_merge () =
  Obs.reset ();
  let a = Obs.histogram "test.merge_a" in
  let b = Obs.histogram "test.merge_b" in
  for _ = 1 to 40 do Obs.observe a 0.002 done;
  for _ = 1 to 60 do Obs.observe b 0.5 done;
  Obs.observe b 1e9;
  let va = Obs.histogram_view a and vb = Obs.histogram_view b in
  let m = Obs.merge_views va vb in
  Alcotest.(check int) "merged count" 101 m.Obs.hv_count;
  Alcotest.(check (float 1e-6)) "merged sum" (va.Obs.hv_sum +. vb.Obs.hv_sum) m.Obs.hv_sum;
  Alcotest.(check int) "merged overflow" 1 m.Obs.hv_overflow;
  (* The merged quantiles reflect the combined distribution: the median
     falls between the two component medians. *)
  let qm = Obs.quantile m 0.5 in
  Alcotest.(check bool) "merged median between component masses" true
    (qm >= Obs.quantile va 0.5 && qm <= Obs.quantile vb 0.5);
  (* Merge is commutative. *)
  let m' = Obs.merge_views vb va in
  Alcotest.(check bool) "commutative" true (m = m')

let test_histogram_concurrent_observe () =
  Obs.reset ();
  let h = Obs.histogram "test.hist_par" in
  let per_domain = 10_000 in
  let worker seed () =
    for i = 1 to per_domain do
      (* Spread observations across several buckets deterministically. *)
      Obs.observe h (0.001 *. float_of_int (1 + ((i + seed) mod 7)))
    done
  in
  let domains = List.init 4 (fun s -> Domain.spawn (worker s)) in
  List.iter Domain.join domains;
  let v = Obs.histogram_view h in
  Alcotest.(check int) "no observation lost across domains" (4 * per_domain)
    v.Obs.hv_count;
  let bucketed =
    List.fold_left (fun acc (_, c) -> acc + c) v.Obs.hv_overflow v.Obs.hv_buckets
  in
  Alcotest.(check int) "bucket totals agree with count" (4 * per_domain) bucketed

let test_histogram_reset_and_listing () =
  Obs.reset ();
  let h = Obs.histogram "test.hist_reset" in
  Obs.observe h 0.25;
  Alcotest.(check bool) "listed with data" true
    (match List.assoc_opt "test.hist_reset" (Obs.histograms ()) with
    | Some v -> v.Obs.hv_count = 1
    | None -> false);
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "snapshot carries histograms" true
    (List.mem_assoc "test.hist_reset" snap.Obs.snap_histograms);
  Alcotest.(check bool) "nonzero keeps populated histograms" true
    (List.mem_assoc "test.hist_reset" (Obs.nonzero snap).Obs.snap_histograms);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes observations" 0 (Obs.histogram_count h);
  let v = Obs.histogram_view h in
  Alcotest.(check (float 0.0)) "reset zeroes the sum" 0.0 v.Obs.hv_sum;
  Alcotest.(check bool) "registration survives reset" true
    (List.mem_assoc "test.hist_reset" (Obs.histograms ()));
  Alcotest.(check bool) "nonzero drops empty histograms" true
    (not (List.mem_assoc "test.hist_reset" (Obs.nonzero (Obs.snapshot ())).Obs.snap_histograms))

(* ------------------------------- Json ----------------------------- *)

let rec json_equal a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Float.equal x y
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Assoc xs, Json.Assoc ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2) xs ys
  | a, b -> a = b

let check_roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' ->
    Alcotest.(check bool) (Printf.sprintf "round-trip %s" (Json.to_string v)) true
      (json_equal v v')
  | Error e -> Alcotest.failf "parse of emitted %s failed: %s" (Json.to_string v) e

let test_json_roundtrip () =
  List.iter check_roundtrip
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.25;
      Json.Float 1e-9;
      Json.Float 27.927233934402466;
      Json.Float (-1.5e300);
      Json.String "plain";
      Json.String "esc \"quotes\" \\ back\n tab\t and \x01 control";
      Json.List [];
      Json.Assoc [];
      Json.List [ Json.Int 1; Json.Null; Json.String "x" ];
      Json.Assoc
        [
          ("a", Json.Int 1);
          ("nested", Json.Assoc [ ("l", Json.List [ Json.Float 3.5 ]) ]);
        ];
    ]

let test_json_parse_cases () =
  let ok text expect =
    match Json.of_string text with
    | Ok v -> Alcotest.(check bool) (Printf.sprintf "parse %s" text) true (json_equal expect v)
    | Error e -> Alcotest.failf "parse %s failed: %s" text e
  in
  ok "  [1, 2.5, \"a\\u0041b\"]  "
    (Json.List [ Json.Int 1; Json.Float 2.5; Json.String "aAb" ]);
  ok "{\"k\" : null}" (Json.Assoc [ ("k", Json.Null) ]);
  ok "-3e2" (Json.Float (-300.0));
  let bad text =
    match Json.of_string text with
    | Ok _ -> Alcotest.failf "expected failure on %s" text
    | Error _ -> ()
  in
  List.iter bad [ ""; "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\":}"; "nan" ]

(* The float policy [Json.to_string] has always had, spelled with
   [Printf]: integral values below 1e16 as "%.1f", other finite values as
   "%.15g" when that reads back and as "%.17g" otherwise, and null for
   NaN and the infinities. The emitter must print the same bytes. *)
let printf_float_literal f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Whole 64-bit patterns cover every sign and exponent, NaN and the
   infinities, but seldom a subnormal or an integral value; those are
   drawn on their own: subnormals as patterns with a zero exponent, small
   integers, and integral values from 1e16 up. *)
let prop_json_float_literal =
  let open QCheck.Gen in
  let gen =
    oneof
      [
        map Int64.float_of_bits int64;
        map (fun b -> Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL)) int64;
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map2
          (fun k e -> Float.ldexp (1e16 +. float_of_int k) e)
          (int_range (-1_000_000) 1_000_000_000) (int_range 0 900);
      ]
  in
  QCheck.Test.make ~count:2000 ~name:"Json float literal = Printf policy"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f -> Json.to_string (Json.Float f) = printf_float_literal f)

(* ----------------------------- Bench_json ------------------------- *)

let sample_run () =
  Obs.reset ();
  Obs.add (Obs.counter "test.bench_counter") 9;
  ignore (Obs.time (Obs.span "test.bench_span") (fun () -> ()));
  List.iter (Obs.observe (Obs.histogram "test.bench_hist")) [ 0.001; 0.1; 1e9 ];
  let e1 =
    Bench_json.experiment
      ~params:[ ("h", Json.Int 100); ("taus", Json.List [ Json.Float 0.2 ]) ]
      ~measurements:
        [
          { Bench_json.m_name = "q1-basic"; m_seconds_per_run = 0.0123 };
          { Bench_json.m_name = "q1-tree"; m_seconds_per_run = 0.0045 };
        ]
      ~snapshot:(Obs.snapshot ()) ~id:"fig9f" ~title:"PTQ time" ~wall_seconds:1.5 ()
  in
  let e2 = Bench_json.experiment ~id:"table2" ~title:"datasets" ~wall_seconds:0.25 () in
  {
    Bench_json.r_git_rev = "abc1234";
    r_unix_time = 1786000000.0;
    r_argv = [ "--json"; "out.json"; "fig9f"; "table2" ];
    r_jobs = 4;
    r_executor = "domains";
    r_experiments = [ e1; e2 ];
    r_kind = "bench";
    r_loadgen = None;
  }

let test_bench_json_roundtrip () =
  let run = sample_run () in
  let line = Bench_json.run_to_string run in
  (match Json.of_string line with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "emitted record is not valid JSON: %s" e);
  match Bench_json.run_of_string line with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok run' ->
    Alcotest.(check string) "git rev" run.Bench_json.r_git_rev run'.Bench_json.r_git_rev;
    Alcotest.(check (list string)) "argv" run.Bench_json.r_argv run'.Bench_json.r_argv;
    Alcotest.(check int) "jobs" run.Bench_json.r_jobs run'.Bench_json.r_jobs;
    Alcotest.(check string) "executor" run.Bench_json.r_executor run'.Bench_json.r_executor;
    Alcotest.(check (list string))
      "every emitted experiment id survives"
      (List.map (fun e -> e.Bench_json.e_id) run.Bench_json.r_experiments)
      (List.map (fun e -> e.Bench_json.e_id) run'.Bench_json.r_experiments);
    let e1 = List.hd run.Bench_json.r_experiments in
    let e1' = List.hd run'.Bench_json.r_experiments in
    Alcotest.(check bool) "counters survive" true
      (e1.Bench_json.e_counters = e1'.Bench_json.e_counters);
    Alcotest.(check bool) "measurements survive" true
      (e1.Bench_json.e_measurements = e1'.Bench_json.e_measurements);
    Alcotest.(check bool) "spans survive" true (e1.Bench_json.e_spans = e1'.Bench_json.e_spans);
    Alcotest.(check bool) "params survive" true
      (List.map fst e1.Bench_json.e_params = List.map fst e1'.Bench_json.e_params);
    Alcotest.(check bool) "histograms survive (counts, buckets, overflow)" true
      (e1.Bench_json.e_histograms <> []
      && List.for_all2
           (fun (n, v) (n', v') ->
             n = n'
             && v.Obs.hv_count = v'.Obs.hv_count
             && v.Obs.hv_overflow = v'.Obs.hv_overflow
             && List.map fst v.Obs.hv_buckets = List.map fst v'.Obs.hv_buckets)
           e1.Bench_json.e_histograms e1'.Bench_json.e_histograms);
    (* An experiment with no histogram traffic keeps the pre-histogram
       record shape: the field is absent, not an empty list. *)
    let e2_json =
      List.find
        (fun j -> Json.member "id" j = Some (Json.String "table2"))
        (match Json.of_string line with
        | Ok j -> (
          match Json.member "experiments" j with
          | Some (Json.List es) -> es
          | _ -> [])
        | Error _ -> [])
    in
    Alcotest.(check bool) "empty histograms field omitted from the record" true
      (Json.member "histograms" e2_json = None)

(* Records written before the executor fields existed must keep parsing,
   with the only configuration they could have used. *)
let test_bench_json_old_shape () =
  let line =
    {|{"git_rev": "abc1234", "unix_time": 1786000000, "argv": ["table2"], "experiments": []}|}
  in
  (match Bench_json.run_of_string line with
  | Error e -> Alcotest.failf "old-shape record must keep parsing: %s" e
  | Ok r ->
    Alcotest.(check string) "rev survives" "abc1234" r.Bench_json.r_git_rev;
    Alcotest.(check int) "jobs defaults to 1" 1 r.Bench_json.r_jobs;
    Alcotest.(check string) "executor defaults to sequential" "sequential"
      r.Bench_json.r_executor);
  (* Present-but-mistyped executor fields are an error, not a default. *)
  (match
     Bench_json.run_of_string
       {|{"git_rev": "x", "unix_time": 0, "argv": [], "jobs": "four", "experiments": []}|}
   with
  | Ok _ -> Alcotest.fail "mistyped jobs field must not parse"
  | Error _ -> ());
  (* The committed pre-executor baseline is the real backward-compat
     fixture: it must parse and read as a sequential run. *)
  let ic = open_in "../BENCH_baseline.json" in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  match Bench_json.runs_of_lines content with
  | Error e -> Alcotest.failf "BENCH_baseline.json no longer parses: %s" e
  | Ok runs ->
    Alcotest.(check bool) "baseline has runs" true (runs <> []);
    List.iter
      (fun r ->
        Alcotest.(check int) "baseline ran sequentially" 1 r.Bench_json.r_jobs;
        Alcotest.(check string) "baseline backend" "sequential" r.Bench_json.r_executor)
      runs

let test_bench_json_file_append () =
  let path = Filename.temp_file "uxsm_bench" ".json" in
  let run = sample_run () in
  Bench_json.append_to_file ~path run;
  Bench_json.append_to_file ~path { run with Bench_json.r_git_rev = "def5678" };
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  match Bench_json.runs_of_lines content with
  | Error e -> Alcotest.failf "JSONL file did not parse: %s" e
  | Ok runs ->
    Alcotest.(check int) "two appended runs" 2 (List.length runs);
    Alcotest.(check (list string))
      "revisions in order" [ "abc1234"; "def5678" ]
      (List.map (fun r -> r.Bench_json.r_git_rev) runs);
    let ids =
      List.concat_map
        (fun r -> List.map (fun e -> e.Bench_json.e_id) r.Bench_json.r_experiments)
        runs
    in
    List.iter
      (fun id -> Alcotest.(check bool) (id ^ " present") true (List.mem id ids))
      [ "fig9f"; "table2" ]

let test_bench_jsonl_error_location () =
  let good = Bench_json.run_to_string (sample_run ()) in
  (* A record with a mistyped field fails with its line number (counting
     raw file lines, blanks included) and the offending field. *)
  let content =
    String.concat "\n"
      [ good; ""; {|{"git_rev": "x", "unix_time": 0, "argv": [], "jobs": "four", "executor": "s", "experiments": []}|}; good ]
  in
  (match Bench_json.runs_of_lines content with
  | Ok _ -> Alcotest.fail "mistyped record must not parse"
  | Error e ->
    Alcotest.(check bool) ("line number reported: " ^ e) true
      (String.length e >= 7 && String.sub e 0 7 = "line 3:");
    Alcotest.(check bool) ("offending field named: " ^ e) true
      (let needle = "\"jobs\"" in
       let rec mem i =
         i + String.length needle <= String.length e
         && (String.sub e i (String.length needle) = needle || mem (i + 1))
       in
       mem 0));
  (* Unparseable JSON is located the same way. *)
  match Bench_json.runs_of_lines (good ^ "\nnot json at all\n") with
  | Ok _ -> Alcotest.fail "garbage line must not parse"
  | Error e ->
    Alcotest.(check bool) ("line number reported: " ^ e) true
      (String.length e >= 7 && String.sub e 0 7 = "line 2:")

let sample_loadgen () =
  Obs.reset ();
  let h = Obs.histogram "test.loadgen_lat" in
  List.iter (Obs.observe h) [ 0.0012; 0.0034; 0.0100; 0.0450 ];
  {
    Bench_json.lg_profile = "smoke";
    lg_mode = "open";
    lg_clients = 4;
    lg_target_rps = Some 40.0;
    lg_warmup_seconds = 1.0;
    lg_window_seconds = 5.002;
    lg_plan_cache = "cold";
    lg_seed = 42;
    lg_sent = 198;
    lg_completed = 195;
    lg_errors = 2;
    lg_overloaded = 1;
    lg_late = 3;
    lg_offered_rps = 40.2;
    lg_achieved_rps = 38.99;
    lg_latency = [ ("all", Obs.histogram_view h) ];
    lg_server = [ ("server.requests", 195); ("server.errors", 0) ];
  }

let test_bench_json_loadgen_record () =
  let lg = sample_loadgen () in
  let run =
    {
      (sample_run ()) with
      Bench_json.r_kind = "loadgen";
      r_executor = "loadgen";
      r_experiments = [];
      r_loadgen = Some lg;
    }
  in
  (match Bench_json.check_run run with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid loadgen record rejected: %s" e);
  (match Bench_json.run_of_string (Bench_json.run_to_string run) with
  | Error e -> Alcotest.failf "loadgen record round-trip failed: %s" e
  | Ok run' -> (
    Alcotest.(check string) "kind survives" "loadgen" run'.Bench_json.r_kind;
    match run'.Bench_json.r_loadgen with
    | None -> Alcotest.fail "payload lost"
    | Some lg' ->
      Alcotest.(check string) "profile" "smoke" lg'.Bench_json.lg_profile;
      Alcotest.(check bool) "target rps survives" true
        (lg'.Bench_json.lg_target_rps = Some 40.0);
      Alcotest.(check int) "late count" 3 lg'.Bench_json.lg_late;
      Alcotest.(check bool) "histogram survives intact" true
        (lg'.Bench_json.lg_latency = lg.Bench_json.lg_latency);
      Alcotest.(check bool) "server counters survive" true
        (lg'.Bench_json.lg_server = lg.Bench_json.lg_server)));
  (* Bench-kind records do not even mention the new fields on the wire:
     files written before this record kind existed stay byte-stable. *)
  let bench_line = Bench_json.run_to_string (sample_run ()) in
  List.iter
    (fun needle ->
      let rec mem i =
        i + String.length needle <= String.length bench_line
        && (String.sub bench_line i (String.length needle) = needle || mem (i + 1))
      in
      Alcotest.(check bool) (needle ^ " absent from bench records") false (mem 0))
    [ "\"kind\""; "\"loadgen\"" ]

let test_bench_json_check_run_invariants () =
  let lg = sample_loadgen () in
  let run = sample_run () in
  let rejected what r =
    match Bench_json.check_run r with
    | Ok () -> Alcotest.failf "%s: expected rejection" what
    | Error _ -> ()
  in
  (match Bench_json.check_run run with
  | Ok () -> ()
  | Error e -> Alcotest.failf "plain bench record rejected: %s" e);
  rejected "loadgen kind without payload" { run with Bench_json.r_kind = "loadgen" };
  rejected "bench kind with payload" { run with Bench_json.r_loadgen = Some lg };
  rejected "unknown kind" { run with Bench_json.r_kind = "mystery" };
  let lg_run payload =
    { run with Bench_json.r_kind = "loadgen"; r_loadgen = Some payload }
  in
  rejected "empty profile id" (lg_run { lg with Bench_json.lg_profile = "" });
  rejected "unknown mode" (lg_run { lg with Bench_json.lg_mode = "burst" });
  rejected "unknown plan cache" (lg_run { lg with Bench_json.lg_plan_cache = "tepid" });
  rejected "zero clients" (lg_run { lg with Bench_json.lg_clients = 0 });
  rejected "negative errors" (lg_run { lg with Bench_json.lg_errors = -1 });
  rejected "completed exceeds sent" (lg_run { lg with Bench_json.lg_completed = 999 });
  rejected "non-positive window" (lg_run { lg with Bench_json.lg_window_seconds = 0.0 });
  rejected "negative throughput" (lg_run { lg with Bench_json.lg_achieved_rps = -1.0 });
  rejected "non-positive target rps" (lg_run { lg with Bench_json.lg_target_rps = Some 0.0 });
  let bad_hist =
    { Obs.hv_count = -1; hv_sum = 0.0; hv_buckets = []; hv_overflow = 0 }
  in
  rejected "negative histogram count"
    (lg_run { lg with Bench_json.lg_latency = [ ("all", bad_hist) ] });
  let too_many =
    {
      Obs.hv_count = 50;
      hv_sum = 1.0;
      hv_buckets = List.init 50 (fun i -> (float_of_int (i + 1), 1));
      hv_overflow = 0;
    }
  in
  rejected "histogram bucket arity"
    (lg_run { lg with Bench_json.lg_latency = [ ("all", too_many) ] });
  (* Figure 10(e): every dataset's partitioned top-h must beat Murty's. *)
  let fig10e timings =
    {
      run with
      Bench_json.r_experiments =
        [
          Bench_json.experiment ~id:"fig10e" ~title:"Tg per dataset" ~wall_seconds:1.0
            ~measurements:
              (List.map
                 (fun (m_name, m_seconds_per_run) -> { Bench_json.m_name; m_seconds_per_run })
                 timings)
            ();
        ];
    }
  in
  (match Bench_json.check_run (fig10e [ ("D1-murty", 0.004); ("D1-partition", 0.001) ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fig10e record with partition winning rejected: %s" e);
  rejected "fig10e partition slower than murty"
    (fig10e
       [ ("D1-murty", 0.004); ("D1-partition", 0.001); ("D2-murty", 0.002); ("D2-partition", 0.003) ])

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counter monotonicity" `Quick test_counter_monotone;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "reset inside an active span" `Quick test_reset_inside_active_span;
    Alcotest.test_case "nested spans" `Quick test_nested_spans;
    Alcotest.test_case "snapshot determinism" `Quick test_snapshot_determinism;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram concurrent observe" `Quick test_histogram_concurrent_observe;
    Alcotest.test_case "histogram reset and listing" `Quick test_histogram_reset_and_listing;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse cases" `Quick test_json_parse_cases;
    QCheck_alcotest.to_alcotest prop_json_float_literal;
    Alcotest.test_case "bench record round-trip" `Quick test_bench_json_roundtrip;
    Alcotest.test_case "bench record pre-executor shape" `Quick test_bench_json_old_shape;
    Alcotest.test_case "bench JSONL append + parse" `Quick test_bench_json_file_append;
    Alcotest.test_case "loadgen record kind round-trip" `Quick test_bench_json_loadgen_record;
    Alcotest.test_case "check_run invariants" `Quick test_bench_json_check_run_invariants;
    Alcotest.test_case "bench JSONL error location" `Quick test_bench_jsonl_error_location;
  ]
