(* Tests for the execution layer: Executor semantics (ordering, nesting,
   exceptions), domain-safety of the Obs sinks under parallel fan-out, and
   the differential property of the one parallelized site — the Domains
   backend returns bit-identical matcher scores to Sequential. *)

module Executor = Uxsm_exec.Executor
module Obs = Uxsm_obs.Obs
module Schema = Uxsm_schema.Schema
module Matching = Uxsm_mapping.Matching
module Mapping_set = Uxsm_mapping.Mapping_set
module Block_tree = Uxsm_blocktree.Block_tree
module Coma = Uxsm_matcher.Coma
module Ptq = Uxsm_ptq.Ptq

let par = Executor.domains 3

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------- Executor semantics --------------------- *)

let test_construction () =
  Alcotest.(check int) "sequential is one job" 1 (Executor.jobs Executor.sequential);
  Alcotest.(check int) "domains carries its size" 4 (Executor.jobs (Executor.domains 4));
  Alcotest.(check string) "sequential name" "sequential"
    (Executor.backend_name Executor.sequential);
  Alcotest.(check string) "domains name" "domains" (Executor.backend_name (Executor.domains 2));
  Alcotest.(check bool) "of_jobs 1 is sequential" false
    (Executor.is_parallel (Executor.of_jobs 1));
  Alcotest.(check bool) "of_jobs 4 is parallel" true (Executor.is_parallel (Executor.of_jobs 4));
  Alcotest.(check bool) "domains 1 never spawns" false (Executor.is_parallel (Executor.domains 1));
  Alcotest.check_raises "of_jobs rejects zero"
    (Invalid_argument "Executor.of_jobs: jobs must be >= 1") (fun () ->
      ignore (Executor.of_jobs 0));
  Alcotest.check_raises "domains rejects zero"
    (Invalid_argument "Executor.domains: pool size must be >= 1") (fun () ->
      ignore (Executor.domains 0))

let test_map_ordering () =
  let input = Array.init 500 Fun.id in
  let f i = (i * i) - (3 * i) in
  let seq = Executor.map_array Executor.sequential f input in
  List.iter
    (fun pool ->
      let got = Executor.map_array (Executor.domains pool) f input in
      Alcotest.(check bool)
        (Printf.sprintf "map_array pool=%d is index-ordered" pool)
        true (got = seq))
    [ 2; 3; 8 ];
  let l = List.init 101 string_of_int in
  Alcotest.(check (list string)) "map_list preserves order" (List.map (fun s -> s ^ "!") l)
    (Executor.map_list par (fun s -> s ^ "!") l);
  Alcotest.(check (list string)) "empty and singleton inputs survive" [ "x!" ]
    (Executor.map_list par (fun s -> s ^ "!") [ "x" ]);
  Alcotest.(check bool) "empty array" true (Executor.map_array par f [||] = [||])

exception Boom of int

let test_exceptions_propagate () =
  let input = Array.init 100 Fun.id in
  (* The raise lands mid-chunk (chunks cover several consecutive indices),
     so this also exercises the abort path inside a chunk. *)
  (match Executor.map_array par (fun i -> if i = 57 then raise (Boom i) else i) input with
  | _ -> Alcotest.fail "expected the worker exception to re-raise"
  | exception Boom 57 -> ());
  (* The pool workers park again and are reusable after a failure. *)
  Alcotest.(check bool) "executor still works after a failure" true
    (Executor.map_array par Fun.id input = input)

(* The raise site the backtrace must keep pointing at. *)
let[@inline never] deep_raise () = raise (Boom 99)

let test_exception_backtrace_preserved () =
  (* Regression: the executor used to re-raise with bare [raise], which
     rewrites the backtrace to the executor's own re-raise line. The catch
     site now captures the worker's raw backtrace and restores it with
     [Printexc.raise_with_backtrace], so the original raise site survives
     a Domains run. *)
  let previously = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace previously)
    (fun () ->
      let input = Array.init 64 Fun.id in
      match Executor.map_array par (fun i -> if i = 13 then deep_raise () else i) input with
      | _ -> Alcotest.fail "expected the worker exception to re-raise"
      | exception Boom 99 ->
        let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
        Alcotest.(check bool)
          (Printf.sprintf "backtrace keeps the original raise site (got: %s)" bt)
          true
          (contains bt "test_exec"))

let test_nested_fanout_degrades () =
  (* A parallel map whose items issue parallel maps themselves must not
     spawn recursively — and must still compute the right thing. *)
  let nested = Obs.counter "exec.nested_sequential" in
  let spawned = Obs.counter "exec.domains_spawned" in
  let n0 = Obs.value nested and s0 = Obs.value spawned in
  let w0 = Executor.pool_width () in
  let inner i = Executor.map_list par (fun j -> i + j) [ 1; 2; 3 ] in
  let got = Executor.map_list par inner [ 10; 20; 30; 40 ] in
  Alcotest.(check bool) "nested results correct" true
    (got = [ [ 11; 12; 13 ]; [ 21; 22; 23 ]; [ 31; 32; 33 ]; [ 41; 42; 43 ] ]);
  Alcotest.(check bool) "inner fan-outs degraded to sequential" true (Obs.value nested > n0);
  (* Only the outer call may have grown the pool (to at most two helpers
     for [domains 3]); the nested calls never spawn. *)
  Alcotest.(check bool) "no recursive spawning" true
    (Obs.value spawned - s0 <= max 0 (2 - w0))

(* ------------------------- warm pool lifecycle -------------------- *)

let test_warm_pool_reuse () =
  let spawned = Obs.counter "exec.domains_spawned" in
  let parallel = Obs.counter "exec.parallel_calls" in
  let tasks = Obs.counter "exec.tasks" in
  let chunks = Obs.counter "exec.chunks" in
  let input = Array.init 300 Fun.id in
  let f i = (i * 7) - 1 in
  let expect = Array.map f input in
  (* The first call may grow the pool; every later call must reuse it. *)
  ignore (Executor.map_array par f input);
  let s1 = Obs.value spawned and p1 = Obs.value parallel in
  let t1 = Obs.value tasks and k1 = Obs.value chunks in
  let w1 = Executor.pool_width () in
  Alcotest.(check bool) "pool is warm after a parallel call" true (w1 >= 1);
  for _ = 1 to 5 do
    Alcotest.(check bool) "warm-call results correct" true
      (Executor.map_array par f input = expect)
  done;
  Alcotest.(check int) "exec.domains_spawned stays flat across warm calls" s1
    (Obs.value spawned);
  Alcotest.(check int) "pool width unchanged" w1 (Executor.pool_width ());
  Alcotest.(check int) "five more parallel calls" (p1 + 5) (Obs.value parallel);
  Alcotest.(check int) "every item accounted as a task" (t1 + (5 * 300)) (Obs.value tasks);
  Alcotest.(check bool) "work was handed out in chunks, not per item" true
    (Obs.value chunks - k1 < 5 * 300 && Obs.value chunks > k1)

let test_shutdown_and_rewarm () =
  ignore (Executor.map_array par Fun.id (Array.init 100 Fun.id));
  Alcotest.(check bool) "pool warm before shutdown" true (Executor.pool_width () > 0);
  Executor.shutdown ();
  Alcotest.(check int) "shutdown joins every worker" 0 (Executor.pool_width ());
  Executor.shutdown ();
  (* idempotent *)
  let spawned = Obs.counter "exec.domains_spawned" in
  let s0 = Obs.value spawned in
  let input = Array.init 50 Fun.id in
  Alcotest.(check bool) "pool re-warms transparently after shutdown" true
    (Executor.map_array par string_of_int input = Array.map string_of_int input);
  Alcotest.(check bool) "re-warming spawned fresh workers" true
    (Obs.value spawned > s0 && Executor.pool_width () > 0)

let prop_chunked_map_eq_sequential =
  (* Chunk boundaries move with the item count and pool width; whatever the
     combination, the merged result is bit-identical to Array.map. *)
  QCheck.Test.make ~count:300 ~name:"map_array chunked Domains = Sequential (any size x pool)"
    QCheck.(triple (int_range 0 257) (int_range 2 9) small_int)
    (fun (len, pool, salt) ->
      let arr = Array.init len (fun i -> i + salt) in
      let f x = (x * 31) lxor (x lsr 2) in
      Executor.map_array (Executor.domains pool) f arr = Array.map f arr)

(* ----------------------- Obs under parallelism -------------------- *)

let test_parallel_counter_totals () =
  Obs.reset ();
  let c = Obs.counter "test.exec_counter" in
  let s = Obs.span "test.exec_span" in
  let items = Array.init 200 Fun.id in
  let work i =
    Obs.time s (fun () ->
        Obs.incr c;
        Obs.add c 2;
        i)
  in
  let seq = Executor.map_array Executor.sequential work items in
  let seq_count = Obs.value c and seq_spans = Obs.span_count s in
  Obs.reset ();
  let got = Executor.map_array (Executor.domains 4) work items in
  Alcotest.(check bool) "results identical" true (got = seq);
  Alcotest.(check int) "counter total = sequential total" seq_count (Obs.value c);
  Alcotest.(check int) "span count = sequential count" seq_spans (Obs.span_count s);
  Alcotest.(check int) "3 bumps per item" (3 * Array.length items) (Obs.value c)

(* ----------------------- PTQ plan execution ----------------------- *)

let answers_identical (xs : Ptq.answer list) (ys : Ptq.answer list) =
  List.length xs = List.length ys
  && List.for_all2
       (fun (x : Ptq.answer) (y : Ptq.answer) ->
         x.mapping_id = y.mapping_id
         && Float.equal x.probability y.probability
         && x.bindings = y.bindings)
       xs ys

let prop_plan_execution_eq_query_basic =
  (* The tentpole differential: every way of executing a compiled plan —
     both physical operators, cost-chosen or forced — returns the seed
     query_basic answers bit-identically, including under top-k pruning. *)
  QCheck.Test.make ~count:60 ~name:"plan execution (all evaluators x executors) = query_basic"
    QCheck.(triple (int_range 1 1000000) (int_range 2 15) (int_range 1 6))
    (fun (seed, h, k) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset = Fixtures.random_mapping_set prng ~source_n:14 ~target_n:10 ~corrs:14 ~h in
      let tree = Block_tree.build ~params:{ Block_tree.tau = 0.3; max_b = 100; max_f = 100 } mset in
      let doc = Fixtures.random_doc prng (Mapping_set.source mset) in
      let pattern = Fixtures.random_pattern prng (Mapping_set.target mset) in
      let ctx = Ptq.context ~tree ~mset ~doc () in
      let expect = Ptq.query_basic ctx pattern in
      let expect_topk = Ptq.execute (Ptq.compile ~force:`Basic ~k ctx pattern) in
      List.for_all
        (fun force ->
          answers_identical expect (Ptq.execute (Ptq.compile ~force ctx pattern))
          && answers_identical expect_topk (Ptq.execute (Ptq.compile ~force ~k ctx pattern)))
        [ `Auto; `Basic; `Tree ])

(* ------------------------ differential: Coma ---------------------- *)

let corrs_identical a b =
  let l1 = Matching.correspondences a and l2 = Matching.correspondences b in
  List.length l1 = List.length l2
  && List.for_all2
       (fun (c1 : Matching.corr) (c2 : Matching.corr) ->
         c1.source = c2.source && c1.target = c2.target && Float.equal c1.score c2.score)
       l1 l2

let prop_coma_domains_eq_sequential =
  QCheck.Test.make ~count:25 ~name:"Coma Domains = Sequential (correspondence lists)"
    QCheck.(triple (int_range 1 1000000) (int_range 5 25) (int_range 5 25))
    (fun (seed, ns, nt) ->
      let prng = Uxsm_util.Prng.create seed in
      let source = Fixtures.random_schema prng ~n:ns in
      let target = Fixtures.random_schema prng ~n:nt in
      corrs_identical (Coma.run ~source ~target ()) (Coma.run ~exec:par ~source ~target ())
      && corrs_identical
           (Coma.run_with_capacity ~strategy:Coma.Fragment ~capacity:8 ~source ~target ())
           (Coma.run_with_capacity ~exec:par ~strategy:Coma.Fragment ~capacity:8 ~source
              ~target ()))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "executor construction" `Quick test_construction;
    Alcotest.test_case "map ordering across backends" `Quick test_map_ordering;
    Alcotest.test_case "worker exceptions propagate" `Quick test_exceptions_propagate;
    Alcotest.test_case "worker backtrace survives re-raise" `Quick
      test_exception_backtrace_preserved;
    Alcotest.test_case "nested fan-out degrades to sequential" `Quick
      test_nested_fanout_degrades;
    Alcotest.test_case "warm pool reuse across bulk calls" `Quick test_warm_pool_reuse;
    Alcotest.test_case "shutdown joins and the pool re-warms" `Quick test_shutdown_and_rewarm;
    Alcotest.test_case "Obs totals under parallel fan-out" `Quick test_parallel_counter_totals;
    q prop_chunked_map_eq_sequential;
    q prop_plan_execution_eq_query_basic;
    q prop_coma_domains_eq_sequential;
  ]
