(* Locks subsystem tests: the ranked-mutex API, the runtime lock-order
   witness (held-rank stacks, Count/Raise modes, the violations counter),
   exception safety of [with_lock], [try_lock]'s exemption from the order
   check, the executor's contended-submitter fallback, and the PR 7
   multi-client server stress re-run with the witness in [Raise] mode —
   the dynamic half of the acceptance criterion whose static half is the
   linter's [lock-order] rule (DESIGN.md §15). *)

module Locks = Uxsm_util.Locks
module Executor = Uxsm_exec.Executor
module Obs = Uxsm_obs.Obs

(* Every test restores the process-global witness mode on exit — the rest
   of the suite must keep running under whatever UXSM_LOCK_WITNESS chose. *)
let with_mode m f =
  let saved = Locks.mode () in
  Locks.set_mode m;
  Fun.protect ~finally:(fun () -> Locks.set_mode saved) f

let mk name rank = Locks.create ~name ~rank

(* ----------------------------- basics ------------------------------ *)

let test_create_validation () =
  (match mk "bad" 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rank 0 must be rejected");
  (match mk "bad" (-3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative rank must be rejected");
  let l = mk "test.basic" 7 in
  Alcotest.(check string) "name recorded" "test.basic" (Locks.name l);
  Alcotest.(check int) "rank recorded" 7 (Locks.rank l)

let test_rank_table_ascending () =
  (* The canonical ranks must stay strictly ordered along the documented
     acquisition chains (DESIGN.md §15): pool < catalog map < shard <
     queue < connection write < dataset memos < loadgen < latches <
     worker mailboxes < registry. *)
  let chain =
    [ Locks.rank_pool; Locks.rank_catalog_map; Locks.rank_shard; Locks.rank_queue;
      Locks.rank_conn_write; Locks.rank_dataset_mset; Locks.rank_dataset_matching;
      Locks.rank_loadgen; Locks.rank_latch; Locks.rank_worker_mailbox; Locks.rank_registry ]
  in
  let rec strictly_ascending = function
    | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "rank table strictly ascending" true (strictly_ascending chain)

(* ------------------------- rank enforcement ------------------------ *)

let test_rank_enforcement_raise () =
  with_mode Locks.Raise @@ fun () ->
  Locks.reset_violations ();
  let a = mk "test.a" 10 and b = mk "test.b" 20 and c = mk "test.c" 5 in
  (* Ascending chain is silent. *)
  Locks.lock a;
  Locks.lock b;
  Alcotest.(check int) "ascending chain clean" 0 (Locks.violations ());
  (* Descending acquisition raises at the acquisition site, before the
     mutex is taken — [c] stays free. *)
  let contains sub =
    let n = String.length sub in
    fun s ->
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
  in
  (match Locks.lock c with
  | exception Locks.Order_violation msg ->
    Alcotest.(check bool) "message names the acquired lock" true (contains "test.c" msg);
    Alcotest.(check bool) "message names the held lock" true (contains "test.b" msg)
  | () -> Alcotest.fail "descending lock must raise under Raise");
  Alcotest.(check int) "violation counted" 1 (Locks.violations ());
  Alcotest.(check bool) "refused lock left free" true (Locks.try_lock c);
  Locks.unlock c;
  (* Equal rank is also an inversion (covers self-deadlock: relocking a
     held lock finds its own rank on the stack). *)
  let b2 = mk "test.b2" 20 in
  (match Locks.lock b2 with
  | exception Locks.Order_violation _ -> ()
  | () -> Alcotest.fail "equal-rank lock must raise under Raise");
  (match Locks.lock b with
  | exception Locks.Order_violation _ -> ()
  | () -> Alcotest.fail "self-relock must raise under Raise");
  Locks.unlock b;
  Locks.unlock a;
  Locks.reset_violations ();
  Alcotest.(check int) "reset clears the counter" 0 (Locks.violations ())

let test_rank_enforcement_count () =
  with_mode Locks.Count @@ fun () ->
  Locks.reset_violations ();
  let a = mk "test.hi" 40 and b = mk "test.lo" 10 in
  Locks.lock a;
  (* Count mode records the inversion but still acquires, so production
     traffic keeps flowing while the counter surfaces the bug. *)
  Locks.lock b;
  Alcotest.(check int) "inversion counted" 1 (Locks.violations ());
  Alcotest.(check (list (pair string int)))
    "both locks held, innermost first"
    [ ("test.lo", 10); ("test.hi", 40) ]
    (Locks.held ());
  Locks.unlock b;
  Locks.unlock a;
  Locks.reset_violations ()

(* -------------------------- witness stack -------------------------- *)

let test_witness_stack () =
  with_mode Locks.Count @@ fun () ->
  let outer = mk "test.outer" 10 and inner = mk "test.inner" 20 in
  Alcotest.(check (list (pair string int))) "empty at rest" [] (Locks.held ());
  Locks.with_lock outer (fun () ->
      Alcotest.(check (list (pair string int)))
        "outer held" [ ("test.outer", 10) ] (Locks.held ());
      Locks.with_lock inner (fun () ->
          Alcotest.(check (list (pair string int)))
            "nested, innermost first"
            [ ("test.inner", 20); ("test.outer", 10) ]
            (Locks.held ())));
  Alcotest.(check (list (pair string int))) "empty after release" [] (Locks.held ());
  (* Off mode reports nothing: held() must not allocate stacks that no
     acquisition will ever pop. *)
  Locks.set_mode Locks.Off;
  Locks.with_lock outer (fun () ->
      Alcotest.(check (list (pair string int))) "off mode reports nothing" [] (Locks.held ()))

let test_with_lock_exception_safety () =
  with_mode Locks.Raise @@ fun () ->
  let l = mk "test.exn" 10 in
  (match Locks.with_lock l (fun () -> failwith "boom") with
  | exception Failure msg -> Alcotest.(check string) "exception propagates" "boom" msg
  | () -> Alcotest.fail "body exception must propagate");
  Alcotest.(check (list (pair string int))) "stack popped on raise" [] (Locks.held ());
  Alcotest.(check bool) "mutex released on raise" true (Locks.try_lock l);
  Locks.unlock l

(* ---------------------------- try_lock ----------------------------- *)

let test_try_lock_semantics () =
  with_mode Locks.Raise @@ fun () ->
  Locks.reset_violations ();
  let hi = mk "test.try.hi" 40 and lo = mk "test.try.lo" 10 in
  Locks.lock hi;
  (* A non-blocking acquire is exempt from the order check even when it
     inverts the ranks: it cannot be the blocking edge of a deadlock. *)
  Alcotest.(check bool) "out-of-order try_lock succeeds" true (Locks.try_lock lo);
  Alcotest.(check int) "no violation recorded for try_lock" 0 (Locks.violations ());
  (* ... but a successful try_lock joins the stack, so later blocking
     acquisitions are checked against it. *)
  Alcotest.(check (list (pair string int)))
    "try_lock joins the stack"
    [ ("test.try.lo", 10); ("test.try.hi", 40) ]
    (Locks.held ());
  let mid = mk "test.try.mid" 20 in
  (match Locks.lock mid with
  | exception Locks.Order_violation _ -> ()
  | () -> Alcotest.fail "blocking lock above a try_lock'd rank must still raise");
  Locks.unlock lo;
  Locks.unlock hi;
  (* try_lock on a lock held by another thread fails without touching the
     caller's stack. *)
  let contested = mk "test.try.contested" 10 in
  Locks.lock contested;
  let saw = ref None in
  let th = Thread.create (fun () -> saw := Some (Locks.try_lock contested)) () in
  Thread.join th;
  Alcotest.(check (option bool)) "contested try_lock fails" (Some false) !saw;
  Locks.unlock contested;
  Locks.reset_violations ()

(* ------------------------------ wait ------------------------------- *)

let test_wait_requires_innermost () =
  with_mode Locks.Raise @@ fun () ->
  Locks.reset_violations ();
  let a = mk "test.wait.a" 10 and b = mk "test.wait.b" 70 in
  let cv = Locks.cond () in
  (* Waiting on [a] while [b] is held innermost would re-acquire [a]
     beneath [b] on wakeup — the witness refuses before blocking. *)
  Locks.lock a;
  Locks.lock b;
  (match Locks.wait cv a with
  | exception Locks.Order_violation _ -> ()
  | () -> Alcotest.fail "wait on non-innermost lock must raise");
  Locks.unlock b;
  Locks.unlock a;
  (* Waiting without holding the lock at all is caught the same way
     (Condition.wait on an unheld mutex is undefined behaviour). *)
  (match Locks.wait cv a with
  | exception Locks.Order_violation _ -> ()
  | () -> Alcotest.fail "wait without holding must raise");
  Locks.reset_violations ()

(* ------------------ executor contended submitter ------------------- *)

(* Regression for the [Locks.try_lock pool_lock] migration: while one
   domain drives the pool, a second submitter must fall back to
   sequential execution (correct results, [exec.sequential_busy] bumped)
   instead of blocking on — or racing for — the workers. *)
let test_executor_busy_fallback () =
  let c_busy = Obs.counter "exec.sequential_busy" in
  let exec = Executor.domains 2 in
  let started = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Executor.map_array exec
          (fun i ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            i * 2)
          [| 1; 2 |])
  in
  (* Once any job runs, the holder owns pool_lock for the whole bulk call. *)
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let before = Obs.value c_busy in
  let r = Executor.map_array exec (fun i -> i + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "fallback results correct" [| 2; 3; 4 |] r;
  Alcotest.(check bool) "sequential_busy counted" true (Obs.value c_busy > before);
  Atomic.set release true;
  let held_r = Domain.join holder in
  Alcotest.(check (array int)) "pool holder results correct" [| 2; 4 |] held_r

(* -------------------- server stress under witness ------------------ *)

(* The PR 7 tentpole acceptance test re-run with the witness raising on
   any inversion: 4 concurrent clients on mixed corpora against a 4-way
   pool, replies byte-identical to a sequential replay. A single
   out-of-rank acquisition anywhere in the server, catalog, dataset or
   executor paths raises in the offending thread and fails the run. *)
let test_server_stress_witness_raise () =
  with_mode Locks.Raise @@ fun () ->
  Locks.reset_violations ();
  Test_server.run_stress "witness-raise"
    ~exec:(Executor.domains 4)
    [ Uxsm_server.Client.Tcp ("127.0.0.1", 0) ];
  Alcotest.(check int) "zero order violations under stress" 0 (Locks.violations ())

(* --------------------------- properties ---------------------------- *)

let prop_ascending_clean =
  QCheck.Test.make ~count:100 ~name:"ascending rank chains never violate"
    QCheck.(list_of_size Gen.(1 -- 8) (int_range 1 1000))
    (fun ranks ->
      let ranks = List.sort_uniq Int.compare ranks in
      let locks = List.mapi (fun i r -> mk (Printf.sprintf "test.q%d" i) r) ranks in
      with_mode Locks.Raise (fun () ->
          List.iter Locks.lock locks;
          (* Innermost (highest rank) first, like every Fun.protect chain. *)
          List.iter Locks.unlock (List.rev locks);
          Locks.held () = []))

let prop_inversion_caught =
  QCheck.Test.make ~count:100 ~name:"every rank inversion is caught"
    QCheck.(pair (int_range 1 1000) (int_range 1 1000))
    (fun (r1, r2) ->
      let lo = min r1 r2 and hi = max r1 r2 in
      let a = mk "test.p.hi" hi and b = mk "test.p.lo" lo in
      with_mode Locks.Raise (fun () ->
          Locks.reset_violations ();
          Locks.lock a;
          let caught =
            (* Equal ranks invert too: r >= held is the refusal condition. *)
            match Locks.lock b with
            | exception Locks.Order_violation _ -> true
            | () ->
              Locks.unlock b;
              false
          in
          Locks.unlock a;
          let n = Locks.violations () in
          Locks.reset_violations ();
          caught && n = 1))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "create validates ranks" `Quick test_create_validation;
    Alcotest.test_case "canonical rank table ascending" `Quick test_rank_table_ascending;
    Alcotest.test_case "rank enforcement (Raise)" `Quick test_rank_enforcement_raise;
    Alcotest.test_case "rank enforcement (Count)" `Quick test_rank_enforcement_count;
    Alcotest.test_case "witness held-stack" `Quick test_witness_stack;
    Alcotest.test_case "with_lock exception safety" `Quick test_with_lock_exception_safety;
    Alcotest.test_case "try_lock semantics" `Quick test_try_lock_semantics;
    Alcotest.test_case "wait requires innermost" `Quick test_wait_requires_innermost;
    Alcotest.test_case "executor busy-submitter fallback" `Quick test_executor_busy_fallback;
    Alcotest.test_case "server stress, witness raising" `Quick test_server_stress_witness_raise;
    q prop_ascending_clean;
    q prop_inversion_caught;
  ]
