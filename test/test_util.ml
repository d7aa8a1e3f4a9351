(* Utility tests: PRNG determinism and bounds, the float-keyed heap, and
   descriptive statistics. *)

module Prng = Uxsm_util.Prng
module Fheap = Uxsm_util.Fheap
module Stats = Uxsm_util.Stats

let test_prng_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  let xs g = List.init 50 (fun _ -> Prng.int g 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (xs a) (xs b);
  let c = Prng.create 8 in
  Alcotest.(check bool) "different seed differs" true (xs (Prng.create 7) <> xs c)

let test_prng_copy_and_split () =
  let a = Prng.create 3 in
  ignore (Prng.int a 10);
  let b = Prng.copy a in
  Alcotest.(check int) "copy continues identically" (Prng.int a 1000000) (Prng.int b 1000000);
  let parent = Prng.create 3 in
  let child = Prng.split parent in
  Alcotest.(check bool) "split independent-ish" true
    (List.init 20 (fun _ -> Prng.int parent 100) <> List.init 20 (fun _ -> Prng.int child 100))

let prop_prng_int_bounds =
  QCheck.Test.make ~count:500 ~name:"Prng.int in [0, bound)"
    QCheck.(pair (int_range 1 1000000) (int_range 1 10000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      List.for_all (fun _ ->
          let v = Prng.int g bound in
          v >= 0 && v < bound)
        (List.init 100 Fun.id))

let prop_prng_range =
  QCheck.Test.make ~count:200 ~name:"Prng.range inclusive bounds"
    QCheck.(triple (int_range 1 1000000) (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let g = Prng.create seed in
      let hi = lo + span in
      List.for_all (fun _ ->
          let v = Prng.range g lo hi in
          v >= lo && v <= hi)
        (List.init 50 Fun.id))

let prop_sample_without_replacement =
  QCheck.Test.make ~count:200 ~name:"sample_without_replacement: distinct, sorted, in range"
    QCheck.(triple (int_range 1 1000000) (int_range 0 30) (int_range 0 30))
    (fun (seed, k0, extra) ->
      let g = Prng.create seed in
      let n = k0 + extra in
      let k = k0 in
      let s = Prng.sample_without_replacement g k n in
      List.length s = k
      && List.sort_uniq Int.compare s = s
      && List.for_all (fun x -> x >= 0 && x < n) s)

let test_gaussian () =
  let g = Prng.create 9 in
  let n = 2000 in
  let xs = List.init n (fun _ -> Prng.gaussian g ~mu:5.0 ~sigma:2.0) in
  let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
  Alcotest.(check bool) "mean near mu" true (Float.abs (mean -. 5.0) < 0.2);
  let sd = Stats.stddev xs in
  Alcotest.(check bool) "sd near sigma" true (Float.abs (sd -. 2.0) < 0.3)

let prop_heap_sorts =
  QCheck.Test.make ~count:300 ~name:"Fheap pops in priority order"
    QCheck.(list (QCheck.make (QCheck.Gen.float_range (-100.0) 100.0)))
    (fun xs ->
      let h = Fheap.create () in
      List.iteri (fun i x -> Fheap.push h x i) xs;
      let rec drain acc =
        match Fheap.pop h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort Float.compare xs)

let test_heap_peek () =
  let h = Fheap.create () in
  Alcotest.(check bool) "empty" true (Fheap.is_empty h);
  Fheap.push h 2.0 2;
  Fheap.push h 1.0 1;
  (match Fheap.peek h with
  | Some (1.0, 1) -> ()
  | _ -> Alcotest.fail "peek should be the minimum");
  Alcotest.(check int) "size" 2 (Fheap.size h)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev" 0.0 (Stats.stddev [ 5.0; 5.0 ]);
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Stats.percentile 50.0 [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  let h = Stats.histogram ~bins:2 [ 0.0; 1.0; 2.0; 3.0 ] in
  Alcotest.(check int) "two bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 4 total

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng copy/split" `Quick test_prng_copy_and_split;
    Alcotest.test_case "heap peek/size" `Quick test_heap_peek;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "gaussian deviates" `Quick test_gaussian;
    q prop_prng_int_bounds;
    q prop_prng_range;
    q prop_sample_without_replacement;
    q prop_heap_sorts;
  ]
