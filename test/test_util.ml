(* Utility tests: PRNG determinism and bounds, and the float-keyed heap. *)

module Prng = Uxsm_util.Prng
module Fheap = Uxsm_util.Fheap

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

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng copy/split" `Quick test_prng_copy_and_split;
    Alcotest.test_case "heap peek/size" `Quick test_heap_peek;
    q prop_prng_int_bounds;
    q prop_heap_sorts;
  ]
