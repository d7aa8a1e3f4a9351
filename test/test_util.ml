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

(* A script of heap operations: [Some p] pushes priority [p] with the push
   index as payload, [None] pops (skipped on an empty heap). Priorities come
   from a pool of three or four values, so most pops choose among ties. *)
let arb_heap_script =
  let open QCheck.Gen in
  let gen =
    let* pool = oneofl [ [| 1.0; 2.0; 3.0 |]; [| 0.5; 1.0; 1.5; 2.0 |] ] in
    list_size (int_range 0 200)
      (frequency [ (3, map (fun k -> Some pool.(k)) (int_bound (Array.length pool - 1))); (2, return None) ])
  in
  QCheck.make gen ~print:(fun ops ->
      String.concat " "
        (List.map (function Some p -> Printf.sprintf "+%g" p | None -> "-") ops))

(* Run a script on one heap, then drain it; the (priority, payload) pops. *)
let run_script ~push ~pop ops =
  let pushed = ref 0 and out = ref [] in
  List.iter
    (function
      | Some p ->
        push p !pushed;
        incr pushed
      | None -> Option.iter (fun e -> out := e :: !out) (pop ()))
    ops;
  let rec drain () =
    match pop () with
    | Some e ->
      out := e :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  List.rev !out

let prop_heap_equals_swap_heap =
  QCheck.Test.make ~count:1000 ~name:"Fheap pops = the swap-based reference heap, ties included"
    arb_heap_script (fun ops ->
      let h = Fheap.create () and o = Fheap_oracle.create () in
      run_script ~push:(Fheap.push h) ~pop:(fun () -> Fheap.pop h) ops
      = run_script ~push:(Fheap_oracle.push o) ~pop:(fun () -> Fheap_oracle.pop o) ops)

(* The minor words [f] allocates per operation, over [n] operations. *)
let words_per ~n f =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int n

(* Per push, then per [min_priority] + [pop_min], on a heap already grown to
   [n] entries so growth is not counted. The two heaps are measured by the
   same code written twice, so each calls its heap directly and the
   compiler inlines what it would inline in the solver and the fold. *)
let fheap_words n =
  let h = Fheap.create () and sink = ref 0 in
  let fill () =
    for i = 0 to n - 1 do
      Fheap.push h (float_of_int ((i * 7) land 3)) i
    done
  in
  fill ();
  Fheap.clear h;
  let push = words_per ~n fill in
  let pop =
    words_per ~n (fun () ->
        while not (Fheap.is_empty h) do
          if Fheap.min_priority h > 10.0 then incr sink;
          sink := !sink + Fheap.pop_min h
        done)
  in
  (push, pop)

let oracle_words n =
  let h = Fheap_oracle.create () and sink = ref 0 in
  let fill () =
    for i = 0 to n - 1 do
      Fheap_oracle.push h (float_of_int ((i * 7) land 3)) i
    done
  in
  fill ();
  Fheap_oracle.clear h;
  let push = words_per ~n fill in
  let pop =
    words_per ~n (fun () ->
        while not (Fheap_oracle.is_empty h) do
          if Fheap_oracle.min_priority h > 10.0 then incr sink;
          sink := !sink + Fheap_oracle.pop_min h
        done)
  in
  (push, pop)

let test_heap_allocates_no_more () =
  let push_h, pop_h = fheap_words 10_000 and push_o, pop_o = oracle_words 10_000 in
  if push_h > push_o +. 0.01 then
    Alcotest.failf "a push allocates %.2f minor words, the swap heap %.2f" push_h push_o;
  if pop_h > pop_o +. 0.01 then
    Alcotest.failf "a min_priority + pop_min allocates %.2f minor words, the swap heap %.2f" pop_h
      pop_o

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng copy/split" `Quick test_prng_copy_and_split;
    Alcotest.test_case "heap peek/size" `Quick test_heap_peek;
    q prop_prng_int_bounds;
    q prop_heap_sorts;
    q prop_heap_equals_swap_heap;
    Alcotest.test_case "heap allocates no more than the swap heap" `Quick
      test_heap_allocates_no_more;
  ]
