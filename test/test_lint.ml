(* uxsm-lint analyzer tests: one fixture per rule (positive, negative and
   annotated-suppression), annotation grammar, baseline matching and
   exit-code behavior. Fixtures are analyzed as in-memory strings — no
   temporary files. *)

module Lint = Uxsm_lint_core.Lint_core
module Lint_locks = Uxsm_lint_core.Lint_locks
module Json = Uxsm_util.Json

(* Fixture annotations are assembled at runtime: the repo's own lint pass
   scans source lines textually, and a literal marker inside these string
   literals would read as a (stale) annotation of this file. *)
let allow = "lint:" ^ " allow"

let lib_ctx =
  { Lint.file = "lib/fake/fake.ml"; scope = Lint.Lib; executor_reachable = true }

let bench_ctx =
  { Lint.file = "bench/fake.ml"; scope = Lint.Bench; executor_reachable = true }

let unreachable_ctx = { lib_ctx with Lint.executor_reachable = false }

let rules fs = List.map (fun f -> f.Lint.rule) fs
let lines fs = List.map (fun f -> f.Lint.line) fs
let active fs = List.filter (fun f -> f.Lint.suppressed = None && not f.Lint.baselined) fs

let check_rules what expected fs =
  Alcotest.(check (list string)) what expected (rules fs)

(* ------------------------------ R1 ------------------------------ *)

let test_r1_positive () =
  let fs = Lint.analyze lib_ctx "let x = 1\nlet tbl = Hashtbl.create 16\n" in
  check_rules "hashtbl flagged" [ "domain-unsafe" ] fs;
  Alcotest.(check (list int)) "on line 2" [ 2 ] (lines fs);
  Alcotest.(check string) "error in lib" "error"
    (Lint.severity_name (List.hd fs).Lint.severity);
  check_rules "ref flagged" [ "domain-unsafe" ] (Lint.analyze lib_ctx "let r = ref []\n");
  check_rules "buffer flagged" [ "domain-unsafe" ]
    (Lint.analyze lib_ctx "let b = Buffer.create 80\n")

let test_r1_negative () =
  check_rules "Atomic is safe" []
    (Lint.analyze lib_ctx "let c = Atomic.make 0\n");
  check_rules "DLS is safe" []
    (Lint.analyze lib_ctx "let k = Domain.DLS.new_key (fun () -> 0)\n");
  check_rules "function-local state is fine" []
    (Lint.analyze lib_ctx "let f () =\n  let t = Hashtbl.create 4 in\n  Hashtbl.length t\n");
  check_rules "unreachable module exempt" []
    (Lint.analyze unreachable_ctx "let tbl = Hashtbl.create 16\n")

let test_r1_mutable_record () =
  let src = "type t = { mutable n : int }\nlet global = { n = 0 }\n" in
  let fs = Lint.analyze lib_ctx src in
  check_rules "mutable-record literal flagged" [ "domain-unsafe" ] fs;
  Alcotest.(check (list int)) "on the binding line" [ 2 ] (lines fs);
  check_rules "immutable record fine" []
    (Lint.analyze lib_ctx "type t = { n : int }\nlet global = { n = 0 }\n")

let test_r1_random () =
  check_rules "global Random flagged" [ "domain-unsafe" ]
    (Lint.analyze lib_ctx "let roll () = Random.int 6\n");
  check_rules "Random.State is fine" []
    (Lint.analyze lib_ctx "let roll st = Random.State.int st 6\n");
  check_rules "global Random ignored when unreachable" []
    (Lint.analyze unreachable_ctx "let roll () = Random.int 6\n")

let test_r1_suppression () =
  let src =
    "(* " ^ allow ^ " domain-unsafe — test table, guarded elsewhere *)\n\
     let tbl = Hashtbl.create 16\n"
  in
  let fs = Lint.analyze lib_ctx src in
  check_rules "finding still reported" [ "domain-unsafe" ] fs;
  Alcotest.(check (option string)) "carries the reason"
    (Some "test table, guarded elsewhere") (List.hd fs).Lint.suppressed;
  Alcotest.(check int) "suppressed error does not fail" 0 (Lint.exit_code fs);
  let same_line =
    "let tbl = Hashtbl.create 16 (* " ^ allow ^ " domain-unsafe - same line *)\n"
  in
  Alcotest.(check int) "same-line annotation works" 0
    (Lint.exit_code (Lint.analyze lib_ctx same_line))

let test_r1_driver_severity () =
  let fs = Lint.analyze bench_ctx "let quota = ref 0.3\n" in
  check_rules "driver ref reported" [ "domain-unsafe" ] fs;
  Alcotest.(check string) "as a warning" "warning"
    (Lint.severity_name (List.hd fs).Lint.severity);
  Alcotest.(check int) "warnings never fail" 0 (Lint.exit_code fs)

(* ------------------------------ R2 ------------------------------ *)

let test_r2_fold () =
  let bad = "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n" in
  let fs = Lint.analyze lib_ctx bad in
  check_rules "unsorted fold flagged" [ "unsorted-fold" ] fs;
  Alcotest.(check int) "fails in lib" 1 (Lint.exit_code fs);
  check_rules "piped into sort is fine" []
    (Lint.analyze lib_ctx
       "let keys tbl =\n\
       \  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare\n");
  check_rules "sort applied directly is fine" []
    (Lint.analyze lib_ctx
       "let keys tbl =\n\
       \  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])\n");
  check_rules "scalar accumulator is fine" []
    (Lint.analyze lib_ctx "let n tbl = Hashtbl.fold (fun _ _ acc -> acc + 1) tbl 0\n");
  let annotated =
    "(* " ^ allow ^ " unsorted-fold — consumer sorts later *)\n\
     let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n"
  in
  Alcotest.(check int) "annotated fold passes" 0
    (Lint.exit_code (Lint.analyze lib_ctx annotated))

let test_r2_iter () =
  let fs = Lint.analyze lib_ctx "let dump tbl f = Hashtbl.iter f tbl\n" in
  check_rules "iter reported" [ "nondet-iter" ] fs;
  Alcotest.(check string) "as a warning" "warning"
    (Lint.severity_name (List.hd fs).Lint.severity);
  let annotated =
    "(* " ^ allow ^ " nondet-iter — effect is order-independent *)\n\
     let dump tbl f = Hashtbl.iter f tbl\n"
  in
  Alcotest.(check (option string)) "annotation suppresses"
    (Some "effect is order-independent")
    (List.hd (Lint.analyze lib_ctx annotated)).Lint.suppressed

let test_poly_compare () =
  let fs = Lint.analyze lib_ctx "let f xs = List.sort compare xs\n" in
  check_rules "bare compare flagged" [ "poly-compare" ] fs;
  Alcotest.(check int) "fails in lib" 1 (Lint.exit_code fs);
  check_rules "Stdlib.compare flagged too" [ "poly-compare" ]
    (Lint.analyze lib_ctx "let f xs = Array.sort Stdlib.compare xs\n");
  check_rules "List.merge flagged" [ "poly-compare" ]
    (Lint.analyze lib_ctx "let f a b = List.merge compare a b\n");
  check_rules "sort_uniq flagged" [ "poly-compare" ]
    (Lint.analyze lib_ctx "let f xs = List.sort_uniq compare xs\n");
  check_rules "typed comparator is fine" []
    (Lint.analyze lib_ctx "let f xs = List.sort String.compare xs\n");
  check_rules "custom comparator is fine" []
    (Lint.analyze lib_ctx "let f xs = List.sort (fun a b -> compare a b) xs\n");
  check_rules "compare outside a sort is fine" []
    (Lint.analyze lib_ctx "let eq a b = compare a b = 0\n");
  let fs = Lint.analyze bench_ctx "let f xs = List.sort compare xs\n" in
  Alcotest.(check string) "warning outside lib" "warning"
    (Lint.severity_name (List.hd fs).Lint.severity);
  let annotated =
    "(* " ^ allow ^ " poly-compare — structural order is the dedup key *)\n\
     let f xs = List.sort_uniq compare xs\n"
  in
  Alcotest.(check int) "annotated passes" 0
    (Lint.exit_code (Lint.analyze lib_ctx annotated))

let test_r2_float_eq () =
  check_rules "float literal compare flagged" [ "float-eq" ]
    (Lint.analyze lib_ctx "let is_unit p = p = 1.0\n");
  check_rules "<> flagged too" [ "float-eq" ]
    (Lint.analyze lib_ctx "let not_unit p = p <> 1.0\n");
  check_rules "int compare is fine" []
    (Lint.analyze lib_ctx "let is_one n = n = 1\n");
  check_rules "Float.equal is fine" []
    (Lint.analyze lib_ctx "let is_unit p = Float.equal p 1.0\n")

(* ------------------------------ R3 ------------------------------ *)

let test_r3_catch_all () =
  let fs = Lint.analyze lib_ctx "let f g = try g () with _ -> 0\n" in
  check_rules "wildcard handler flagged" [ "catch-all" ] fs;
  Alcotest.(check int) "fails" 1 (Lint.exit_code fs);
  check_rules "explicit exception is fine" []
    (Lint.analyze lib_ctx "let f g = try g () with Not_found -> 0\n");
  check_rules "guarded wildcard is selective" []
    (Lint.analyze lib_ctx "let f g c = try g () with _ when c -> 0\n");
  Alcotest.(check int) "annotated catch-all passes" 0
    (Lint.exit_code
       (Lint.analyze lib_ctx
          ("(* " ^ allow ^ " catch-all — last-resort logging wrapper *)\n\
            let f g = try g () with _ -> 0\n")))

let test_r3_obj_magic () =
  check_rules "Obj.magic flagged" [ "obj-magic" ]
    (Lint.analyze lib_ctx "let cast x = Obj.magic x\n");
  check_rules "Obj.repr not flagged" []
    (Lint.analyze lib_ctx "let r x = Obj.repr x\n")

let test_r3_stdout_print () =
  check_rules "print_endline in lib flagged" [ "stdout-print" ]
    (Lint.analyze lib_ctx "let f () = print_endline \"hi\"\n");
  check_rules "Printf.printf in lib flagged" [ "stdout-print" ]
    (Lint.analyze lib_ctx "let f x = Printf.printf \"%d\" x\n");
  check_rules "eprintf is fine" []
    (Lint.analyze lib_ctx "let f x = Printf.eprintf \"%d\" x\n");
  check_rules "printing from a driver is fine" []
    (Lint.analyze bench_ctx "let f () = print_endline \"hi\"\n")

let test_r3_missing_mli () =
  (match Lint.mli_finding ~ml_file:"lib/x/y.ml" ~has_mli:false ~scope:Lint.Lib with
  | Some f ->
    Alcotest.(check string) "rule id" "missing-mli" f.Lint.rule;
    Alcotest.(check string) "is an error" "error" (Lint.severity_name f.Lint.severity)
  | None -> Alcotest.fail "expected a missing-mli finding");
  Alcotest.(check bool) "mli present" true
    (Lint.mli_finding ~ml_file:"lib/x/y.ml" ~has_mli:true ~scope:Lint.Lib = None);
  Alcotest.(check bool) "executables need no mli" true
    (Lint.mli_finding ~ml_file:"bin/m.ml" ~has_mli:false ~scope:Lint.Bin = None)

(* ------------------------- infrastructure ------------------------- *)

let test_bad_annotation () =
  let fs = Lint.analyze lib_ctx ("(* " ^ allow ^ " *)\nlet x = 1\n") in
  check_rules "missing rule and reason" [ "bad-annotation" ] fs;
  let fs = Lint.analyze lib_ctx ("(* " ^ allow ^ " domain-unsafe *)\nlet x = 1\n") in
  check_rules "missing reason" [ "bad-annotation" ] fs;
  Alcotest.(check int) "malformed annotations only warn" 0 (Lint.exit_code fs);
  (* A wrong rule id parses but suppresses nothing. *)
  let fs =
    Lint.analyze lib_ctx
      ("(* " ^ allow ^ " nondet-iter — wrong rule *)\nlet tbl = Hashtbl.create 4\n")
  in
  Alcotest.(check int) "mismatched rule does not suppress" 1 (Lint.exit_code fs)

let test_multi_rule_positions () =
  let src =
    "let tbl = Hashtbl.create 16\n\
     let keys () = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n\
     let f g = try g () with _ -> 0\n"
  in
  let fs = Lint.analyze lib_ctx src in
  Alcotest.(check (list (pair string int)))
    "rules with line numbers, in position order"
    [ ("domain-unsafe", 1); ("unsorted-fold", 2); ("catch-all", 3) ]
    (List.map (fun f -> (f.Lint.rule, f.Lint.line)) fs)

let test_parse_error () =
  let fs = Lint.analyze lib_ctx "let let let\n" in
  check_rules "unparseable file reported" [ "parse-error" ] fs;
  Alcotest.(check int) "and fails" 1 (Lint.exit_code fs)

let test_baseline () =
  let fs = Lint.analyze lib_ctx "let tbl = Hashtbl.create 16\n" in
  let grandfathered =
    Lint.apply_baseline [ ("domain-unsafe", "lib/fake/fake.ml", 1) ] fs
  in
  Alcotest.(check bool) "entry marked baselined" true
    (List.for_all (fun f -> f.Lint.baselined) grandfathered);
  Alcotest.(check int) "baselined error passes" 0 (Lint.exit_code grandfathered);
  let miss = Lint.apply_baseline [ ("domain-unsafe", "lib/fake/fake.ml", 99) ] fs in
  Alcotest.(check int) "wrong line does not match" 1 (Lint.exit_code miss);
  match
    Lint.baseline_of_json
      (Result.get_ok
         (Json.of_string
            {|{"findings":[{"rule":"domain-unsafe","file":"lib/a.ml","line":3}]}|}))
  with
  | Ok entries ->
    Alcotest.(check (list (triple string string int)))
      "baseline decodes" [ ("domain-unsafe", "lib/a.ml", 3) ] entries
  | Error e -> Alcotest.fail e

let test_json_report () =
  let fs =
    Lint.analyze lib_ctx
      ("(* " ^ allow ^ " nondet-iter — covered *)\n\
        let dump tbl f = Hashtbl.iter f tbl\n\
        let tbl2 = Hashtbl.create 4\n")
  in
  let j = Lint.to_json fs in
  let summary = Option.get (Json.member "summary" j) in
  Alcotest.(check (option int)) "one error"
    (Some 1) (Option.bind (Json.member "errors" summary) Json.to_int);
  Alcotest.(check (option int)) "one suppressed"
    (Some 1) (Option.bind (Json.member "suppressed" summary) Json.to_int);
  let findings = Option.get (Option.bind (Json.member "findings" j) Json.to_list) in
  Alcotest.(check int) "all findings serialized" (List.length fs) (List.length findings);
  Alcotest.(check bool) "round-trips through the parser" true
    (Json.of_string (Json.to_string j) = Ok j)

(* ------------------- order-stability regressions ------------------- *)

(* The R2 sites fixed in this PR: outputs that grew out of a Hashtbl must
   not depend on hash-traversal order. Feeding permuted inputs through the
   public API must give identical results. *)

let mk_answer id p bindings =
  { Uxsm_ptq.Ptq.mapping_id = id; probability = p; bindings }

let test_consolidate_order_stable () =
  let b1 = [ [| 1; 2 |] ] and b2 = [ [| 2; 3 |] ] and b3 = [ [| 0; 9 |] ] in
  (* Three answer groups, two of them tied on probability. *)
  let answers = [ mk_answer 0 0.25 b2; mk_answer 1 0.25 b1; mk_answer 2 0.5 b3 ] in
  let permuted = [ mk_answer 2 0.5 b3; mk_answer 1 0.25 b1; mk_answer 0 0.25 b2 ] in
  let c1 = Uxsm_ptq.Ptq.consolidate answers in
  let c2 = Uxsm_ptq.Ptq.consolidate permuted in
  Alcotest.(check bool) "identical under input permutation" true (c1 = c2);
  match c1 with
  | [ (g1, _); (g2, _); (g3, _) ] ->
    Alcotest.(check bool) "highest probability first" true (g1 = b3);
    Alcotest.(check bool) "ties ordered by binding key" true
      (g2 = b1 && g3 = b2)
  | _ -> Alcotest.failf "expected 3 groups, got %d" (List.length c1)

let test_components_order_stable () =
  let edges = [ (0, 0, 0.9); (1, 1, 0.8); (2, 2, 0.7); (0, 1, 0.5) ] in
  let g1 = Uxsm_assignment.Bipartite.create ~n_left:3 ~n_right:3 edges in
  let g2 = Uxsm_assignment.Bipartite.create ~n_left:3 ~n_right:3 (List.rev edges) in
  let comps g =
    List.map (fun (c : Uxsm_assignment.Partition.component) -> (c.lefts, c.rights))
      (Uxsm_assignment.Partition.components g)
  in
  Alcotest.(check bool) "components independent of edge order" true (comps g1 = comps g2);
  let tops g =
    List.map (fun (s : Uxsm_assignment.Murty.solution) -> (s.pairs, s.score))
      (Uxsm_assignment.Partition.top ~h:5 g)
  in
  Alcotest.(check bool) "top-h independent of edge order" true (tops g1 = tops g2)

let test_catalog_corpora_sorted () =
  let text =
    Uxsm_mapping.Serialize.mapping_set_to_string Fixtures.fig3_mset
  in
  let cat = Uxsm_server.Catalog.create ~exec:Uxsm_exec.Executor.sequential () in
  List.iter
    (fun name ->
      match
        Uxsm_server.Catalog.register cat ~name ~doc_seed:1
          (Uxsm_server.Protocol.From_mapping_set_text text)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "register %s: %s" name e)
    [ "zeta"; "alpha"; "midway" ];
  Alcotest.(check (list string)) "corpora listed in name order"
    [ "alpha"; "midway"; "zeta" ]
    (List.map fst (Uxsm_server.Catalog.corpora cat))

(* ------------------------- lock analysis ------------------------- *)

(* A bare name bound by a local [let] or a parameter is that local value,
   not the same-file top-level function it shadows. Read as calls, the
   shadowed [matching] and [doc] below would acquire the rank-14 map lock
   and re-acquire the rank-20 shard lock while the shard lock is held. *)
let test_locks_shadowing () =
  let fixture register =
    [
      ( "lib/fake/cat.ml",
        String.concat "\n"
          ([
             "module Locks = Uxsm_util.Locks";
             "let map_lock = Locks.create ~name:\"fake.map\" ~rank:14";
             "let shard_lock = Locks.create ~name:\"fake.shard\" ~rank:20";
             "let matching () = Locks.with_lock map_lock (fun () -> 1)";
             "let doc () = Locks.with_lock shard_lock (fun () -> 2)";
           ]
          @ register) );
    ]
  in
  check_rules "shadowing let and parameter are local values" []
    (Lint_locks.analyze_sources
       (fixture
          [
            "let register doc =";
            "  Locks.with_lock shard_lock (fun () ->";
            "      let matching = doc + 1 in";
            "      matching)";
          ]));
  check_rules "the unshadowed calls are still flagged" [ "lock-order"; "lock-order" ]
    (Lint_locks.analyze_sources
       (fixture
          [
            "let register () =";
            "  Locks.with_lock shard_lock (fun () -> matching () + doc ())";
          ]))

let suite =
  [
    Alcotest.test_case "R1: top-level mutable state flagged" `Quick test_r1_positive;
    Alcotest.test_case "R1: safe constructs pass" `Quick test_r1_negative;
    Alcotest.test_case "R1: mutable record literal" `Quick test_r1_mutable_record;
    Alcotest.test_case "R1: global Random state" `Quick test_r1_random;
    Alcotest.test_case "R1: annotation suppresses" `Quick test_r1_suppression;
    Alcotest.test_case "R1: driver scope is a warning" `Quick test_r1_driver_severity;
    Alcotest.test_case "R2: unsorted Hashtbl.fold" `Quick test_r2_fold;
    Alcotest.test_case "R2: Hashtbl.iter warns" `Quick test_r2_iter;
    Alcotest.test_case "R2: float equality" `Quick test_r2_float_eq;
    Alcotest.test_case "R2: polymorphic compare as sort comparator" `Quick
      test_poly_compare;
    Alcotest.test_case "R3: catch-all handler" `Quick test_r3_catch_all;
    Alcotest.test_case "R3: Obj.magic" `Quick test_r3_obj_magic;
    Alcotest.test_case "R3: stdout print in lib" `Quick test_r3_stdout_print;
    Alcotest.test_case "R3: missing mli" `Quick test_r3_missing_mli;
    Alcotest.test_case "annotation grammar errors" `Quick test_bad_annotation;
    Alcotest.test_case "rule ids and line numbers" `Quick test_multi_rule_positions;
    Alcotest.test_case "parse error is a finding" `Quick test_parse_error;
    Alcotest.test_case "baseline grandfathers findings" `Quick test_baseline;
    Alcotest.test_case "json report and summary" `Quick test_json_report;
    Alcotest.test_case "locks: shadowed names resolve locally" `Quick test_locks_shadowing;
    Alcotest.test_case "regression: consolidate order-stable" `Quick
      test_consolidate_order_stable;
    Alcotest.test_case "regression: partition components order-stable" `Quick
      test_components_order_stable;
    Alcotest.test_case "regression: catalog corpora sorted" `Quick
      test_catalog_corpora_sorted;
  ]
