(* Tests for the query-plan IR: logical/physical op lists, the evaluator
   choice and its reasons, plan rendering, and the compile/execute path
   through Ptq staying equivalent to the direct query API. *)

module Plan = Uxsm_plan.Plan
module Block_tree = Uxsm_blocktree.Block_tree
module Mapping_set = Uxsm_mapping.Mapping_set
module Parser = Uxsm_twig.Pattern_parser
module Ptq = Uxsm_ptq.Ptq
module Obs = Uxsm_obs.Obs

let fig_context ?(tau = 0.4) () =
  let tree =
    Block_tree.build ~params:{ Block_tree.tau; max_b = 500; max_f = 500 } Fixtures.fig3_mset
  in
  Ptq.context ~tree ~mset:Fixtures.fig3_mset ~doc:Fixtures.fig2_doc ()

let op_names ops = List.map Plan.op_name ops

(* ------------------------------ logical ----------------------------- *)

let test_logical_ops () =
  Alcotest.(check (list string))
    "default logical plan"
    [ "resolve"; "coverage"; "relevance_filter"; "evaluate"; "ordered_merge"; "sink[answers]" ]
    (op_names (Plan.logical ()));
  Alcotest.(check (list string))
    "top-k plan prunes before evaluation"
    [
      "resolve";
      "coverage";
      "relevance_filter";
      "topk_prune(3)";
      "evaluate";
      "ordered_merge";
      "sink[answers]";
    ]
    (op_names (Plan.logical ~k:3 ()))

let test_names () =
  Alcotest.(check string) "per_mapping name" "per_mapping" (Plan.evaluator_name Plan.Per_mapping);
  Alcotest.(check string) "per_block wire word" "tree" (Plan.evaluator_wire Plan.Per_block);
  List.iter
    (fun f ->
      match Plan.force_of_string (Plan.force_to_string f) with
      | Some f' -> Alcotest.(check bool) "force round-trips" true (f = f')
      | None -> Alcotest.fail "force_to_string produced an unparsable word")
    [ `Auto; `Basic; `Tree ];
  Alcotest.(check bool) "unknown force rejected" true (Plan.force_of_string "fast" = None)

(* ------------------------------ choose ------------------------------ *)

let test_choose_reasons () =
  let q = Parser.parse_exn "//IP//ICN" in
  (* An auto plan runs Algorithm 3 over its units, with or without a block
     tree in the context. *)
  let ctx_plain = Ptq.context ~mset:Fixtures.fig3_mset ~doc:Fixtures.fig2_doc () in
  List.iter
    (fun (name, ctx) ->
      let p = Ptq.physical (Ptq.compile ctx q) in
      Alcotest.(check bool) (name ^ ": auto runs per_mapping") true (p.Plan.evaluator = Plan.Per_mapping);
      Alcotest.(check string) (name ^ ": reason units") "units" (Plan.reason_name p.Plan.reason))
    [ ("with a tree", fig_context ()); ("without a tree", ctx_plain) ];
  let p = Ptq.physical (Ptq.compile ~force:`Basic ctx_plain q) in
  Alcotest.(check string) "forced basic" "forced" (Plan.reason_name p.Plan.reason);
  Alcotest.(check bool) "forced basic evaluator" true (p.Plan.evaluator = Plan.Per_mapping);
  let p = Ptq.physical (Ptq.compile ~force:`Tree (fig_context ()) q) in
  Alcotest.(check string) "forced tree" "forced" (Plan.reason_name p.Plan.reason);
  Alcotest.(check bool) "forced tree evaluator" true (p.Plan.evaluator = Plan.Per_block);
  Alcotest.check_raises "forcing tree without a tree is impossible"
    (Invalid_argument "Ptq.query_tree: context has no block tree")
    (fun () -> ignore (Ptq.compile ~force:`Tree ctx_plain q))

let test_choose_counters () =
  Obs.reset ();
  let ctx = fig_context () in
  ignore (Ptq.compile ctx (Parser.parse_exn "//IP//ICN"));
  ignore (Ptq.compile ~force:`Basic ctx (Parser.parse_exn "//IP"));
  let v name = List.assoc_opt name (Obs.counters ()) in
  Alcotest.(check (option int)) "plan.compiled counts both" (Some 2) (v "plan.compiled");
  Alcotest.(check (option int)) "one forced pick" (Some 1) (v "plan.forced")

(* ----------------------------- rendering ---------------------------- *)

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec scan i = i + nl <= tl && (String.sub text i nl = needle || scan (i + 1)) in
  scan 0

let test_describe_and_json () =
  let ctx = fig_context () in
  let phys = Ptq.physical (Ptq.compile ctx (Parser.parse_exn "//IP//ICN")) in
  let text = Plan.describe phys in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "describe mentions %S" needle) true
        (contains text needle))
    [ "evaluator=per_mapping"; "(units)"; "-> resolve" ];
  (* m1 and m2 rewrite //IP//ICN alike, so the auto plan runs four units
     for five mappings; a forced plan keeps one unit per mapping. *)
  Alcotest.(check bool) "describe reports units after evaluated" true
    (contains text "evaluated=5 units=4");
  let forced = Ptq.physical (Ptq.compile ~force:`Tree ctx (Parser.parse_exn "//IP//ICN")) in
  Alcotest.(check int) "forced plans keep one-mapping units" 5 forced.Plan.units;
  (* Top-k pruning shows up as its own operator. *)
  let pruned = Ptq.physical (Ptq.compile ~k:2 ctx (Parser.parse_exn "//IP//ICN")) in
  Alcotest.(check bool) "describe mentions the prune" true
    (contains (Plan.describe pruned) "topk_prune(2)");
  (* The whole rendering of compiled Figure 3 plans, op lines included: the
     text `query --plan` and `analyze` print, and the object `explain`
     replies embed. *)
  let q = Parser.parse_exn "//IP//ICN" in
  let ops evaluator k =
    [ "  -> resolve"; "  -> coverage"; "  -> relevance_filter" ]
    @ (match k with None -> [] | Some k -> [ Printf.sprintf "  -> topk_prune(%d)" k ])
    @ [ Printf.sprintf "  -> evaluate[%s]" evaluator; "  -> ordered_merge"; "  -> sink[answers]" ]
  in
  List.iter
    (fun (name, plan, head, evaluator, k, json) ->
      let phys = Ptq.physical plan in
      Alcotest.(check string) (name ^ ": describe")
        (String.concat "\n" (head @ ops evaluator k))
        (Plan.describe phys);
      Alcotest.(check string) (name ^ ": to_json") json
        (Uxsm_util.Json.to_string (Plan.to_json phys)))
    [
      ( "auto",
        Ptq.compile ctx q,
        [
          "plan: evaluator=per_mapping (units)";
          "  cardinalities: resolutions=1 relevant=5 evaluated=5 units=4";
        ],
        "per_mapping",
        None,
        {|{"evaluator":"per_mapping","reason":"units","resolutions":1,"relevant":5,"evaluated":5,"units":4,"ops":["resolve","coverage","relevance_filter","evaluate[per_mapping]","ordered_merge","sink[answers]"]}|}
      );
      ( "forced basic",
        Ptq.compile ~force:`Basic ctx q,
        [
          "plan: evaluator=per_mapping (forced)";
          "  cardinalities: resolutions=1 relevant=5 evaluated=5 units=5";
        ],
        "per_mapping",
        None,
        {|{"evaluator":"per_mapping","reason":"forced","resolutions":1,"relevant":5,"evaluated":5,"units":5,"ops":["resolve","coverage","relevance_filter","evaluate[per_mapping]","ordered_merge","sink[answers]"]}|}
      );
      ( "forced tree",
        Ptq.compile ~force:`Tree ctx q,
        [
          "plan: evaluator=per_block (forced)";
          "  cardinalities: resolutions=1 relevant=5 evaluated=5 units=5";
        ],
        "per_block",
        None,
        {|{"evaluator":"per_block","reason":"forced","resolutions":1,"relevant":5,"evaluated":5,"units":5,"ops":["resolve","coverage","relevance_filter","evaluate[per_block]","ordered_merge","sink[answers]"]}|}
      );
      ( "k = 2",
        Ptq.compile ~k:2 ctx q,
        [
          "plan: evaluator=per_mapping (units)";
          "  cardinalities: resolutions=1 relevant=5 evaluated=2 units=1";
        ],
        "per_mapping",
        Some 2,
        {|{"evaluator":"per_mapping","reason":"units","resolutions":1,"relevant":5,"evaluated":2,"units":1,"ops":["resolve","coverage","relevance_filter","topk_prune(2)","evaluate[per_mapping]","ordered_merge","sink[answers]"]}|}
      );
    ];
  match Plan.to_json phys with
  | Uxsm_util.Json.Assoc fields ->
    Alcotest.(check bool) "json carries evaluator" true
      (List.assoc_opt "evaluator" fields = Some (Uxsm_util.Json.String "per_mapping"));
    Alcotest.(check bool) "json carries reason" true
      (List.assoc_opt "reason" fields = Some (Uxsm_util.Json.String "units"));
    Alcotest.(check bool) "json carries units" true
      (List.assoc_opt "units" fields = Some (Uxsm_util.Json.Int 4));
    (match List.assoc_opt "ops" fields with
    | Some (Uxsm_util.Json.List ops) ->
      Alcotest.(check int) "six ops without top-k" 6 (List.length ops)
    | _ -> Alcotest.fail "ops member missing")
  | _ -> Alcotest.fail "to_json must return an object"

(* ------------------------- compile / execute ------------------------ *)

let test_compile_execute_equals_query () =
  let ctx = fig_context () in
  List.iter
    (fun qs ->
      let q = Parser.parse_exn qs in
      let direct = Ptq.query_basic ctx q in
      List.iter
        (fun force ->
          let plan = Ptq.compile ~force ctx q in
          let got = Ptq.execute plan in
          Alcotest.(check bool)
            (Printf.sprintf "%s (%s) = query_basic" qs (Plan.force_to_string force))
            true
            (List.length got = List.length direct
            && List.for_all2
                 (fun (x : Ptq.answer) (y : Ptq.answer) ->
                   x.Ptq.mapping_id = y.Ptq.mapping_id
                   && Float.equal x.Ptq.probability y.Ptq.probability
                   && x.Ptq.bindings = y.Ptq.bindings)
                 got direct);
          let again = Ptq.execute plan in
          Alcotest.(check bool) "re-executing a plan is stable" true (got = again))
        [ `Auto; `Basic; `Tree ])
    [ "//IP//ICN"; "//IP"; "ORDER//ICN"; "ORDER[./SP/SCN]//ICN" ]

let test_compile_rejects_bad_k () =
  let ctx = fig_context () in
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Ptq.query_topk: k must be positive") (fun () ->
      ignore (Ptq.compile ~k:0 ctx (Parser.parse_exn "//IP")))

let suite =
  [
    Alcotest.test_case "logical op lists" `Quick test_logical_ops;
    Alcotest.test_case "names and wire words" `Quick test_names;
    Alcotest.test_case "choose reasons and no-tree fallback" `Quick test_choose_reasons;
    Alcotest.test_case "plan.* counters" `Quick test_choose_counters;
    Alcotest.test_case "describe and to_json" `Quick test_describe_and_json;
    Alcotest.test_case "compile/execute = query_basic" `Quick test_compile_execute_equals_query;
    Alcotest.test_case "compile rejects k <= 0" `Quick test_compile_rejects_bad_k;
  ]
