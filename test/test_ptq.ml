(* PTQ tests: the introduction's //IP//ICN example, Algorithm 3 vs
   Algorithm 4 equivalence, top-k semantics. *)

module Schema = Uxsm_schema.Schema
module Mapping_set = Uxsm_mapping.Mapping_set
module Block_tree = Uxsm_blocktree.Block_tree
module Pattern = Uxsm_twig.Pattern
module Parser = Uxsm_twig.Pattern_parser
module Binding = Uxsm_twig.Binding
module Ptq = Uxsm_ptq.Ptq
module Resolve = Uxsm_ptq.Resolve
module Rewrite = Uxsm_ptq.Rewrite

let fig_context ?(tau = 0.4) () =
  let tree = Block_tree.build ~params:{ Block_tree.tau; max_b = 500; max_f = 500 } Fixtures.fig3_mset in
  Ptq.context ~tree ~mset:Fixtures.fig3_mset ~doc:Fixtures.fig2_doc ()

let answer_texts ctx pattern (a : Ptq.answer) =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun (label, text) -> if label = "ICN" then Some text else None)
        (Ptq.binding_texts ctx pattern b))
    a.Ptq.bindings

let test_intro_example_basic () =
  let ctx = fig_context () in
  let q = Parser.parse_exn "//IP//ICN" in
  let answers = Ptq.query_basic ctx q in
  (* All five mappings are relevant (each maps IP and ICN). *)
  Alcotest.(check int) "five relevant mappings" 5 (List.length answers);
  let by_id i = List.find (fun (a : Ptq.answer) -> a.mapping_id = i) answers in
  Alcotest.(check (list string)) "m1 -> Cathy" [ "Cathy" ] (answer_texts ctx q (by_id 0));
  Alcotest.(check (list string)) "m2 -> Cathy" [ "Cathy" ] (answer_texts ctx q (by_id 1));
  (* m3 maps IP to the source's SUPPLIER_PARTY, unrelated to RCN: empty. *)
  Alcotest.(check (list string)) "m3 -> no match" [] (answer_texts ctx q (by_id 2));
  Alcotest.(check (list string)) "m4 -> Bob" [ "Bob" ] (answer_texts ctx q (by_id 3));
  Alcotest.(check (list string)) "m5 -> Alice" [ "Alice" ] (answer_texts ctx q (by_id 4))

let test_intro_example_consolidated () =
  let ctx = fig_context () in
  let q = Parser.parse_exn "//IP//ICN" in
  let consolidated = Ptq.consolidate (Ptq.query_basic ctx q) in
  (* Cathy via m1+m2 (0.4), then Bob / Alice / no-match at 0.2 each. *)
  Alcotest.(check int) "four distinct answer sets" 4 (List.length consolidated);
  match consolidated with
  | (_, p) :: rest ->
    Alcotest.(check (float 1e-9)) "top probability 0.4" 0.4 p;
    List.iter (fun (_, p') -> Alcotest.(check (float 1e-9)) "others 0.2" 0.2 p') rest
  | [] -> Alcotest.fail "no answers"

let test_tree_equals_basic_on_example () =
  let ctx = fig_context () in
  List.iter
    (fun qs ->
      let q = Parser.parse_exn qs in
      let a = Ptq.query_basic ctx q and b = Ptq.query_tree ctx q in
      Alcotest.(check int) (qs ^ ": same #answers") (List.length a) (List.length b);
      List.iter2
        (fun (x : Ptq.answer) (y : Ptq.answer) ->
          Alcotest.(check int) (qs ^ ": same mapping") x.mapping_id y.mapping_id;
          Alcotest.(check bool) (qs ^ ": same bindings") true (x.bindings = y.bindings))
        a b)
    [ "//IP//ICN"; "//IP"; "//SP/SCN"; "ORDER//ICN"; "ORDER[./SP/SCN]//ICN"; "//SCN" ]

(* Algorithm 3 Step 1, filter mappings: a mapping is answered iff it has a
   correspondence for every query node under some resolution. *)
let test_filter_mappings () =
  let ctx = fig_context () in
  let relevant q =
    List.map (fun (a : Ptq.answer) -> a.mapping_id) (Ptq.query_basic ctx (Parser.parse_exn q))
  in
  (* Every mapping maps ORDER and ICN; only m3 maps SP (target). *)
  Alcotest.(check (list int)) "only m3 maps target SP" [ 2 ] (relevant "//SP");
  Alcotest.(check (list int)) "all relevant" [ 0; 1; 2; 3; 4 ] (relevant "ORDER//ICN")

let test_topk () =
  let ctx = fig_context () in
  let q = Parser.parse_exn "//IP//ICN" in
  let top2 = Ptq.query_topk ctx ~k:2 q in
  Alcotest.(check int) "two answers" 2 (List.length top2);
  let all = Ptq.query_basic ctx q in
  let sorted =
    List.sort (fun (a : Ptq.answer) b -> Float.compare b.probability a.probability) all
  in
  let expected_ids =
    List.sort Int.compare
      (List.map (fun (a : Ptq.answer) -> a.mapping_id) (List.filteri (fun i _ -> i < 2) sorted))
  in
  let got_ids = List.sort Int.compare (List.map (fun (a : Ptq.answer) -> a.mapping_id) top2) in
  (* With uniform probabilities any two mappings are a valid top-2; check
     cardinality and that answers agree with the basic evaluation. *)
  Alcotest.(check int) "k answers" (List.length expected_ids) (List.length got_ids);
  List.iter
    (fun (a : Ptq.answer) ->
      let b = List.find (fun (x : Ptq.answer) -> x.mapping_id = a.mapping_id) all in
      Alcotest.(check bool) "top-k answer matches basic" true (a.bindings = b.bindings))
    top2

let test_resolution_ambiguity () =
  (* //SCN has one resolution; a label shared by two schema nodes resolves
     twice. The fig1 target has distinct labels, so build a tiny ambiguous
     schema here. *)
  let target =
    Schema.of_spec
      (Schema.spec "R"
         [ Schema.spec "A" [ Schema.spec "N" [] ]; Schema.spec "B" [ Schema.spec "N" [] ] ])
  in
  let q = Parser.parse_exn "//N" in
  Alcotest.(check int) "two resolutions" 2 (List.length (Resolve.against q target))

let test_rewrite_axis_derivation () =
  let source = Fixtures.fig1_source in
  Alcotest.(check bool) "BP parent of BOC" true
    (Rewrite.axis_for source ~parent_src:Fixtures.s_bp ~child_src:2 = Some Pattern.Child);
  Alcotest.(check bool) "BP ancestor of BCN" true
    (Rewrite.axis_for source ~parent_src:Fixtures.s_bp ~child_src:Fixtures.s_bcn
    = Some Pattern.Descendant);
  Alcotest.(check bool) "SP unrelated to BCN" true
    (Rewrite.axis_for source ~parent_src:Fixtures.s_sp ~child_src:Fixtures.s_bcn = None)

(* The central property: Algorithm 4 returns exactly Algorithm 3's answers
   on random schemas, mappings, documents, patterns and parameters. *)
let prop_tree_equals_basic =
  QCheck.Test.make ~count:120 ~name:"query_tree = query_basic (random end-to-end)"
    QCheck.(triple (int_range 1 1000000) (int_range 2 20) (QCheck.make (QCheck.Gen.float_range 0.05 0.8)))
    (fun (seed, h, tau) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset = Fixtures.random_mapping_set prng ~source_n:14 ~target_n:10 ~corrs:14 ~h in
      let tree = Block_tree.build ~params:{ Block_tree.tau; max_b = 100; max_f = 100 } mset in
      let doc = Fixtures.random_doc prng (Mapping_set.source mset) in
      let ctx = Ptq.context ~tree ~mset ~doc () in
      let pattern = Fixtures.random_pattern prng (Mapping_set.target mset) in
      let a = Ptq.query_basic ctx pattern and b = Ptq.query_tree ctx pattern in
      List.length a = List.length b
      && List.for_all2
           (fun (x : Ptq.answer) (y : Ptq.answer) ->
             x.mapping_id = y.mapping_id && x.bindings = y.bindings)
           a b)

let prop_topk_consistent =
  QCheck.Test.make ~count:80 ~name:"top-k answers are the k most probable of basic"
    QCheck.(triple (int_range 1 1000000) (int_range 2 15) (int_range 1 6))
    (fun (seed, h, k) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset = Fixtures.random_mapping_set prng ~source_n:12 ~target_n:8 ~corrs:10 ~h in
      let doc = Fixtures.random_doc prng (Mapping_set.source mset) in
      let ctx = Ptq.context ~mset ~doc () in
      let pattern = Fixtures.random_pattern prng (Mapping_set.target mset) in
      let all = Ptq.query_basic ctx pattern in
      let topk = Ptq.query_topk ctx ~k pattern in
      List.length topk = min k (List.length all)
      && List.for_all
           (fun (a : Ptq.answer) ->
             match List.find_opt (fun (x : Ptq.answer) -> x.mapping_id = a.mapping_id) all with
             | Some x -> x.bindings = a.bindings
             | None -> false)
           topk
      (* every kept mapping's probability is >= every dropped one's *)
      && List.for_all
           (fun (dropped : Ptq.answer) ->
             List.exists (fun (kept : Ptq.answer) -> kept.mapping_id = dropped.mapping_id) topk
             || List.for_all
                  (fun (kept : Ptq.answer) -> kept.probability >= dropped.probability)
                  topk)
           all)

let prop_consolidate_total_probability =
  QCheck.Test.make ~count:80 ~name:"consolidated probabilities sum to relevant mass"
    QCheck.(pair (int_range 1 1000000) (int_range 2 15))
    (fun (seed, h) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset = Fixtures.random_mapping_set prng ~source_n:12 ~target_n:8 ~corrs:10 ~h in
      let doc = Fixtures.random_doc prng (Mapping_set.source mset) in
      let ctx = Ptq.context ~mset ~doc () in
      let pattern = Fixtures.random_pattern prng (Mapping_set.target mset) in
      let answers = Ptq.query_basic ctx pattern in
      let mass = List.fold_left (fun acc (a : Ptq.answer) -> acc +. a.probability) 0.0 answers in
      let consolidated = Ptq.consolidate answers in
      let mass' = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 consolidated in
      Float.abs (mass -. mass') < 1e-9)

(* Random answer lists shaped like [execute]'s: a few distinct binding-list
   values, each held by one or more physical lists (a unit's members share
   one; structurally equal lists from different units do not), and
   probabilities drawn from a few values, sums of them included, so groups
   tie. *)
let gen_answers =
  QCheck.Gen.(
    let* values = int_range 1 5 in
    let* lists =
      list_repeat values
        (list_size (int_range 0 3) (array_size (return 3) (int_range 0 4)))
    in
    let* copies = list_repeat values (int_range 1 3) in
    (* Each value's physical lists: the first is the value itself, the rest
       fresh copies of it. *)
    let physical =
      Array.of_list
        (List.concat
           (List.map2
              (fun l c -> List.init c (fun k -> if k = 0 then l else List.map Array.copy l))
              lists copies))
    in
    let* n = int_range 0 12 in
    list_repeat n
      (let* which = int_range 0 (Array.length physical - 1) in
       let* p = oneofl [ 0.1; 0.2; 0.3; 0.1 +. 0.2; 0.05 ] in
       return (which, p))
    >|= List.mapi (fun i (which, p) ->
            { Ptq.mapping_id = i; probability = p; bindings = physical.(which) }))

let prop_consolidate_vs_oracle =
  QCheck.Test.make ~count:500 ~name:"consolidate = per-answer table oracle, order and bits"
    (QCheck.make gen_answers)
    (fun answers ->
      let got = Ptq.consolidate answers and want = Consolidate_oracle.consolidate answers in
      List.length got = List.length want
      && List.for_all2
           (fun (b1, p1) (b2, p2) ->
             b1 = b2 && Int64.equal (Int64.bits_of_float p1) (Int64.bits_of_float p2))
           got want)

let test_explain () =
  let ctx = fig_context () in
  let q = Parser.parse_exn "//IP//ICN" in
  let stats, answers = Ptq.explain ~force:`Tree ctx q in
  Alcotest.(check int) "one resolution" 1 stats.Ptq.resolutions;
  Alcotest.(check int) "five relevant" 5 stats.Ptq.relevant_mappings;
  (* IP carries block b5 ({BP~IP, BCN~ICN} for m1, m2): one shared
     evaluation covers two mappings; the rest evaluate directly. *)
  Alcotest.(check int) "one block used" 1 stats.Ptq.blocks_used;
  Alcotest.(check int) "one shared evaluation" 1 stats.Ptq.shared_evaluations;
  Alcotest.(check int) "three direct evaluations" 3 stats.Ptq.direct_evaluations;
  Alcotest.(check int) "no decomposition (IP has blocks)" 0 stats.Ptq.decompositions;
  Alcotest.(check bool) "answers = query_tree" true
    (List.for_all2
       (fun (a : Ptq.answer) (b : Ptq.answer) -> a.mapping_id = b.mapping_id && a.bindings = b.bindings)
       answers (Ptq.query_tree ctx q));
  (* Without a tree, all work is direct: Algorithm 3 evaluates each of the
     five mappings. *)
  let ctx_plain = Ptq.context ~mset:Fixtures.fig3_mset ~doc:Fixtures.fig2_doc () in
  let stats', basic = Ptq.explain ~force:`Basic ctx_plain q in
  Alcotest.(check int) "no blocks" 0 stats'.Ptq.blocks_used;
  Alcotest.(check int) "five direct" 5 stats'.Ptq.direct_evaluations;
  (* The auto plan groups m1 and m2, which send IP and ICN to the same
     source elements: four units answer the five mappings alike. *)
  let stats', auto = Ptq.explain ctx_plain q in
  Alcotest.(check int) "five relevant (auto)" 5 stats'.Ptq.relevant_mappings;
  Alcotest.(check int) "four units" 4 stats'.Ptq.plan.Uxsm_plan.Plan.units;
  Alcotest.(check int) "four direct" 4 stats'.Ptq.direct_evaluations;
  Alcotest.(check bool) "grouped answers = Algorithm 3's" true (auto = basic)

let prop_explain_consistent =
  QCheck.Test.make ~count:60 ~name:"explain answers = query_tree answers"
    QCheck.(pair (int_range 1 1000000) (int_range 2 15))
    (fun (seed, h) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset = Fixtures.random_mapping_set prng ~source_n:14 ~target_n:10 ~corrs:14 ~h in
      let tree = Block_tree.build ~params:{ Block_tree.tau = 0.2; max_b = 100; max_f = 100 } mset in
      let doc = Fixtures.random_doc prng (Mapping_set.source mset) in
      let ctx = Ptq.context ~tree ~mset ~doc () in
      let pattern = Fixtures.random_pattern prng (Mapping_set.target mset) in
      let stats, answers = Ptq.explain ctx pattern in
      let plain = Ptq.query_tree ctx pattern in
      stats.Ptq.relevant_mappings = List.length answers
      && List.length answers = List.length plain
      && List.for_all2
           (fun (a : Ptq.answer) (b : Ptq.answer) ->
             a.mapping_id = b.mapping_id && a.bindings = b.bindings)
           answers plain)

(* Table III query [i]'s plan on the catalog's "d7" corpus, at the served
   h = 100 and tau = 0.2. *)
let d7_plan cat ?k ~force i =
  let pattern = Pattern.to_string (Uxsm_workload.Queries.q i) in
  match Uxsm_server.Catalog.plan cat "d7" ~pattern ~h:100 ~tau:0.2 ~k ~force with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* An auto plan runs Algorithm 3 once per evaluation unit: one execution
   of each served Table III plan evaluates exactly its units directly,
   shares nothing through the block tree, joins nothing, and answers as
   forced Algorithm 3 does. *)
let test_auto_runs_units () =
  let module Obs = Uxsm_obs.Obs in
  let cat = Uxsm_server.Catalog.create ~exec:Uxsm_exec.Executor.sequential () in
  (match
     Uxsm_server.Catalog.register cat ~name:"d7" ~doc_seed:Uxsm_workload.Gen_doc.default_seed
       (Uxsm_server.Protocol.From_dataset (Uxsm_workload.Dataset.d7, 42))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let direct = Obs.counter "ptq.direct_evaluations"
  and shared = Obs.counter "ptq.shared_evaluations"
  and joins = Obs.counter "ptq.joins" in
  List.iter
    (fun (i, k) ->
      let name = Printf.sprintf "Q%d%s" i (if k = None then "" else " k=10") in
      let plan = d7_plan cat ?k ~force:`Auto i in
      let d0 = Obs.value direct and s0 = Obs.value shared and j0 = Obs.value joins in
      let answers = Ptq.execute plan in
      Alcotest.(check int) (name ^ ": direct = units") (Ptq.physical plan).Uxsm_plan.Plan.units
        (Obs.value direct - d0);
      Alcotest.(check int) (name ^ ": no shared evaluation") 0 (Obs.value shared - s0);
      Alcotest.(check int) (name ^ ": no join") 0 (Obs.value joins - j0);
      Alcotest.(check bool) (name ^ ": answers = forced basic") true
        (answers = Ptq.execute (d7_plan cat ?k ~force:`Basic i)))
    (List.init 10 (fun i -> (i + 1, None)) @ List.init 6 (fun i -> (i + 4, Some 10)))

(* The minor words one warm Table III query (Q4-Q10) may allocate in
   [Ptq.execute] plus [consolidate], on the cached D7 plans a served query
   runs (h = 100, tau = 0.2, the default evaluator). Measured medians, dev
   build: 4.1-8.9 k words with Algorithm 3 over the units (5.7-9.8 k when
   auto plans ran Algorithm 4 on Q1-Q9); a hash-memoized matcher building
   full-width bindings and a per-answer consolidate read 20.8-32.4 k, which
   this bound rejects. *)
let max_warm_query_minor_words = 13_000.0

let test_warm_query_allocation () =
  let module Catalog = Uxsm_server.Catalog in
  let cat = Catalog.create ~exec:Uxsm_exec.Executor.sequential () in
  (match
     Catalog.register cat ~name:"d7" ~doc_seed:Uxsm_workload.Gen_doc.default_seed
       (Uxsm_server.Protocol.From_dataset (Uxsm_workload.Dataset.d7, 42))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun i ->
      let pattern = Pattern.to_string (Uxsm_workload.Queries.q i) in
      let plan =
        match Catalog.plan cat "d7" ~pattern ~h:100 ~tau:0.2 ~k:None ~force:`Auto with
        | Ok p -> p
        | Error e -> Alcotest.fail e
      in
      ignore (Ptq.consolidate (Ptq.execute plan));
      let words =
        List.init 21 (fun _ ->
            let w0 = Gc.minor_words () in
            ignore (Sys.opaque_identity (Ptq.consolidate (Ptq.execute plan)));
            Gc.minor_words () -. w0)
      in
      let median = List.nth (List.sort Float.compare words) 10 in
      if median > max_warm_query_minor_words then
        Alcotest.failf "Q%d: a warm execution allocated %.0f minor words, above %.0f" i median
          max_warm_query_minor_words)
    [ 4; 5; 6; 7; 8; 9; 10 ]

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "introduction example: per-mapping answers" `Quick test_intro_example_basic;
    Alcotest.test_case "introduction example: consolidated" `Quick test_intro_example_consolidated;
    Alcotest.test_case "Algorithm 4 = Algorithm 3 on the example" `Quick test_tree_equals_basic_on_example;
    Alcotest.test_case "filter_mappings" `Quick test_filter_mappings;
    Alcotest.test_case "top-k PTQ" `Quick test_topk;
    Alcotest.test_case "ambiguous label resolution" `Quick test_resolution_ambiguity;
    Alcotest.test_case "rewrite axis derivation" `Quick test_rewrite_axis_derivation;
    Alcotest.test_case "explain (EXPLAIN of Algorithm 4)" `Quick test_explain;
    Alcotest.test_case "auto plans run Algorithm 3 once per unit (D7)" `Quick test_auto_runs_units;
    Alcotest.test_case "warm D7 query allocation bound" `Quick test_warm_query_allocation;
    q prop_explain_consistent;
    q prop_tree_equals_basic;
    q prop_topk_consistent;
    q prop_consolidate_total_probability;
    q prop_consolidate_vs_oracle;
  ]
