(* Integration tests: the full pipeline (standards -> matcher -> top-h ->
   block tree -> PTQ) on the small Table II datasets, plus cross-algorithm
   agreement at workload scale. *)

module Schema = Uxsm_schema.Schema
module Matching = Uxsm_mapping.Matching
module Mapping = Uxsm_mapping.Mapping
module Mapping_set = Uxsm_mapping.Mapping_set
module Murty = Uxsm_assignment.Murty
module Partition = Uxsm_assignment.Partition
module Block_tree = Uxsm_blocktree.Block_tree
module Ptq = Uxsm_ptq.Ptq
module Dataset = Uxsm_workload.Dataset
module Standards = Uxsm_workload.Standards
module Gen_doc = Uxsm_workload.Gen_doc
module Queries = Uxsm_workload.Queries

let d1 = Option.get (Dataset.find "D1")
let d4 = Option.get (Dataset.find "D4")

let test_mapping_set_properties () =
  List.iter
    (fun d ->
      let mset = Mapping_set.generate ~h:50 (Dataset.matching d) in
      let probs = List.map snd (Mapping_set.mappings mset) in
      let total = List.fold_left ( +. ) 0.0 probs in
      Alcotest.(check (float 1e-9)) "probabilities sum to 1" 1.0 total;
      let scores = List.map (fun (m, _) -> Mapping.score m) (Mapping_set.mappings mset) in
      let sorted_desc = List.sort (fun a b -> Float.compare b a) scores in
      Alcotest.(check bool) "scores non-increasing" true
        (List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) scores sorted_desc))
    [ d1; d4 ]

let test_murty_agrees_with_partition_on_datasets () =
  List.iter
    (fun d ->
      let g = Matching.to_bipartite (Dataset.matching d) in
      let a = Murty.top ~h:40 g and b = Partition.top ~h:40 g in
      Alcotest.(check int) (d.Dataset.id ^ " same count") (List.length a) (List.length b);
      List.iter2
        (fun (x : Murty.solution) (y : Murty.solution) ->
          Alcotest.(check bool)
            (d.Dataset.id ^ " same score sequence")
            true
            (Float.abs (x.score -. y.score) < 1e-9))
        a b)
    [ d1; d4 ]

let test_block_tree_on_dataset () =
  let mset = Mapping_set.generate ~h:60 (Dataset.matching d4) in
  let tree = Block_tree.build mset in
  (match Block_tree.validate tree with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "some blocks exist" true (Block_tree.n_blocks tree > 0)

let test_ptq_pipeline_on_dataset () =
  (* Full PTQ on D4 (Noris -> Paragon) with a query built from the target
     schema so it resolves by construction. *)
  let mset = Mapping_set.generate ~h:60 (Dataset.matching d4) in
  let target = Mapping_set.target mset in
  let doc = Gen_doc.generate ~target_nodes:400 (Mapping_set.source mset) in
  let tree = Block_tree.build mset in
  let ctx = Ptq.context ~tree ~mset ~doc () in
  (* query: the root with its first two children as branches *)
  let root = Schema.root target in
  let query =
    match Schema.children target root with
    | c1 :: c2 :: _ ->
      Uxsm_twig.Pattern.pattern
        (Uxsm_twig.Pattern.node
           ~preds:[ (Uxsm_twig.Pattern.Child, Uxsm_twig.Pattern.node (Schema.label target c1)) ]
           ~next:(Uxsm_twig.Pattern.Descendant, Uxsm_twig.Pattern.node (Schema.label target c2))
           (Schema.label target root))
    | _ -> Alcotest.fail "target root needs two children"
  in
  let basic = Ptq.query_basic ctx query in
  let tree_answers = Ptq.query_tree ctx query in
  Alcotest.(check int) "same answer count" (List.length basic) (List.length tree_answers);
  List.iter2
    (fun (a : Ptq.answer) (b : Ptq.answer) ->
      Alcotest.(check int) "same mapping" a.mapping_id b.mapping_id;
      Alcotest.(check bool) "same bindings" true (a.bindings = b.bindings))
    basic tree_answers

let test_d7_full_stack () =
  (* The headline configuration: D7, |M|=100, Order.xml-sized document, all
     ten queries answered identically by Algorithms 3 and 4. Slow. *)
  let mset = Mapping_set.generate ~h:100 (Dataset.matching Dataset.d7) in
  let doc = Gen_doc.generate (Mapping_set.source mset) in
  let tree = Block_tree.build mset in
  (match Block_tree.validate tree with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let ctx = Ptq.context ~tree ~mset ~doc () in
  List.iter
    (fun (id, q) ->
      let basic = Ptq.query_basic ctx q in
      let fast = Ptq.query_tree ctx q in
      Alcotest.(check int) (id ^ ": all mappings relevant") 100 (List.length basic);
      Alcotest.(check bool) (id ^ ": tree = basic") true
        (List.for_all2
           (fun (a : Ptq.answer) (b : Ptq.answer) ->
             a.mapping_id = b.mapping_id && a.bindings = b.bindings)
           basic fast))
    Queries.table3

(* Regression pins: the deterministic D7 workload must keep producing the
   exact headline numbers EXPERIMENTS.md reports. A failure here means a
   generator or algorithm change silently altered the reproduction. *)
let test_d7_regression_pins () =
  let m = Dataset.matching Dataset.d7 in
  Alcotest.(check int) "capacity" 226 (Matching.capacity m);
  let mset = Mapping_set.generate ~h:100 m in
  let o = Mapping_set.average_o_ratio mset in
  Alcotest.(check bool) "o-ratio in [0.88, 0.96]" true (o >= 0.88 && o <= 0.96);
  let tree = Block_tree.build mset in
  Alcotest.(check int) "126 c-blocks at defaults" 126 (Block_tree.n_blocks tree);
  let sizes = Block_tree.block_sizes tree in
  Alcotest.(check int) "largest block 32 corrs" 32 (List.fold_left max 0 sizes);
  let ratio = Block_tree.compression_ratio tree in
  Alcotest.(check bool) "compression near 20%" true (ratio > 0.15 && ratio < 0.25);
  let doc = Gen_doc.generate (Mapping_set.source mset) in
  Alcotest.(check int) "Order.xml node count" 3473 (Uxsm_xml.Doc.size doc)

(* Output pins recorded before the twig layer moved to the document's
   interned index: one digest over every D7 Table III answer (mapping id,
   probability bits, bindings) under each evaluator, with and without
   top-k, through the catalog's compiled plans. *)
let d7_table3_digest = "f33c5d471a0759d3808157ccd18cca0a"

let test_d7_table3_answers_pinned () =
  let module Catalog = Uxsm_server.Catalog in
  let module Protocol = Uxsm_server.Protocol in
  let module Executor = Uxsm_exec.Executor in
  let cat = Catalog.create ~exec:Executor.sequential () in
  (match
     Catalog.register cat ~name:"d7" ~doc_seed:Gen_doc.default_seed
       (Protocol.From_dataset (Dataset.d7, Dataset.default_seed))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let buf = Buffer.create 65536 in
  List.iter
    (fun (id, q) ->
      let pattern = Uxsm_twig.Pattern.to_string q in
      List.iter
        (fun force ->
          List.iter
            (fun k ->
              match
                Catalog.plan cat "d7" ~pattern ~h:Protocol.default_h ~tau:Protocol.default_tau ~k
                  ~force
              with
              | Error e -> Alcotest.fail e
              | Ok p ->
                Printf.bprintf buf "%s %s %s\n" id
                  (Uxsm_plan.Plan.force_to_string force)
                  (match k with None -> "all" | Some k -> string_of_int k);
                List.iter
                  (fun (a : Ptq.answer) ->
                    Printf.bprintf buf "%d %Lx" a.mapping_id (Int64.bits_of_float a.probability);
                    List.iter
                      (fun (b : Uxsm_twig.Binding.t) ->
                        Buffer.add_char buf ' ';
                        Array.iteri
                          (fun i v -> Printf.bprintf buf (if i = 0 then "%d" else ",%d") v)
                          b)
                      a.bindings;
                    Buffer.add_char buf '\n')
                  (Ptq.execute p))
            [ None; Some 10 ])
        [ `Auto; `Basic; `Tree ])
    Queries.table3;
  Alcotest.(check string) "Q1-Q10 x evaluators x {all, k=10}" d7_table3_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    Alcotest.test_case "mapping sets: probabilities and order" `Slow test_mapping_set_properties;
    Alcotest.test_case "murty = partition on datasets" `Slow test_murty_agrees_with_partition_on_datasets;
    Alcotest.test_case "block tree on D4" `Slow test_block_tree_on_dataset;
    Alcotest.test_case "PTQ pipeline on D4" `Slow test_ptq_pipeline_on_dataset;
    Alcotest.test_case "D7 full stack, ten queries" `Slow test_d7_full_stack;
    Alcotest.test_case "D7 regression pins" `Slow test_d7_regression_pins;
    Alcotest.test_case "D7 Table III answers pinned" `Slow test_d7_table3_answers_pinned;
  ]
