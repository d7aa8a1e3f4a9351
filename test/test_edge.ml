(* Edge-case batch: small contracts not covered by the per-module suites. *)

module Schema = Uxsm_schema.Schema
module Doc = Uxsm_xml.Doc
module Tree = Uxsm_xml.Tree
module Binding = Uxsm_twig.Binding
module Pattern = Uxsm_twig.Pattern
module Parser = Uxsm_twig.Pattern_parser
module Murty = Uxsm_assignment.Murty
module Partition = Uxsm_assignment.Partition
module Bipartite = Uxsm_assignment.Bipartite
module Block = Uxsm_blocktree.Block
module Timing = Uxsm_util.Timing

let test_binding_merge_conflict () =
  let a = Binding.unbound 3 and b = Binding.unbound 3 in
  a.(1) <- 5;
  b.(1) <- 6;
  (match Binding.merge a b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlapping merge must fail");
  let c = Binding.unbound 2 in
  match Binding.merge a c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "size mismatch must fail"

let test_pattern_accessors () =
  let p = Parser.parse_exn "A[./B][./C/D]//E" in
  Alcotest.(check int) "size" 5 (Pattern.size p);
  Alcotest.(check (list string)) "labels in pre-order" [ "A"; "B"; "C"; "D"; "E" ]
    (Pattern.labels p);
  let root = p.Pattern.root in
  Alcotest.(check int) "three branches" 3 (List.length (Pattern.branches root));
  Alcotest.(check bool) "preds before next" true
    (match Pattern.branches root with
    | (_, b) :: (_, c) :: (_, e) :: [] ->
      b.Pattern.label = "B" && c.Pattern.label = "C" && e.Pattern.label = "E"
    | _ -> false)

let test_murty_h_zero () =
  let g = Bipartite.create ~n_left:2 ~n_right:2 [ (0, 0, 1.0) ] in
  Alcotest.(check int) "h=0 murty" 0 (List.length (Murty.top ~h:0 g));
  Alcotest.(check int) "h=0 partition" 0 (List.length (Partition.top ~h:0 g));
  Alcotest.(check int) "merge h=0" 0
    (List.length (Partition.merge ~h:0 [ { Murty.pairs = []; score = 0.0 } ]
                    [ { Murty.pairs = []; score = 0.0 } ]))

let test_block_source_of_misses () =
  let b = Block.create ~anchor:3 ~corrs:[ (1, 3); (5, 4) ] ~mappings:[ 0; 2; 7 ] in
  Alcotest.(check (option int)) "hit first" (Some 1) (Block.source_of b 3);
  Alcotest.(check (option int)) "hit second" (Some 5) (Block.source_of b 4);
  Alcotest.(check (option int)) "miss below" None (Block.source_of b 2);
  Alcotest.(check (option int)) "miss above" None (Block.source_of b 9);
  Alcotest.(check bool) "mem present" true (Block.mem_mapping b 7);
  Alcotest.(check bool) "mem absent" false (Block.mem_mapping b 3)

let test_timing () =
  let x, dt = Timing.time (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0);
  let per_run = Timing.time_n ~warmup:1 5 (fun () -> ()) in
  Alcotest.(check bool) "time_n sane" true (per_run >= 0.0 && per_run < 1.0);
  let per_run' = Timing.repeat_until ~min_runs:3 ~min_seconds:0.0 (fun () -> ()) in
  Alcotest.(check bool) "repeat_until sane" true (per_run' >= 0.0)

let test_printer_attrs_and_self_closing () =
  let t = Tree.element ~attrs:[ ("b", "2"); ("a", "1") ] "x" [] in
  let s = Uxsm_xml.Printer.to_string t in
  Alcotest.(check string) "attr order preserved" "<x b=\"2\" a=\"1\"/>" s;
  match Uxsm_xml.Parser.parse s with
  | Ok t' -> Alcotest.(check bool) "round trip" true (Tree.equal t t')
  | Error e -> Alcotest.fail (Uxsm_xml.Parser.error_to_string e)

let test_doc_attr_access () =
  let t = Tree.element ~attrs:[ ("k", "v") ] "x" [ Tree.leaf "y" "z" ] in
  let doc = Doc.of_tree t in
  Alcotest.(check (option string)) "attr hit" (Some "v") (Doc.attr doc 0 "k");
  Alcotest.(check (option string)) "attr miss" None (Doc.attr doc 0 "nope");
  Alcotest.(check (list (pair string string))) "attrs list" [ ("k", "v") ] (Doc.attrs doc 0);
  Alcotest.(check (list (pair string string))) "no attrs" [] (Doc.attrs doc 1)

let test_gen_doc_multiple_repeatables () =
  (* Two repeatable subtrees of different sizes: the planner fills the big
     one first, then absorbs the remainder with the 1-node one. *)
  let schema =
    Schema.of_spec
      (Schema.spec "r"
         [
           Schema.spec ~repeatable:true "big"
             [ Schema.spec "a" []; Schema.spec "b" []; Schema.spec "c" [] ];
           Schema.spec ~repeatable:true "note" [];
         ])
  in
  let doc = Uxsm_workload.Gen_doc.generate ~target_nodes:50 schema in
  Alcotest.(check int) "exact node count" 50 (Doc.size doc)

let test_schema_single_element () =
  let s = Schema.of_spec (Schema.spec "only" []) in
  Alcotest.(check int) "size 1" 1 (Schema.size s);
  Alcotest.(check int) "height 0" 0 (Schema.height s);
  Alcotest.(check int) "fanout 0" 0 (Schema.max_fanout s);
  Alcotest.(check (list int)) "root is leaf" [ 0 ] (Schema.leaves s)

let suite =
  [
    Alcotest.test_case "binding merge conflicts" `Quick test_binding_merge_conflict;
    Alcotest.test_case "pattern accessors" `Quick test_pattern_accessors;
    Alcotest.test_case "murty/partition h=0" `Quick test_murty_h_zero;
    Alcotest.test_case "block binary searches" `Quick test_block_source_of_misses;
    Alcotest.test_case "timing helpers" `Quick test_timing;
    Alcotest.test_case "printer attrs + self-closing" `Quick test_printer_attrs_and_self_closing;
    Alcotest.test_case "doc attribute access" `Quick test_doc_attr_access;
    Alcotest.test_case "doc generator with two repeatables" `Quick test_gen_doc_multiple_repeatables;
    Alcotest.test_case "single-element schema" `Quick test_schema_single_element;
  ]
