(* Schema tree tests: construction, navigation, text format round trips,
   and the schema-as-XML bridge used by query resolution. *)

module Schema = Uxsm_schema.Schema
module Doc = Uxsm_xml.Doc

let fig1 = Fixtures.fig1_source

let test_navigation () =
  Alcotest.(check int) "size" 9 (Schema.size fig1);
  Alcotest.(check string) "root label" "Order" (Schema.label fig1 (Schema.root fig1));
  Alcotest.(check (option int)) "BP parent" (Some 0) (Schema.parent fig1 Fixtures.s_bp);
  Alcotest.(check (list int)) "BP children" [ 2; 4; 6 ] (Schema.children fig1 Fixtures.s_bp);
  Alcotest.(check int) "BP subtree size" 7 (Schema.subtree_size fig1 Fixtures.s_bp);
  Alcotest.(check bool) "BP ancestor of BCN" true (Schema.is_ancestor fig1 Fixtures.s_bp Fixtures.s_bcn);
  Alcotest.(check bool) "BCN not ancestor of BP" false
    (Schema.is_ancestor fig1 Fixtures.s_bcn Fixtures.s_bp);
  Alcotest.(check bool) "not self-ancestor" false (Schema.is_ancestor fig1 Fixtures.s_bp Fixtures.s_bp);
  Alcotest.(check int) "height" 3 (Schema.height fig1);
  Alcotest.(check int) "max fanout" 3 (Schema.max_fanout fig1);
  Alcotest.(check (list int)) "leaves" [ 3; 5; 7; 8 ] (Schema.leaves fig1)

let test_paths () =
  Alcotest.(check string) "path string" "Order.BP.ROC.RCN" (Schema.path_string fig1 Fixtures.s_rcn);
  Alcotest.(check (option int)) "find_by_path" (Some Fixtures.s_rcn)
    (Schema.find_by_path fig1 "Order.BP.ROC.RCN");
  Alcotest.(check (option int)) "missing path" None (Schema.find_by_path fig1 "Order.Nope");
  Alcotest.(check (list int)) "find_by_label multi" [ 2; 3; 4; 5; 6; 7 ]
    (List.concat_map (Schema.find_by_label fig1) [ "BOC"; "BCN"; "ROC"; "RCN"; "OOC"; "OCN" ])

let test_subtree_contiguity () =
  (* Pre-order ids of a subtree are contiguous, which the block tree and
     PTQ decomposition rely on. *)
  List.iter
    (fun e ->
      let elems = Schema.subtree_elements fig1 e in
      Alcotest.(check (list int)) "contiguous"
        (List.init (Schema.subtree_size fig1 e) (fun i -> e + i))
        elems)
    (Schema.elements fig1)

let test_text_round_trip () =
  let s = Schema.to_string fig1 in
  match Schema.of_string s with
  | Ok schema -> Alcotest.(check bool) "round trip" true (Schema.equal fig1 schema)
  | Error e -> Alcotest.fail e

let test_text_format_errors () =
  let fails s =
    match Schema.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected failure on %S" s
  in
  fails "";
  fails "  indented_root";
  fails "a\nb";  (* two roots *)
  fails "a\n   odd_indent"

(* Paths join names with '.', so a name containing one (or an empty name)
   is rejected at every construction entry point. *)
let test_element_name_checks () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (match Schema.of_string "PO\n  Order.Header\n    City\n  Order\n    Header\n" with
  | Error e ->
    Alcotest.(check bool) ("error names the element: " ^ e) true (contains e "Order.Header")
  | Ok _ -> Alcotest.fail "dotted name accepted by of_string");
  let raises spec =
    match Schema.of_spec spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "of_spec accepted a bad name"
  in
  raises (Schema.spec "PO" [ Schema.spec "Order" [ Schema.spec "a.b" [] ] ]);
  raises (Schema.spec "" [ Schema.spec "c" [] ]);
  Alcotest.(check bool) "check_names accepts plain names" true
    (Schema.check_names (Schema.spec "PO" [ Schema.spec "Order_Header-2" [] ]) = Ok ())

let test_repeatable_marker () =
  let s = Schema.of_spec (Schema.spec "a" [ Schema.spec ~repeatable:true "b" [] ]) in
  Alcotest.(check bool) "b repeatable" true (Schema.repeatable s 1);
  let text = Schema.to_string s in
  Alcotest.(check bool) "star marker" true (String.length text > 0 && String.contains text '*');
  match Schema.of_string text with
  | Ok s' -> Alcotest.(check bool) "repeatable round trip" true (Schema.equal s s')
  | Error e -> Alcotest.fail e

let test_to_xml_tree_alignment () =
  (* Doc indexing of the schema tree must assign ids equal to element ids. *)
  let doc = Doc.of_tree (Schema.to_xml_tree fig1) in
  Alcotest.(check int) "same size" (Schema.size fig1) (Doc.size doc);
  List.iter
    (fun e ->
      Alcotest.(check string) "same label" (Schema.label fig1 e) (Doc.label doc e);
      Alcotest.(check (option int)) "same parent" (Schema.parent fig1 e) (Doc.parent doc e))
    (Schema.elements fig1)

let prop_random_schema_invariants =
  QCheck.Test.make ~count:150 ~name:"random schemas: paths unique, sizes consistent"
    QCheck.(pair (int_range 1 1000000) (int_range 1 60))
    (fun (seed, n) ->
      let prng = Uxsm_util.Prng.create seed in
      let s = Fixtures.random_schema prng ~n in
      Schema.size s = n
      && List.for_all
           (fun e -> Schema.find_by_path s (Schema.path_string s e) = Some e)
           (Schema.elements s)
      && Schema.subtree_size s (Schema.root s) = n)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "navigation" `Quick test_navigation;
    Alcotest.test_case "paths" `Quick test_paths;
    Alcotest.test_case "subtree contiguity" `Quick test_subtree_contiguity;
    Alcotest.test_case "text format round trip" `Quick test_text_round_trip;
    Alcotest.test_case "text format errors" `Quick test_text_format_errors;
    Alcotest.test_case "element names: no '.', not empty" `Quick test_element_name_checks;
    Alcotest.test_case "repeatable marker" `Quick test_repeatable_marker;
    Alcotest.test_case "to_xml_tree id alignment" `Quick test_to_xml_tree_alignment;
    q prop_random_schema_invariants;
  ]
