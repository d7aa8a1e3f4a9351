(* Twig substrate tests: pattern parser round-trips, the match engine
   against a backtracking reference, and the stack-based structural join
   against nested loops. *)

module Doc = Uxsm_xml.Doc
module Schema = Uxsm_schema.Schema
module Pattern = Uxsm_twig.Pattern
module Parser = Uxsm_twig.Pattern_parser
module Matcher = Uxsm_twig.Matcher
module Binding = Uxsm_twig.Binding
module Structural_join = Uxsm_twig.Structural_join

let table3_queries =
  [
    "Order/DeliverTo/Address[./City][./Country]/Street";
    "Order/DeliverTo/Contact/EMail";
    "Order/DeliverTo[./Address/City]/Contact/EMail";
    "Order/POLine[./LineNo]//UP";
    "Order/POLine[./LineNo][.//UP]/Quantity";
    "Order/POLine[./BPID][./LineNo][.//UP]/Quantity";
    "Order[./DeliverTo//Street]/POLine[.//BPID][.//UP]/Quantity";
    "Order[./DeliverTo[.//EMail]//Street]/POLine[.//UP]/Quantity";
    "Order[./Buyer/Contact]/POLine[.//BPID]/Quantity";
    "Order[./Buyer/Contact][./DeliverTo//City]//BPID";
  ]

let test_parser_round_trip () =
  List.iter
    (fun q ->
      match Parser.parse q with
      | Error e -> Alcotest.failf "parse %s: %s" q e
      | Ok p -> Alcotest.(check string) q q (Pattern.to_string p))
    table3_queries

let test_parser_axes_and_values () =
  let p = Parser.parse_exn "//IP//ICN" in
  Alcotest.(check bool) "descendant root" true (p.Pattern.axis = Pattern.Descendant);
  Alcotest.(check int) "two nodes" 2 (Pattern.size p);
  let p2 = Parser.parse_exn "Order/City=\"HK\"" in
  (match (Pattern.nodes p2 : Pattern.node list) with
  | [ _; city ] -> Alcotest.(check (option string)) "value" (Some "HK") city.Pattern.value
  | _ -> Alcotest.fail "expected 2 nodes");
  match Parser.parse "Order/" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing slash should not parse"

let test_matcher_fig2 () =
  let doc = Fixtures.fig2_doc in
  let q = Parser.parse_exn "//BP//BCN" in
  (match Matcher.matches q doc with
  | [ b ] -> Alcotest.(check string) "Cathy" "Cathy" (Doc.text doc b.(1))
  | l -> Alcotest.failf "expected 1 match, got %d" (List.length l));
  let q2 = Parser.parse_exn "Order/BP[./BOC/BCN]/ROC/RCN" in
  Alcotest.(check int) "predicate query matches once" 1 (Matcher.count q2 doc);
  let q3 = Parser.parse_exn "//BCN=\"Cathy\"" in
  Alcotest.(check int) "value predicate hits" 1 (Matcher.count q3 doc);
  let q4 = Parser.parse_exn "//BCN=\"Bob\"" in
  Alcotest.(check int) "value predicate misses" 0 (Matcher.count q4 doc)

let attr_doc =
  let open Uxsm_xml.Tree in
  Doc.of_tree
    (element "r"
       [
         element ~attrs:[ ("id", "1"); ("kind", "x") ] "a" [ leaf "b" "t1" ];
         element ~attrs:[ ("id", "2") ] "a" [ leaf "b" "t2" ];
       ])

(* Reference matcher: bind the pattern's nodes in pre-order by
   backtracking. A candidate for a node is any document node that passes
   its label, anchor, value and attribute checks and its axis to the bound
   parent (the root: its axis to the document root). No index, no memo. *)
let reference_matches (p : Pattern.t) doc =
  let nodes = Array.of_list (Pattern.nodes p) in
  let n = Array.length nodes in
  (* parent link and axis for each pattern node *)
  let parent = Array.make n (-1) in
  let axis = Array.make n Pattern.Child in
  let next = ref 0 in
  let rec walk (node : Pattern.node) self =
    List.iter
      (fun (a, c) ->
        incr next;
        let cid = !next in
        parent.(cid) <- self;
        axis.(cid) <- a;
        walk c cid)
      (Pattern.branches node)
  in
  walk p.Pattern.root 0;
  let b = Array.make n 0 in
  let structural i v =
    if i = 0 then
      match p.Pattern.axis with
      | Pattern.Child -> v = Doc.root doc
      | Pattern.Descendant -> true
    else
      match axis.(i) with
      | Pattern.Child -> Doc.is_parent doc b.(parent.(i)) v
      | Pattern.Descendant -> Doc.is_ancestor doc b.(parent.(i)) v
  in
  let local i v =
    (Pattern.is_wildcard nodes.(i) || String.equal (nodes.(i)).Pattern.label (Doc.label doc v))
    && (match (nodes.(i)).Pattern.anchor with
       | None -> true
       | Some path -> String.equal path (String.concat "." (Doc.path doc v)))
    && (match (nodes.(i)).Pattern.value with
       | None -> true
       | Some want -> String.equal want (Doc.text doc v))
    && List.for_all (fun (k, want) -> Doc.attr doc v k = Some want) (nodes.(i)).Pattern.attrs
  in
  let out = ref [] in
  let rec assign i =
    if i = n then out := Array.copy b :: !out
    else
      for v = 0 to Doc.size doc - 1 do
        if structural i v && local i v then begin
          b.(i) <- v;
          assign (i + 1)
        end
      done
  in
  assign 0;
  List.sort Binding.compare !out

let test_wildcards_and_attrs () =
  let q = Parser.parse_exn "r/*/b" in
  Alcotest.(check int) "wildcard step" 2 (Matcher.count q attr_doc);
  let q2 = Parser.parse_exn "//a[@id=\"2\"]/b" in
  (match Matcher.matches q2 attr_doc with
  | [ b ] -> Alcotest.(check string) "attr predicate selects" "t2" (Doc.text attr_doc b.(1))
  | l -> Alcotest.failf "expected 1 match, got %d" (List.length l));
  let q3 = Parser.parse_exn "//a[@id=\"1\"][@kind=\"x\"]" in
  Alcotest.(check int) "conjunction of attrs" 1 (Matcher.count q3 attr_doc);
  let q4 = Parser.parse_exn "//a[@id=\"1\"][@kind=\"y\"]" in
  Alcotest.(check int) "failing attr" 0 (Matcher.count q4 attr_doc);
  let q5 = Parser.parse_exn "//*" in
  Alcotest.(check int) "bare wildcard binds every element" 5 (Matcher.count q5 attr_doc);
  List.iter
    (fun qs ->
      let q = Parser.parse_exn qs in
      Alcotest.(check (list (array int))) (qs ^ ": reference agrees")
        (reference_matches q attr_doc) (Matcher.matches q attr_doc))
    [ "r/*/b"; "//a[@id=\"2\"]/b"; "//*"; "r[./*/b]//b" ]

let test_parser_wildcard_attr_round_trip () =
  List.iter
    (fun qs ->
      match Parser.parse qs with
      | Error e -> Alcotest.failf "parse %s: %s" qs e
      | Ok p -> Alcotest.(check string) qs qs (Pattern.to_string p))
    [ "r/*/b"; "//a[@id=\"2\"]/b"; "//*[@k=\"v\"]"; "a[@x=\"1\"][./b]//c" ]

let prop_matcher_vs_reference =
  QCheck.Test.make ~count:150 ~name:"matcher agrees with exhaustive reference"
    QCheck.(pair (int_range 1 1000000) (int_range 2 8))
    (fun (seed, n) ->
      let prng = Uxsm_util.Prng.create seed in
      let schema = Fixtures.random_schema prng ~n in
      let doc = Fixtures.random_doc prng schema in
      let pattern = Fixtures.random_pattern prng schema in
      Matcher.matches pattern doc = reference_matches pattern doc)

let prop_join_vs_nested_loops =
  QCheck.Test.make ~count:150 ~name:"stack join = nested-loop join"
    QCheck.(pair (int_range 1 1000000) (int_range 3 40))
    (fun (seed, n) ->
      let prng = Uxsm_util.Prng.create seed in
      let schema = Fixtures.random_schema prng ~n in
      let doc = Fixtures.random_doc prng schema in
      let sample () =
        List.filter (fun _ -> Uxsm_util.Prng.bool prng) (List.init (Doc.size doc) Fun.id)
      in
      let left = sample () and right = sample () in
      let pair_compare (a1, d1) (a2, d2) =
        match Int.compare a1 a2 with 0 -> Int.compare d1 d2 | c -> c
      in
      let check axis =
        let got =
          List.sort pair_compare (Structural_join.node_pairs doc ~axis ~left ~right)
        in
        let expect =
          List.concat_map
            (fun a ->
              List.filter_map
                (fun d ->
                  let rel =
                    match axis with
                    | Pattern.Child -> Doc.is_parent doc a d
                    | Pattern.Descendant -> Doc.is_ancestor doc a d
                  in
                  if rel then Some (a, d) else None)
                right)
            left
          |> List.sort pair_compare
        in
        got = expect
      in
      check Pattern.Child && check Pattern.Descendant)

(* The two engines, the indexed matcher and the backtracking reference,
   on unanchored patterns and on anchored ones (the only kind PTQ
   evaluation serves). Half the cases use schemas whose labels recur and
   whose elements repeat, so a node right outside a subtree often carries
   the label or path a step asks for. *)
let prop_engines_vs_reference ~anchored =
  QCheck.Test.make ~count:1500
    ~name:
      (Printf.sprintf "engines agree with exhaustive reference (%s)"
         (if anchored then "anchored" else "unanchored"))
    QCheck.(triple (int_range 1 1000000) (int_range 2 25) bool)
    (fun (seed, n, repeated) ->
      let prng = Uxsm_util.Prng.create seed in
      let schema = Fixtures.random_schema ~repeated prng ~n in
      let doc = Fixtures.random_doc prng schema in
      let pattern = Fixtures.random_pattern ~anchored prng schema in
      Matcher.matches pattern doc = reference_matches pattern doc)

(* r(a(b), a(b)): the first a's interval is [1, 2], the second a follows
   it at 3. Anchored steps must take their candidates from inside the
   interval only, not the node itself nor the one right after it. *)
let test_anchored_slice_bounds () =
  let open Uxsm_xml.Tree in
  let doc = Doc.of_tree (element "r" [ element "a" [ leaf "b" "x" ]; element "a" [ leaf "b" "y" ] ]) in
  let anchored_a next = Pattern.pattern ~axis:Pattern.Descendant (Pattern.node ~anchor:"r.a" ~next "a") in
  let nested axis = anchored_a (axis, Pattern.node ~anchor:"r.a" "a") in
  let under_a = anchored_a (Pattern.Descendant, Pattern.node ~anchor:"r.a.b" "b") in
  List.iter
    (fun (name, p, expect) ->
      Alcotest.(check (list (array int))) (name ^ " (reference)") expect (reference_matches p doc);
      Alcotest.(check (list (array int))) name expect (Matcher.matches p doc))
    [
      ("a//a binds nothing", nested Pattern.Descendant, []);
      ("a/a binds nothing", nested Pattern.Child, []);
      ("a//b binds each a to its own b", under_a, [ [| 1; 2 |]; [| 3; 4 |] ]);
    ]

(* Random binding lists for the join: width 4, left bindings own columns 0
   and 2, right ones 1 and 3; join keys come from a few nodes, so groups
   repeat. *)
let prop_array_join_vs_hashtbl_oracle =
  QCheck.Test.make ~count:300 ~name:"array join = Hashtbl join oracle, order included"
    QCheck.(pair (int_range 1 1000000) (int_range 3 30))
    (fun (seed, n) ->
      let prng = Uxsm_util.Prng.create seed in
      let schema = Fixtures.random_schema ~repeated:true prng ~n in
      let doc = Fixtures.random_doc prng schema in
      let size = Doc.size doc in
      let keys = Array.init (1 + Uxsm_util.Prng.int prng 6) (fun _ -> Uxsm_util.Prng.int prng size) in
      let bindings key_col other_col =
        List.init (Uxsm_util.Prng.int prng 14) (fun _ ->
            let b = Binding.unbound 4 in
            b.(key_col) <- Uxsm_util.Prng.pick prng keys;
            b.(other_col) <- Uxsm_util.Prng.int prng size;
            b)
      in
      let left = bindings 0 2 and right = bindings 1 3 in
      List.for_all
        (fun axis ->
          Structural_join.join_bindings doc ~axis ~left ~left_col:0 ~right ~right_col:1
          = Join_oracle.join_bindings doc ~axis ~left ~left_col:0 ~right ~right_col:1)
        [ Pattern.Child; Pattern.Descendant ])

let prop_node_pairs_vs_oracle =
  QCheck.Test.make ~count:200 ~name:"node_pairs = list-stack oracle, order included"
    QCheck.(pair (int_range 1 1000000) (int_range 3 30))
    (fun (seed, n) ->
      let prng = Uxsm_util.Prng.create seed in
      let schema = Fixtures.random_schema ~repeated:true prng ~n in
      let doc = Fixtures.random_doc prng schema in
      (* Sorted samples with duplicates. *)
      let sample () =
        List.concat_map
          (fun v -> List.init (Uxsm_util.Prng.int prng 3) (fun _ -> v))
          (List.init (Doc.size doc) Fun.id)
      in
      let left = sample () and right = sample () in
      List.for_all
        (fun axis ->
          Structural_join.node_pairs doc ~axis ~left ~right
          = Join_oracle.node_pairs doc ~axis ~left ~right)
        [ Pattern.Child; Pattern.Descendant ])

let prop_doc_interned_index =
  QCheck.Test.make ~count:300 ~name:"path ids and per-label/per-path arrays"
    QCheck.(pair (int_range 1 1000000) (int_range 1 25))
    (fun (seed, n) ->
      let prng = Uxsm_util.Prng.create seed in
      let doc = Fixtures.random_doc prng (Fixtures.random_schema ~repeated:true prng ~n) in
      let n = Doc.size doc in
      let all = List.init n Fun.id in
      let path v = String.concat "." (Doc.path doc v) in
      let ascending a =
        let ok = ref true in
        for i = 1 to Array.length a - 1 do
          if a.(i - 1) >= a.(i) then ok := false
        done;
        !ok
      in
      let ids_exact =
        List.for_all
          (fun v ->
            Doc.find_path doc (path v) = Some (Doc.path_id doc v)
            && List.for_all
                 (fun w ->
                   (Doc.path_id doc v = Doc.path_id doc w) = String.equal (path v) (path w))
                 all)
          all
      in
      let by_label =
        List.for_all
          (fun l ->
            let a = Doc.label_nodes doc l in
            ascending a
            && Array.to_list a = List.filter (fun v -> String.equal (Doc.label doc v) l) all
            && Doc.nodes_with_label doc l = Array.to_list a)
          (Doc.labels doc)
      in
      let by_path =
        List.for_all
          (fun v ->
            let a = Doc.path_nodes doc (Doc.path_id doc v) in
            ascending a
            && Array.to_list a
               = List.filter (fun w -> Doc.path_id doc w = Doc.path_id doc v) all
            && Doc.nodes_with_path doc (path v) = Array.to_list a)
          all
      in
      ids_exact && by_label && by_path
      && Doc.label_nodes doc "zz" = [||]
      && Doc.find_path doc "a.zz" = None)

let prop_binding_compare_sign =
  QCheck.Test.make ~count:1000 ~name:"Binding.compare has Stdlib.compare's sign"
    QCheck.(pair (int_range 1 1000000) bool)
    (fun (seed, same_length) ->
      let prng = Uxsm_util.Prng.create seed in
      let draw len = Array.init len (fun _ -> Uxsm_util.Prng.int prng 4 - 1) in
      let la = Uxsm_util.Prng.int prng 4 in
      let lb = if same_length then la else Uxsm_util.Prng.int prng 4 in
      let a = draw la and b = draw lb in
      let sign x = Int.compare x 0 in
      sign (Binding.compare a b) = sign (Stdlib.compare a b)
      && sign (Binding.compare b a) = sign (Stdlib.compare b a)
      && Binding.compare a (Array.copy a) = 0)

(* The matcher emits its matches strictly increasing, with no final sort:
   roots ascend, and each node's matches are the product of its branches'
   in candidate order, first branch outermost. *)
let prop_matcher_strictly_increasing =
  QCheck.Test.make ~count:1000 ~name:"matcher emits strictly increasing bindings"
    QCheck.(quad (int_range 1 1000000) (int_range 2 25) bool bool)
    (fun (seed, n, repeated, anchored) ->
      let prng = Uxsm_util.Prng.create seed in
      let schema = Fixtures.random_schema ~repeated prng ~n in
      let doc = Fixtures.random_doc prng schema in
      let pattern = Fixtures.random_pattern ~anchored prng schema in
      let rec increasing = function
        | a :: (b :: _ as rest) -> Binding.compare a b < 0 && increasing rest
        | _ -> true
      in
      increasing (Matcher.matches pattern doc))

(* Sorted lists with repeats, strictly increasing ones and unsorted ones. *)
let prop_binding_sort_uniq =
  QCheck.Test.make ~count:1000 ~name:"Binding.sort_uniq = List.sort_uniq, no copy when increasing"
    QCheck.(pair (int_range 1 1000000) (int_range 0 2))
    (fun (seed, shape) ->
      let prng = Uxsm_util.Prng.create seed in
      let l =
        List.init (Uxsm_util.Prng.int prng 8) (fun _ ->
            Array.init 2 (fun _ -> Uxsm_util.Prng.int prng 3))
      in
      let l =
        match shape with
        | 0 -> l
        | 1 -> List.sort Binding.compare l
        | _ -> List.sort_uniq Binding.compare l
      in
      let got = Binding.sort_uniq l in
      got = List.sort_uniq Binding.compare l
      && (shape <> 2 || got == l))

let prop_parser_round_trip_random =
  QCheck.Test.make ~count:150 ~name:"parse (to_string p) = p"
    QCheck.(pair (int_range 1 1000000) (int_range 2 25))
    (fun (seed, n) ->
      let prng = Uxsm_util.Prng.create seed in
      let schema = Fixtures.random_schema prng ~n in
      let p = Fixtures.random_pattern prng schema in
      match Parser.parse (Pattern.to_string p) with
      | Ok p' -> Pattern.equal p p'
      | Error _ -> false)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "Table III queries round-trip" `Quick test_parser_round_trip;
    Alcotest.test_case "parser axes and values" `Quick test_parser_axes_and_values;
    Alcotest.test_case "matcher on Figure 2" `Quick test_matcher_fig2;
    Alcotest.test_case "wildcards and attribute predicates" `Quick test_wildcards_and_attrs;
    Alcotest.test_case "wildcard/attr parser round trip" `Quick test_parser_wildcard_attr_round_trip;
    q prop_matcher_vs_reference;
    q prop_join_vs_nested_loops;
    q prop_parser_round_trip_random;
    Alcotest.test_case "anchored steps stay inside the interval" `Quick test_anchored_slice_bounds;
    q (prop_engines_vs_reference ~anchored:false);
    q (prop_engines_vs_reference ~anchored:true);
    q prop_array_join_vs_hashtbl_oracle;
    q prop_node_pairs_vs_oracle;
    q prop_doc_interned_index;
    q prop_binding_compare_sign;
    q prop_matcher_strictly_increasing;
    q prop_binding_sort_uniq;
  ]
