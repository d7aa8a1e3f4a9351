(* Tests for the extension modules: XSD import/export, aggregates,
   marginals, keyword search, probabilistic documents, and serialization. *)

module Schema = Uxsm_schema.Schema
module Xsd = Uxsm_schema.Xsd
module Doc = Uxsm_xml.Doc
module Prob_doc = Uxsm_xml.Prob_doc
module Pattern = Uxsm_twig.Pattern
module Parser = Uxsm_twig.Pattern_parser
module Matching = Uxsm_mapping.Matching
module Mapping_set = Uxsm_mapping.Mapping_set
module Serialize = Uxsm_mapping.Serialize
module Block_tree = Uxsm_blocktree.Block_tree
module Ptq = Uxsm_ptq.Ptq
module Aggregate = Uxsm_ptq.Aggregate
module Keyword = Uxsm_ptq.Keyword
module Ptq_prob = Uxsm_ptq.Ptq_prob

(* ----------------------------- XSD ------------------------------- *)

let test_xsd_import () =
  let xsd =
    {|<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Order">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="Buyer">
          <xs:complexType><xs:all>
            <xs:element name="Name"/>
            <xs:element name="City"/>
          </xs:all></xs:complexType>
        </xs:element>
        <xs:element ref="Line" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="Line">
    <xs:complexType><xs:sequence>
      <xs:element name="Qty" maxOccurs="3"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>|}
  in
  match Xsd.of_xsd_string xsd with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "six elements" 6 (Schema.size s);
    Alcotest.(check (option int)) "Order.Buyer.City resolves" (Some 3)
      (Schema.find_by_path s "Order.Buyer.City");
    let line = Option.get (Schema.find_by_path s "Order.Line") in
    Alcotest.(check bool) "Line repeatable via ref" true (Schema.repeatable s line);
    let qty = Option.get (Schema.find_by_path s "Order.Line.Qty") in
    Alcotest.(check bool) "maxOccurs=3 repeatable" true (Schema.repeatable s qty)

let test_xsd_errors () =
  let fails s =
    match Xsd.of_xsd_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected an error"
  in
  fails "<not-a-schema/>";
  fails "<xs:schema xmlns:xs=\"x\"></xs:schema>";
  fails
    "<xs:schema xmlns:xs=\"x\"><xs:element name=\"a\"><xs:complexType><xs:sequence><xs:element ref=\"a\"/></xs:sequence></xs:complexType></xs:element></xs:schema>"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* XML allows '.' in element names, but schema paths use it as separator:
   "PO.Order.Header" would name both Order.Header and Order/Header. Import
   and register reject such names with an error that names the element. *)
let test_dotted_element_names () =
  let xsd =
    {|<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PO"><xs:complexType><xs:sequence>
    <xs:element name="Order.Header"><xs:complexType><xs:sequence>
      <xs:element name="City"/>
    </xs:sequence></xs:complexType></xs:element>
    <xs:element name="Order"><xs:complexType><xs:sequence>
      <xs:element name="Header"/>
    </xs:sequence></xs:complexType></xs:element>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>|}
  in
  (match Xsd.of_xsd_string xsd with
  | Error e ->
    Alcotest.(check bool) ("XSD error names the element: " ^ e) true (contains e "Order.Header")
  | Ok _ -> Alcotest.fail "XSD with a dotted element name accepted");
  let text =
    "uxsm-matching v1\nsource-schema\n  PO\n    Order.Header\n      City\n    Order\n      Header\n\
     target-schema\n  T\n    City\ncorrespondences\n  0.5 2 1\n"
  in
  let cat = Uxsm_server.Catalog.create ~exec:Uxsm_exec.Executor.sequential () in
  match
    Uxsm_server.Catalog.register cat ~name:"dotted" ~doc_seed:1
      (Uxsm_server.Protocol.From_matching_text text)
  with
  | Error e ->
    Alcotest.(check bool) ("register error: " ^ e) true
      (contains e "bad matching text" && contains e "Order.Header")
  | Ok _ -> Alcotest.fail "register accepted a dotted element name"

let prop_xsd_round_trip =
  QCheck.Test.make ~count:100 ~name:"of_xsd (to_xsd s) = s"
    QCheck.(pair (int_range 1 1000000) (int_range 1 40))
    (fun (seed, n) ->
      let prng = Uxsm_util.Prng.create seed in
      let s = Fixtures.random_schema prng ~n in
      match Xsd.of_xsd_string (Xsd.to_xsd_string s) with
      | Ok s' -> Schema.equal s s'
      | Error _ -> false)

let test_xsd_data_files () =
  let read path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let load path =
    match Xsd.of_xsd_string (read path) with
    | Ok s -> s
    | Error e -> Alcotest.failf "cannot load %s: %s" path e
  in
  let source = load "../data/xcbl_order.xsd" in
  let target = load "../data/opentrans_order.xsd" in
  Alcotest.(check int) "xCBL excerpt size" 33 (Schema.size source);
  Alcotest.(check int) "openTRANS excerpt size" 28 (Schema.size target);
  (* ref= resolution and maxOccurs survived *)
  Alcotest.(check bool) "Party ref resolved" true
    (Schema.find_by_path source
       "OrderRequest.OrderRequestHeader.OrderParty.BuyerParty.Party.PartyName"
    <> None);
  let item =
    Option.get (Schema.find_by_path source "OrderRequest.OrderDetail.ItemDetail")
  in
  Alcotest.(check bool) "ItemDetail repeatable" true (Schema.repeatable source item);
  (* matching the two real files finds the obvious pairs *)
  let m = Uxsm_matcher.Coma.run ~source ~target () in
  Alcotest.(check bool) "currency pair found" true
    (Matching.score m
       (Option.get (Schema.find_by_path source "OrderRequest.OrderRequestHeader.Currency"))
       (Option.get (Schema.find_by_path target "ORDER.ORDER_HEADER.CURRENCY"))
    <> None)

let test_xsd_on_standards () =
  let s = Uxsm_workload.Standards.generate Uxsm_workload.Standards.apertum in
  match Xsd.of_xsd_string (Xsd.to_xsd_string s) with
  | Ok s' -> Alcotest.(check bool) "Apertum round trips" true (Schema.equal s s')
  | Error e -> Alcotest.fail e

(* ------------------------- Aggregates ----------------------------- *)

let fig_ctx () =
  let tree =
    Block_tree.build ~params:{ Block_tree.tau = 0.4; max_b = 500; max_f = 500 } Fixtures.fig3_mset
  in
  Ptq.context ~tree ~mset:Fixtures.fig3_mset ~doc:Fixtures.fig2_doc ()

let test_aggregate_count () =
  let ctx = fig_ctx () in
  let q = Parser.parse_exn "//IP//ICN" in
  let r = Aggregate.count ctx q in
  (* m1,m2,m4,m5 -> 1 match; m3 -> 0 matches. *)
  Alcotest.(check int) "two values" 2 (List.length r.Aggregate.distribution);
  let prob_of v = try List.assoc v r.Aggregate.distribution with Not_found -> 0.0 in
  Alcotest.(check (float 1e-9)) "P(count=1)" 0.8 (prob_of 1.0);
  Alcotest.(check (float 1e-9)) "P(count=0)" 0.2 (prob_of 0.0);
  Alcotest.(check (float 1e-9)) "no undefined" 0.0 r.Aggregate.undefined_mass;
  match r.Aggregate.expected with
  | Some e -> Alcotest.(check (float 1e-9)) "E[count]" 0.8 e
  | None -> Alcotest.fail "expected should be defined"

let numeric_doc =
  let open Uxsm_xml.Tree in
  Doc.of_tree
    (element "Order"
       [
         element "BP"
           [
             element "BOC" [ leaf "BCN" "10" ];
             element "ROC" [ leaf "RCN" "20" ];
             element "OOC" [ leaf "OCN" "30" ];
           ];
         element "SP" [];
       ])

let test_aggregate_sum_min_max () =
  let ctx = Ptq.context ~mset:Fixtures.fig3_mset ~doc:numeric_doc () in
  let q = Parser.parse_exn "//IP//ICN" in
  (* node 1 = ICN; values per mapping: m1/m2 -> 10, m4 -> 20, m5 -> 30,
     m3 -> none. *)
  let s = Aggregate.sum ctx ~node:1 q in
  let prob_of (r : Aggregate.t) v = try List.assoc v r.Aggregate.distribution with Not_found -> 0.0 in
  Alcotest.(check (float 1e-9)) "P(sum=10)" 0.4 (prob_of s 10.0);
  Alcotest.(check (float 1e-9)) "P(sum=0)" 0.2 (prob_of s 0.0);
  let mn = Aggregate.minimum ctx ~node:1 q in
  Alcotest.(check (float 1e-9)) "min undefined for m3" 0.2 mn.Aggregate.undefined_mass;
  (match mn.Aggregate.expected with
  | Some e -> Alcotest.(check (float 1e-9)) "E[min] over defined" 17.5 e
  | None -> Alcotest.fail "min expected defined");
  let mx = Aggregate.maximum ctx ~node:1 q in
  Alcotest.(check (float 1e-9)) "P(max=30)" 0.2 (prob_of mx 30.0);
  let avg = Aggregate.average ctx ~node:1 q in
  Alcotest.(check (float 1e-9)) "avg = min here" 17.5 (Option.get avg.Aggregate.expected)

(* -------------------------- Marginals ----------------------------- *)

let test_marginals () =
  let ctx = fig_ctx () in
  let q = Parser.parse_exn "//IP//ICN" in
  let ms = Ptq.marginals (Ptq.query_tree ctx q) in
  (* Cathy's binding appears in m1+m2 (0.4); Bob and Alice in one each. *)
  Alcotest.(check int) "three distinct matches" 3 (List.length ms);
  match ms with
  | (_, p) :: rest ->
    Alcotest.(check (float 1e-9)) "top marginal 0.4" 0.4 p;
    List.iter (fun (_, p') -> Alcotest.(check (float 1e-9)) "others 0.2" 0.2 p') rest
  | [] -> Alcotest.fail "no marginals"

(* ------------------------ Keyword search -------------------------- *)

let test_keyword_candidates_and_lca () =
  let t = Fixtures.fig1_target in
  Alcotest.(check (list int)) "SCN+ICN for 'scn'" [ Fixtures.t_scn ]
    (Keyword.element_candidates t "scn");
  Alcotest.(check int) "lca of SCN and ICN" Fixtures.t_order
    (Keyword.lca t [ Fixtures.t_scn; Fixtures.t_icn ]);
  Alcotest.(check int) "lca of single" Fixtures.t_icn (Keyword.lca t [ Fixtures.t_icn ]);
  Alcotest.(check int) "lca of nested" Fixtures.t_ip
    (Keyword.lca t [ Fixtures.t_ip; Fixtures.t_icn ])

let test_keyword_search () =
  let ctx = fig_ctx () in
  let hits = Keyword.search ctx [ "ICN" ] in
  Alcotest.(check bool) "some interpretation answers" true (hits <> []);
  let empty = Keyword.search ctx [ "nonexistent_term" ] in
  Alcotest.(check int) "unknown keyword: no interpretations" 0 (List.length empty)

(* --------------------- Probabilistic documents -------------------- *)

let test_prob_doc_basics () =
  let pd = Prob_doc.deterministic Fixtures.fig2_doc in
  Alcotest.(check (float 1e-9)) "deterministic marginal" 1.0
    (Prob_doc.marginal_prob pd (Doc.size Fixtures.fig2_doc - 1));
  let probs = Array.make (Doc.size Fixtures.fig2_doc) 1.0 in
  probs.(1) <- 0.5;
  (* BP *)
  probs.(3) <- 0.8;
  (* BCN *)
  let pd2 = Prob_doc.of_probs Fixtures.fig2_doc probs in
  Alcotest.(check (float 1e-9)) "marginal multiplies" 0.4 (Prob_doc.marginal_prob pd2 3);
  (* coexistence of BCN and RCN shares the BP ancestor: 0.5 * 0.8 * 1.0 *)
  Alcotest.(check (float 1e-9)) "coexistence shares ancestors" 0.4
    (Prob_doc.coexistence_prob pd2 [ 3; 5 ]);
  Alcotest.(check (float 1e-9)) "empty set" 1.0 (Prob_doc.coexistence_prob pd2 [])

let test_prob_doc_validation () =
  let fails f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  fails (fun () -> Prob_doc.of_probs Fixtures.fig2_doc [| 1.0 |]);
  let bad = Array.make (Doc.size Fixtures.fig2_doc) 1.0 in
  bad.(0) <- 0.5;
  fails (fun () -> Prob_doc.of_probs Fixtures.fig2_doc bad);
  let oob = Array.make (Doc.size Fixtures.fig2_doc) 1.0 in
  oob.(2) <- 1.5;
  fails (fun () -> Prob_doc.of_probs Fixtures.fig2_doc oob)

let test_ptq_prob () =
  let ctx = fig_ctx () in
  let q = Parser.parse_exn "//IP//ICN" in
  (* Deterministic document: joint = plain PTQ. *)
  let det = Prob_doc.deterministic Fixtures.fig2_doc in
  let answers = Ptq_prob.query ctx det q in
  List.iter
    (fun (a : Ptq_prob.answer) ->
      List.iter (fun (_, p) -> Alcotest.(check (float 1e-9)) "existence 1" 1.0 p) a.matches)
    answers;
  let plain = Ptq.marginals (Ptq.query_tree ctx q) in
  let joint = Ptq_prob.match_marginals ctx det q in
  Alcotest.(check int) "same matches" (List.length plain) (List.length joint);
  List.iter2
    (fun (_, p1) (_, p2) -> Alcotest.(check (float 1e-9)) "same marginals" p1 p2)
    plain joint;
  (* Uncertain document scales the marginals down. *)
  let probs = Array.make (Doc.size Fixtures.fig2_doc) 1.0 in
  probs.(1) <- 0.5;
  let pd = Prob_doc.of_probs Fixtures.fig2_doc probs in
  List.iter
    (fun (a : Ptq_prob.answer) ->
      List.iter
        (fun ((_ : Uxsm_twig.Binding.t), p) ->
          Alcotest.(check (float 1e-9)) "halved through BP" 0.5 p)
        a.matches)
    (Ptq_prob.query ctx pd q)

(* ------------------------- Serialization -------------------------- *)

let test_matching_round_trip () =
  let m = Fixtures.fig1_matching in
  match Serialize.matching_of_string (Serialize.matching_to_string m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    Alcotest.(check int) "capacity" (Matching.capacity m) (Matching.capacity m');
    List.iter2
      (fun (a : Matching.corr) (b : Matching.corr) ->
        Alcotest.(check bool) "same corr" true (a.source = b.source && a.target = b.target);
        Alcotest.(check (float 0.0)) "exact score" a.score b.score)
      (Matching.correspondences m)
      (Matching.correspondences m')

let test_mapping_set_round_trip () =
  let mset = Fixtures.fig3_mset in
  match Serialize.mapping_set_of_string (Serialize.mapping_set_to_string mset) with
  | Error e -> Alcotest.fail e
  | Ok mset' ->
    Alcotest.(check int) "size" (Mapping_set.size mset) (Mapping_set.size mset');
    List.iter2
      (fun (m1, p1) (m2, p2) ->
        Alcotest.(check bool) "same mapping" true (Uxsm_mapping.Mapping.equal m1 m2);
        Alcotest.(check (float 1e-15)) "same probability" p1 p2)
      (Mapping_set.mappings mset) (Mapping_set.mappings mset')

let test_serialize_errors () =
  (match Serialize.matching_of_string "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage matched");
  match Serialize.mapping_set_of_string "uxsm-mappings v1\nmappings\n  nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense parsed"

let prop_mapping_set_round_trip_random =
  QCheck.Test.make ~count:50 ~name:"mapping set serialization round trips"
    QCheck.(pair (int_range 1 1000000) (int_range 2 20))
    (fun (seed, h) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset = Fixtures.random_mapping_set prng ~source_n:15 ~target_n:10 ~corrs:12 ~h in
      match Serialize.mapping_set_of_string (Serialize.mapping_set_to_string mset) with
      | Error _ -> false
      | Ok mset' ->
        Mapping_set.size mset = Mapping_set.size mset'
        && List.for_all2
             (fun (m1, p1) (m2, p2) ->
               Uxsm_mapping.Mapping.equal m1 m2 && Float.abs (p1 -. p2) < 1e-12)
             (Mapping_set.mappings mset) (Mapping_set.mappings mset'))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "XSD import" `Quick test_xsd_import;
    Alcotest.test_case "XSD errors" `Quick test_xsd_errors;
    Alcotest.test_case "dotted element names rejected" `Quick test_dotted_element_names;
    Alcotest.test_case "XSD on standards" `Quick test_xsd_on_standards;
    Alcotest.test_case "XSD data files (xCBL/openTRANS excerpts)" `Quick test_xsd_data_files;
    Alcotest.test_case "aggregate COUNT on the intro example" `Quick test_aggregate_count;
    Alcotest.test_case "aggregate SUM/MIN/MAX/AVG" `Quick test_aggregate_sum_min_max;
    Alcotest.test_case "per-match marginals" `Quick test_marginals;
    Alcotest.test_case "keyword candidates and LCA" `Quick test_keyword_candidates_and_lca;
    Alcotest.test_case "keyword search" `Quick test_keyword_search;
    Alcotest.test_case "probabilistic documents" `Quick test_prob_doc_basics;
    Alcotest.test_case "prob doc validation" `Quick test_prob_doc_validation;
    Alcotest.test_case "PTQ over uncertain documents" `Quick test_ptq_prob;
    Alcotest.test_case "matching serialization" `Quick test_matching_round_trip;
    Alcotest.test_case "mapping set serialization" `Quick test_mapping_set_round_trip;
    Alcotest.test_case "serialization errors" `Quick test_serialize_errors;
    q prop_xsd_round_trip;
    q prop_mapping_set_round_trip_random;
  ]
