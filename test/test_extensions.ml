(* Tests for the extension modules: XSD import/export, keyword search and
   serialization. *)

module Schema = Uxsm_schema.Schema
module Xsd = Uxsm_schema.Xsd
module Pattern = Uxsm_twig.Pattern
module Matching = Uxsm_mapping.Matching
module Mapping_set = Uxsm_mapping.Mapping_set
module Serialize = Uxsm_mapping.Serialize
module Block_tree = Uxsm_blocktree.Block_tree
module Ptq = Uxsm_ptq.Ptq
module Keyword = Uxsm_ptq.Keyword

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

(* ------------------------ Keyword search -------------------------- *)

let fig_ctx () =
  let tree =
    Block_tree.build ~params:{ Block_tree.tau = 0.4; max_b = 500; max_f = 500 } Fixtures.fig3_mset
  in
  Ptq.context ~tree ~mset:Fixtures.fig3_mset ~doc:Fixtures.fig2_doc ()

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

(* Keyword search on a Table II dataset: what `uxsm keyword D7 quantity
   unitprice` computes, its context assembled as the CLI assembles it
   (catalog-prepared mapping set and block tree, catalog document).
   Probabilities are compared by their bits. *)
let test_keyword_search_d7 () =
  let module Catalog = Uxsm_server.Catalog in
  let module Protocol = Uxsm_server.Protocol in
  let module Dataset = Uxsm_workload.Dataset in
  let ok = function Ok x -> x | Error e -> Alcotest.fail e in
  let cat = Catalog.create ~exec:Uxsm_exec.Executor.sequential () in
  ignore
    (ok
       (Catalog.register cat ~name:"d7" ~doc_seed:Uxsm_workload.Gen_doc.default_seed
          (Protocol.From_dataset (Dataset.d7, Dataset.default_seed))));
  let mset, tree = ok (Catalog.prepared cat "d7" ~h:100 ~tau:Protocol.default_tau) in
  let doc = ok (Catalog.doc cat "d7") in
  let ctx = Ptq.context ~tree ~mset ~doc () in
  let got =
    List.map
      (fun (hit : Keyword.hit) ->
        ( Pattern.to_string hit.Keyword.pattern,
          List.map
            (fun (bindings, p) -> (List.length bindings, Int64.bits_of_float p))
            hit.Keyword.answers ))
      (Keyword.search ctx [ "quantity"; "unitprice" ])
  in
  Alcotest.(check (list (pair string (list (pair int int64)))))
    "interpretations, answer-set sizes and probability bits"
    [
      ("//POLine[.//UnitPrice]//Quantity", [ (75, 0x3ff0000000000003L) ]);
      ("//POLine[.//DeliverQuantity]//UnitPrice", [ (75, 0x3ff0000000000003L) ]);
    ]
    got

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
    Alcotest.test_case "keyword candidates and LCA" `Quick test_keyword_candidates_and_lca;
    Alcotest.test_case "keyword search" `Quick test_keyword_search;
    Alcotest.test_case "keyword search on D7" `Quick test_keyword_search_d7;
    Alcotest.test_case "matching serialization" `Quick test_matching_round_trip;
    Alcotest.test_case "mapping set serialization" `Quick test_mapping_set_round_trip;
    Alcotest.test_case "serialization errors" `Quick test_serialize_errors;
    q prop_xsd_round_trip;
    q prop_mapping_set_round_trip_random;
  ]
