(* Workload tests: standard schema generation (sizes, query paths,
   determinism), document generation (node counts, conformance), and the
   Table III query set. *)

module Schema = Uxsm_schema.Schema
module Doc = Uxsm_xml.Doc
module Standards = Uxsm_workload.Standards
module Gen_doc = Uxsm_workload.Gen_doc
module Queries = Uxsm_workload.Queries
module Dataset = Uxsm_workload.Dataset
module Resolve = Uxsm_ptq.Resolve

let all_styles =
  [
    Standards.excel; Standards.noris; Standards.paragon; Standards.opentrans;
    Standards.apertum; Standards.xcbl; Standards.cidx;
  ]

let test_style_sizes () =
  List.iter
    (fun st ->
      let s = Standards.generate st in
      Alcotest.(check int) (Standards.style_name st) (Standards.style_size st) (Schema.size s))
    all_styles

let test_paths_unique () =
  List.iter
    (fun st ->
      let s = Standards.generate st in
      List.iter
        (fun e ->
          Alcotest.(check (option int))
            (Standards.style_name st ^ ": " ^ Schema.path_string s e)
            (Some e)
            (Schema.find_by_path s (Schema.path_string s e)))
        (Schema.elements s))
    [ Standards.apertum; Standards.cidx; Standards.xcbl ]

let test_apertum_query_paths () =
  let a = Standards.generate Standards.apertum in
  List.iter
    (fun p ->
      Alcotest.(check bool) p true (Schema.find_by_path a p <> None))
    [
      "Order"; "Order.Buyer.Contact"; "Order.DeliverTo.Address.City";
      "Order.DeliverTo.Address.Country"; "Order.DeliverTo.Address.Street";
      "Order.DeliverTo.Contact.EMail"; "Order.POLine.LineNo"; "Order.POLine.BuyerPartID";
      "Order.POLine.Quantity"; "Order.POLine.Pricing.UnitPrice";
    ]

let test_generation_deterministic () =
  let a = Standards.generate ~seed:5 Standards.apertum in
  let b = Standards.generate ~seed:5 Standards.apertum in
  Alcotest.(check bool) "same seed, same schema" true (Schema.equal a b);
  (* Apertum is padded with seed-dependent filler; Noris has no filler at
     all (its core already exceeds 66 elements), so seeds only matter for
     padded styles. *)
  let c = Standards.generate ~seed:6 Standards.apertum in
  Alcotest.(check bool) "different seed differs" true (not (Schema.equal a c))

let test_queries_parse_and_resolve () =
  let a = Standards.generate Standards.apertum in
  Alcotest.(check int) "ten queries" 10 (List.length Queries.table3);
  List.iter
    (fun (id, q) ->
      let rs = Resolve.against q a in
      Alcotest.(check bool) (id ^ " resolves") true (rs <> []))
    Queries.table3

let test_document_size_and_conformance () =
  let x = Standards.generate Standards.xcbl in
  let doc = Gen_doc.generate x in
  Alcotest.(check int) "3473 nodes like Order.xml" 3473 (Doc.size doc);
  (* Conformance: every document path is a schema path. *)
  let ok = ref true in
  for v = 0 to Doc.size doc - 1 do
    let p = String.concat "." (Doc.path doc v) in
    if Schema.find_by_path x p = None then ok := false
  done;
  Alcotest.(check bool) "document conforms to schema" true !ok

let test_document_leaf_values () =
  let x = Standards.generate Standards.xcbl in
  let doc = Gen_doc.generate x in
  (* Every leaf element carries non-empty text. *)
  let ok = ref true in
  for v = 0 to Doc.size doc - 1 do
    if Doc.children doc v = [] && String.length (Doc.text doc v) = 0 then ok := false
  done;
  Alcotest.(check bool) "leaves have values" true !ok;
  Alcotest.(check bool) "deterministic" true
    (Doc.size (Gen_doc.generate x) = Doc.size doc)

let test_leaf_value_heuristics () =
  let prng = Uxsm_util.Prng.create 1 in
  let is_int s = match int_of_string_opt s with Some _ -> true | None -> false in
  Alcotest.(check bool) "quantity numeric" true (is_int (Gen_doc.leaf_value prng "Quantity"));
  Alcotest.(check bool) "id numeric" true (is_int (Gen_doc.leaf_value prng "BuyerPartID"));
  let mail = Gen_doc.leaf_value prng "EMail" in
  Alcotest.(check bool) "email-ish" true (String.contains mail '@')

let test_small_document_fallback () =
  let s = Standards.generate Standards.cidx in
  (* target below schema size: single instance *)
  let doc = Gen_doc.generate ~target_nodes:10 s in
  Alcotest.(check int) "single instance" (Schema.size s) (Doc.size doc)

let test_dataset_capacities () =
  (* The small datasets are cheap enough to check exactly in tests; the
     XCBL-sized ones are covered by the bench. *)
  List.iter
    (fun id ->
      let d = Option.get (Dataset.find id) in
      let m = Dataset.matching d in
      Alcotest.(check int) (id ^ " capacity") d.capacity
        (Uxsm_mapping.Matching.capacity m))
    [ "D1"; "D2"; "D3"; "D4"; "D5" ]

(* Generated documents, pinned by digest of their XML text: the D1-D10
   source schemas at the default size under document seeds 7 and 42, and
   D2 at 500 nodes under three onboard-style schema seeds (a fresh corpus
   seed per registration, the default document seed). *)
let generated_docs_digest = "5a760ac277225f2faafe8d932f999981"

let test_generated_documents_pinned () =
  let buf = Buffer.create (1 lsl 20) in
  let add doc = Buffer.add_string buf (Uxsm_xml.Printer.to_string (Doc.subtree doc (Doc.root doc))) in
  List.iter
    (fun (d : Dataset.t) ->
      let schema = Standards.generate d.Dataset.source in
      List.iter (fun seed -> add (Gen_doc.generate ~seed schema)) [ 7; 42 ])
    Dataset.all;
  let d2 = Option.get (Dataset.find "D2") in
  List.iter
    (fun seed ->
      add (Gen_doc.generate ~target_nodes:500 (Standards.generate ~seed d2.Dataset.source)))
    [ 1_110_000; 1_110_001; 1_119_999 ];
  Alcotest.(check string) "digest" generated_docs_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Every call runs the matcher, which is deterministic: a second call for
   the same (dataset, seed) is a fresh value equal to the first. *)
let test_matching_deterministic () =
  let d2 = Option.get (Dataset.find "D2") in
  let first = Dataset.matching ~seed:9001 d2 in
  let again = Dataset.matching ~seed:9001 d2 in
  Alcotest.(check bool) "each call computes its own matching" false (again == first);
  Alcotest.(check string) "and recomputes to the same matching"
    (Uxsm_mapping.Serialize.matching_to_string first)
    (Uxsm_mapping.Serialize.matching_to_string again)

let suite =
  [
    Alcotest.test_case "style sizes match Table II" `Quick test_style_sizes;
    Alcotest.test_case "paths unique" `Quick test_paths_unique;
    Alcotest.test_case "Apertum has the query paths" `Quick test_apertum_query_paths;
    Alcotest.test_case "generation deterministic" `Quick test_generation_deterministic;
    Alcotest.test_case "Table III queries parse and resolve" `Quick test_queries_parse_and_resolve;
    Alcotest.test_case "Order.xml size and conformance" `Slow test_document_size_and_conformance;
    Alcotest.test_case "document leaf values" `Slow test_document_leaf_values;
    Alcotest.test_case "leaf value heuristics" `Quick test_leaf_value_heuristics;
    Alcotest.test_case "small document fallback" `Quick test_small_document_fallback;
    Alcotest.test_case "small dataset capacities" `Slow test_dataset_capacities;
    Alcotest.test_case "generated documents pinned" `Slow test_generated_documents_pinned;
    Alcotest.test_case "Dataset.matching deterministic" `Quick test_matching_deterministic;
  ]
