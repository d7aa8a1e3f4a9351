(* B2B purchase-order integration: the paper's D7 scenario at full scale.

   A buyer's system speaks XCBL (1076 elements), a supplier's catalogue
   follows an Apertum-style schema (166 elements). COMA++-style matching
   yields 226 correspondences with plenty of ambiguity; we keep the top-100
   possible mappings, compress them into a block tree, and answer the
   Table III twig queries over a 3473-node order document — with
   probabilities instead of a single guessed answer.

   Run with: dune exec examples/b2b_purchase_order.exe *)

module Schema = Uxsm_schema.Schema
module Doc = Uxsm_xml.Doc
module Matching = Uxsm_mapping.Matching
module Mapping_set = Uxsm_mapping.Mapping_set
module Block_tree = Uxsm_blocktree.Block_tree
module Ptq = Uxsm_ptq.Ptq
module Dataset = Uxsm_workload.Dataset
module Gen_doc = Uxsm_workload.Gen_doc
module Queries = Uxsm_workload.Queries
module Pattern = Uxsm_twig.Pattern

let () =
  let d7 = Dataset.d7 in
  Printf.printf "building the D7 workload (XCBL -> Apertum)...\n%!";
  let matching = Dataset.matching d7 in
  Printf.printf "  matching: %d correspondences between %d and %d elements\n%!"
    (Matching.capacity matching)
    (Schema.size (Matching.source matching))
    (Schema.size (Matching.target matching));

  let mset = Mapping_set.generate ~h:100 matching in
  Printf.printf "  top-100 possible mappings, o-ratio %.2f\n%!"
    (Mapping_set.average_o_ratio mset);

  let tree = Block_tree.build mset in
  Printf.printf "  block tree: %d c-blocks, compression %.1f%%\n%!"
    (Block_tree.n_blocks tree)
    (100.0 *. Block_tree.compression_ratio tree);

  let doc = Gen_doc.generate (Matching.source matching) in
  Printf.printf "  source document: %d element nodes\n%!" (Doc.size doc);

  let ctx = Ptq.context ~tree ~mset ~doc () in
  List.iter
    (fun (id, q) ->
      let answers = Ptq.query_tree ctx q in
      let consolidated = Ptq.consolidate answers in
      let nonempty = List.filter (fun (bs, _) -> bs <> []) consolidated in
      Printf.printf "\n%s: %s\n" id (Pattern.to_string q);
      Printf.printf "  %d relevant mappings, %d distinct answer sets (%d non-empty)\n"
        (List.length answers) (List.length consolidated) (List.length nonempty);
      (* Show the two most probable distinct answer sets, by match count. *)
      List.iteri
        (fun i (bindings, p) ->
          if i < 2 then
            Printf.printf "  p=%.2f: %s\n" p
              (match bindings with
              | [] -> "no match in the document"
              | _ -> Printf.sprintf "%d matches" (List.length bindings)))
        consolidated)
    Queries.table3;

  (* Drill into one query: distribution of the buyer part ids returned. *)
  let q = Queries.q10 in
  Printf.printf "\n== drill-down: %s ==\n" (Pattern.to_string q);
  let per_answer = Ptq.consolidate (Ptq.query_tree ctx q) in
  List.iteri
    (fun i (bindings, p) ->
      if i < 3 then begin
        let texts =
          List.concat_map
            (fun b ->
              List.filter_map
                (fun (label, text) -> if label = "BuyerPartID" then Some text else None)
                (Ptq.binding_texts ctx q b))
            bindings
          |> List.sort_uniq compare
        in
        Printf.printf "  p=%.2f -> BuyerPartID in {%s}%s\n" p
          (String.concat ", " (List.filteri (fun j _ -> j < 5) texts))
          (if List.length texts > 5 then ", ..." else "")
      end)
    per_answer
