(* Robustness batch: fuzzing all parsers (they must return Error, never
   crash), and cross-cutting invariants that tie parameters to structure
   (tau monotonicity, top-k limits, Murty prefix stability). *)

module Schema = Uxsm_schema.Schema
module Mapping_set = Uxsm_mapping.Mapping_set
module Murty = Uxsm_assignment.Murty
module Block_tree = Uxsm_blocktree.Block_tree
module Ptq = Uxsm_ptq.Ptq

let gen_garbage =
  let open QCheck.Gen in
  let chars = "<>/&\"'[]()=. \n\tabcXYZ123;:-#!" in
  let* n = int_range 0 60 in
  let* ixs = flatten_l (List.init n (fun _ -> int_range 0 (String.length chars - 1))) in
  return (String.init n (fun i -> chars.[List.nth ixs i]))

let arb_garbage = QCheck.make gen_garbage ~print:(Printf.sprintf "%S")

let total_parser name parse =
  QCheck.Test.make ~count:500 ~name arb_garbage (fun s ->
      match parse s with
      | Ok _ | Error _ -> true)

let prop_xml_parser_total = total_parser "XML parser never crashes on garbage" Uxsm_xml.Parser.parse

let prop_pattern_parser_total =
  total_parser "pattern parser never crashes on garbage" Uxsm_twig.Pattern_parser.parse

let prop_schema_text_total = total_parser "schema text parser never crashes" Schema.of_string

let prop_xsd_total =
  total_parser "XSD importer never crashes" (fun s -> Uxsm_schema.Xsd.of_xsd_string s)

let prop_serialize_total =
  total_parser "matching deserializer never crashes" Uxsm_mapping.Serialize.matching_of_string

let prop_mapping_set_deserialize_total =
  total_parser "mapping-set deserializer never crashes"
    Uxsm_mapping.Serialize.mapping_set_of_string

(* With unbounded MAX_B/MAX_F, raising tau can only remove c-blocks. *)
let prop_blocks_monotone_in_tau =
  QCheck.Test.make ~count:60 ~name:"#c-blocks is non-increasing in tau"
    QCheck.(pair (int_range 1 1000000) (int_range 3 20))
    (fun (seed, h) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset = Fixtures.random_mapping_set prng ~source_n:20 ~target_n:12 ~corrs:16 ~h in
      let count tau =
        Block_tree.n_blocks
          (Block_tree.build ~params:{ Block_tree.tau; max_b = 100000; max_f = 100000 } mset)
      in
      let counts = List.map count [ 0.05; 0.2; 0.4; 0.6; 0.8 ] in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      non_increasing counts)

(* top-k with k = |M| is exactly the full query. *)
let prop_topk_full_equals_query =
  QCheck.Test.make ~count:60 ~name:"top-k at k=|M| equals the full PTQ"
    QCheck.(pair (int_range 1 1000000) (int_range 2 12))
    (fun (seed, h) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset = Fixtures.random_mapping_set prng ~source_n:12 ~target_n:8 ~corrs:10 ~h in
      let doc = Fixtures.random_doc prng (Mapping_set.source mset) in
      let tree = Block_tree.build mset in
      let ctx = Ptq.context ~tree ~mset ~doc () in
      let pattern = Fixtures.random_pattern prng (Mapping_set.target mset) in
      let full = Ptq.query_tree ctx pattern in
      let topk = Ptq.query_topk ctx ~k:(Mapping_set.size mset) pattern in
      List.length full = List.length topk
      && List.for_all2
           (fun (a : Ptq.answer) (b : Ptq.answer) ->
             a.mapping_id = b.mapping_id && a.bindings = b.bindings)
           full topk)

(* Growing h only appends solutions: top(h1) scores prefix top(h2). *)
let prop_murty_prefix_stable =
  QCheck.Test.make ~count:100 ~name:"Murty top-h scores are prefix-stable in h"
    QCheck.(pair (int_range 1 1000000) (int_range 1 10))
    (fun (seed, h1) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset = Fixtures.random_mapping_set prng ~source_n:10 ~target_n:8 ~corrs:10 ~h:2 in
      let g = Uxsm_mapping.Matching.to_bipartite (Mapping_set.matching mset) in
      let h2 = h1 + 1 + Uxsm_util.Prng.int prng 10 in
      let scores h = List.map (fun (s : Murty.solution) -> s.score) (Murty.top ~h g) in
      let s1 = scores h1 and s2 = scores h2 in
      List.for_all2 Float.equal s1 (List.filteri (fun i _ -> i < List.length s1) s2))

let prop_keyword_limit =
  QCheck.Test.make ~count:60 ~name:"keyword interpretations respect the limit"
    QCheck.(pair (int_range 1 1000000) (int_range 1 8))
    (fun (seed, limit) ->
      let prng = Uxsm_util.Prng.create seed in
      let schema = Fixtures.random_schema prng ~n:20 in
      let terms = [ "e"; "1" ] in
      List.length (Uxsm_ptq.Keyword.interpretations ~limit schema terms) <= limit)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    q prop_xml_parser_total;
    q prop_pattern_parser_total;
    q prop_schema_text_total;
    q prop_xsd_total;
    q prop_serialize_total;
    q prop_mapping_set_deserialize_total;
    q prop_blocks_monotone_in_tau;
    q prop_topk_full_equals_query;
    q prop_murty_prefix_stable;
    q prop_keyword_limit;
  ]
