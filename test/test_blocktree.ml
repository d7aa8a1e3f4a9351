(* Block tree tests: the paper's running example (Figures 4-5) plus
   property tests of Definition 2 and lossless compression. *)

module Schema = Uxsm_schema.Schema
module Mapping_set = Uxsm_mapping.Mapping_set
module Block = Uxsm_blocktree.Block
module Block_tree = Uxsm_blocktree.Block_tree

let fig_tree () =
  Block_tree.build
    ~params:{ Block_tree.tau = 0.4; max_b = 500; max_f = 500 }
    Fixtures.fig3_mset

let block_key (b : Block.t) =
  (Array.to_list b.corrs, Array.to_list b.mappings)

let check_blocks name expected got =
  (* lint: allow poly-compare — block keys are pairs of scalar lists; structural order is fine for set equality *)
  let norm l = List.sort compare (List.map block_key l) in
  Alcotest.(check bool) name true (norm expected = norm got)

let test_leaf_blocks_icn () =
  let t = fig_tree () in
  (* Figure 4(a): b1 = {(BCN,ICN)} m1,m2 and b2 = {(RCN,ICN)} m3,m4 are
     c-blocks; {(OCN,ICN)} has one mapping only. *)
  let open Fixtures in
  check_blocks "blocks at ICN"
    [
      Block.create ~anchor:t_icn ~corrs:[ (s_bcn, t_icn) ] ~mappings:[ 0; 1 ];
      Block.create ~anchor:t_icn ~corrs:[ (s_rcn, t_icn) ] ~mappings:[ 2; 3 ];
    ]
    (Block_tree.blocks_at t t_icn)

let test_leaf_blocks_scn () =
  let t = fig_tree () in
  (* Figure 5: {(OCN,SCN)} m2,m3 and {(BCN,SCN)} m4,m5. *)
  let open Fixtures in
  check_blocks "blocks at SCN"
    [
      Block.create ~anchor:t_scn ~corrs:[ (s_ocn, t_scn) ] ~mappings:[ 1; 2 ];
      Block.create ~anchor:t_scn ~corrs:[ (s_bcn, t_scn) ] ~mappings:[ 3; 4 ];
    ]
    (Block_tree.blocks_at t t_scn)

let test_non_leaf_blocks_ip () =
  let t = fig_tree () in
  (* Figure 5: the only c-block at IP is {(BP,IP), (BCN,ICN)} for m1,m2. *)
  let open Fixtures in
  check_blocks "blocks at IP"
    [ Block.create ~anchor:t_ip ~corrs:[ (s_bp, t_ip); (s_bcn, t_icn) ] ~mappings:[ 0; 1 ] ]
    (Block_tree.blocks_at t t_ip)

let test_no_blocks_at_sp_and_order () =
  let t = fig_tree () in
  let open Fixtures in
  Alcotest.(check int) "no blocks at SP" 0 (List.length (Block_tree.blocks_at t t_sp));
  (* Lemma 2: SP has no c-block, so ORDER cannot have one either. *)
  Alcotest.(check int) "no blocks at ORDER" 0 (List.length (Block_tree.blocks_at t t_order))

let test_hash_table () =
  let t = fig_tree () in
  let open Fixtures in
  (* Figure 5(b): entries for ORDER.IP, ORDER.IP.ICN, ORDER.SP.SCN. *)
  Alcotest.(check (option int)) "ORDER.IP" (Some t_ip) (Block_tree.lookup_path t "ORDER.IP");
  Alcotest.(check (option int)) "ORDER.IP.ICN" (Some t_icn) (Block_tree.lookup_path t "ORDER.IP.ICN");
  Alcotest.(check (option int)) "ORDER.SP.SCN" (Some t_scn) (Block_tree.lookup_path t "ORDER.SP.SCN");
  Alcotest.(check (option int)) "no entry for ORDER" None (Block_tree.lookup_path t "ORDER");
  Alcotest.(check (option int)) "no entry for ORDER.SP" None (Block_tree.lookup_path t "ORDER.SP")

let test_total_blocks_and_validation () =
  let t = fig_tree () in
  Alcotest.(check int) "5 c-blocks in total" 5 (Block_tree.n_blocks t);
  match Block_tree.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_threshold_rounding () =
  (* tau * |M| = 0.4 * 5 = 2 exactly; threshold must be 2, not 3. *)
  let t = fig_tree () in
  Alcotest.(check int) "threshold" 2 (Block_tree.threshold t);
  (* With tau just above 2/5 the pairs no longer qualify. *)
  let t' =
    Block_tree.build ~params:{ Block_tree.tau = 0.41; max_b = 500; max_f = 500 } Fixtures.fig3_mset
  in
  Alcotest.(check int) "threshold 3 kills all pair blocks" 0 (Block_tree.n_blocks t')

let test_compression_is_lossless () =
  let t = fig_tree () in
  (* m1's compressed form must contain the IP block (covering BP~IP and
     BCN~ICN), the SCN leaf block is not applicable to m1 (m1 maps RCN~SCN,
     a singleton group), so RCN~SCN and Order~ORDER remain residual. *)
  let items = Block_tree.compressed_corrs_of_mapping t 0 in
  let blocks = List.filter (function `Block _ -> true | `Corr _ -> false) items in
  Alcotest.(check int) "m1 uses one block pointer" 1 (List.length blocks);
  let corrs = List.filter (function `Corr _ -> true | `Block _ -> false) items in
  Alcotest.(check int) "m1 keeps two residual corrs" 2 (List.length corrs)

let test_compression_ratio_positive () =
  let t = fig_tree () in
  let r = Block_tree.compression_ratio t in
  Alcotest.(check bool) "storage accounting is sane" true (r > -1.0 && r < 1.0)

(* τ outside (0, 1] is refused, NaN included: NaN compares false both
   ways, so a guard written as [tau <= 0 || tau > 1] lets it through. *)
let test_tau_out_of_range_refused () =
  List.iter
    (fun tau ->
      match Block_tree.build ~params:{ Block_tree.default_params with tau } Fixtures.fig3_mset with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "tau %g was accepted" tau)
    [ Float.nan; 0.0; -0.1; 1.0000001; Float.infinity ];
  (* The closed end is accepted. *)
  ignore (Block_tree.build ~params:{ Block_tree.default_params with tau = 1.0 } Fixtures.fig3_mset)

let test_max_b_caps_non_leaf_blocks () =
  let t =
    Block_tree.build ~params:{ Block_tree.tau = 0.4; max_b = 0; max_f = 500 } Fixtures.fig3_mset
  in
  (* max_b = 0 forbids non-leaf blocks; the four leaf blocks survive. *)
  Alcotest.(check int) "leaf blocks only" 4 (Block_tree.n_blocks t);
  Alcotest.(check int) "no IP block" 0 (List.length (Block_tree.blocks_at t Fixtures.t_ip))

(* Property: on random mapping sets, the built tree always validates. *)
let prop_random_tree_validates =
  QCheck.Test.make ~count:60 ~name:"random block trees validate (Definition 2 + lossless)"
    QCheck.(triple (int_range 1 1000000) (int_range 2 30) (QCheck.make (QCheck.Gen.float_range 0.05 0.9)))
    (fun (seed, h, tau) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset =
        Fixtures.random_mapping_set prng ~source_n:25 ~target_n:15 ~corrs:20 ~h
      in
      let tree = Block_tree.build ~params:{ Block_tree.tau; max_b = 200; max_f = 200 } mset in
      match Block_tree.validate tree with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* Property: every block's mapping set is maximal at leaf level — adding any
   other mapping would break b.C ⊆ m. *)
let prop_leaf_blocks_maximal =
  QCheck.Test.make ~count:60 ~name:"leaf blocks contain every mapping sharing the corr"
    QCheck.(pair (int_range 1 1000000) (int_range 2 25))
    (fun (seed, h) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset = Fixtures.random_mapping_set prng ~source_n:20 ~target_n:12 ~corrs:15 ~h in
      let tree = Block_tree.build ~params:{ Block_tree.tau = 0.2; max_b = 200; max_f = 200 } mset in
      let target = Mapping_set.target mset in
      let leaf_ok y =
        List.for_all
          (fun (b : Block.t) ->
            List.for_all
              (fun i ->
                Block.mem_mapping b i
                || not (Block.subset_of_mapping b (Mapping_set.mapping mset i)))
              (List.init (Mapping_set.size mset) Fun.id))
          (Block_tree.blocks_at tree y)
      in
      List.for_all leaf_ok (Schema.leaves target))

(* The block trees of D1–D10's top-100 sets at the default parameters:
   storage accounting, the bits of the compression ratio and the block
   count. Recorded while the compression pass still ran inside every
   build, so they pin the on-demand pass to the same result. *)
let dataset_pins =
  [
    ("D1", 13480, -4624365383532138684L, 17);
    ("D2", 37824, -4625405405081714448L, 36);
    ("D3", 13492, -4620394342434130672L, 19);
    ("D4", 24848, -4623823815544365944L, 20);
    ("D5", 13104, -4620441150538805920L, 18);
    ("D6", 46192, -4624600340558852100L, 37);
    ("D7", 69544, 4596463025338320148L, 126);
    ("D8", 26088, 4595824340539789016L, 51);
    ("D9", 104544, 4593808529346577984L, 146);
    ("D10", 103016, 4594267296028619456L, 140);
  ]

let test_dataset_trees_pinned () =
  let module Dataset = Uxsm_workload.Dataset in
  List.iter
    (fun (id, bytes, ratio_bits, n_blocks) ->
      let d = Option.get (Dataset.find id) in
      let tree = Block_tree.build (Mapping_set.generate ~h:100 (Dataset.matching d)) in
      Alcotest.(check int) (id ^ " storage_bytes") bytes (Block_tree.storage_bytes tree);
      Alcotest.(check int64)
        (id ^ " compression_ratio bits")
        ratio_bits
        (Int64.bits_of_float (Block_tree.compression_ratio tree));
      Alcotest.(check int) (id ^ " n_blocks") n_blocks (Block_tree.n_blocks tree))
    dataset_pins

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "Figure 4(a): leaf blocks at ICN" `Quick test_leaf_blocks_icn;
    Alcotest.test_case "Figure 5: leaf blocks at SCN" `Quick test_leaf_blocks_scn;
    Alcotest.test_case "Figure 5: non-leaf block at IP" `Quick test_non_leaf_blocks_ip;
    Alcotest.test_case "Lemma 2: no blocks at SP/ORDER" `Quick test_no_blocks_at_sp_and_order;
    Alcotest.test_case "Figure 5(b): hash table" `Quick test_hash_table;
    Alcotest.test_case "five blocks total; validates" `Quick test_total_blocks_and_validation;
    Alcotest.test_case "threshold rounding at tau*|M| integral" `Quick test_threshold_rounding;
    Alcotest.test_case "mapping compression on m1" `Quick test_compression_is_lossless;
    Alcotest.test_case "compression ratio in range" `Quick test_compression_ratio_positive;
    Alcotest.test_case "tau outside (0,1], NaN included, refused" `Quick
      test_tau_out_of_range_refused;
    Alcotest.test_case "MAX_B caps non-leaf blocks" `Quick test_max_b_caps_non_leaf_blocks;
    q prop_random_tree_validates;
    q prop_leaf_blocks_maximal;
    Alcotest.test_case "D1-D10 h=100 storage, ratio and blocks pinned" `Quick
      test_dataset_trees_pinned;
  ]
