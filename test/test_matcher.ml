(* Matcher tests: name similarities, synonym closure, structural measures,
   and the COMA-style composite matcher with capacity tuning. *)

module Name_sim = Uxsm_matcher.Name_sim
module Structure_sim = Uxsm_matcher.Structure_sim
module Coma = Uxsm_matcher.Coma
module Schema = Uxsm_schema.Schema
module Matching = Uxsm_mapping.Matching

let test_tokenize () =
  let check name expect = Alcotest.(check (list string)) name expect (Name_sim.tokenize name) in
  check "BuyerPartID" [ "buyer"; "part"; "id" ];
  check "BUYER_PART_ID" [ "buyer"; "part"; "id" ];
  check "buyer-part.id" [ "buyer"; "part"; "id" ];
  check "POLine" [ "po"; "line" ];
  check "Item2" [ "item"; "2" ];
  check "EMail" [ "e"; "mail" ];
  Alcotest.(check (list string)) "empty" [] (Name_sim.tokenize "")

let test_levenshtein () =
  let check a b expect = Alcotest.(check int) (a ^ "/" ^ b) expect (Name_sim.levenshtein a b) in
  check "" "" 0;
  check "abc" "" 3;
  check "kitten" "sitting" 3;
  check "order" "order" 0;
  check "order" "odrer" 2

let test_similarity_ranges () =
  Alcotest.(check (float 1e-9)) "identical" 1.0 (Name_sim.edit_similarity "City" "city");
  Alcotest.(check (float 1e-9)) "identical trigram" 1.0 (Name_sim.trigram_similarity "City" "CITY");
  let s = Name_sim.combined "completely" "different" in
  Alcotest.(check bool) "in range" true (s >= 0.0 && s <= 1.0)

let test_synonym_closure () =
  let syn = Name_sim.synonyms () in
  (* order~purchase and order~po imply purchase~po (transitive closure) *)
  Alcotest.(check (float 1e-9)) "purchase~po" 1.0
    (Name_sim.token_similarity ~synonyms:syn "Purchase" "PO");
  Alcotest.(check (float 1e-9)) "deliver~ship" 1.0
    (Name_sim.token_similarity ~synonyms:syn "Deliver" "Ship");
  let custom = Name_sim.synonyms ~extra:[ ("foo", "bar") ] () in
  Alcotest.(check (float 1e-9)) "extra pair" 1.0
    (Name_sim.token_similarity ~synonyms:custom "foo" "bar")

let test_structure_sims () =
  let name_sim = Name_sim.combined ?synonyms:None in
  let s = Fixtures.fig1_source and t = Fixtures.fig1_target in
  (* identical leaf sets -> 1; disjoint -> below *)
  Alcotest.(check (float 1e-9)) "both leaves" 1.0
    (Structure_sim.children_similarity ~name_sim s Fixtures.s_bcn t Fixtures.t_icn);
  let ps = Structure_sim.path_similarity ~name_sim s Fixtures.s_bcn t Fixtures.t_icn in
  Alcotest.(check bool) "path sim in range" true (ps > 0.0 && ps < 1.0);
  Alcotest.(check (float 1e-9)) "soft set: both empty" 1.0
    (Structure_sim.soft_set_similarity ~name_sim [] []);
  Alcotest.(check (float 1e-9)) "soft set: one empty" 0.0
    (Structure_sim.soft_set_similarity ~name_sim [ "a" ] [])

let small_source =
  Schema.of_spec
    (Schema.spec "Order"
       [
         Schema.spec "Buyer" [ Schema.spec "City" []; Schema.spec "Street" [] ];
         Schema.spec "Lines" [ Schema.spec "Quantity" [] ];
       ])

let small_target =
  Schema.of_spec
    (Schema.spec "Purchase"
       [
         Schema.spec "Customer" [ Schema.spec "City" []; Schema.spec "Road" [] ];
         Schema.spec "Items" [ Schema.spec "Qty" [] ];
       ])

let test_matcher_finds_expected () =
  let m = Coma.run ~source:small_source ~target:small_target () in
  let has sp tp =
    let x = Option.get (Schema.find_by_path small_source sp) in
    let y = Option.get (Schema.find_by_path small_target tp) in
    Matching.score m x y <> None
  in
  Alcotest.(check bool) "Order~Purchase" true (has "Order" "Purchase");
  Alcotest.(check bool) "Buyer~Customer" true (has "Order.Buyer" "Purchase.Customer");
  Alcotest.(check bool) "City~City" true (has "Order.Buyer.City" "Purchase.Customer.City");
  Alcotest.(check bool) "Street~Road" true (has "Order.Buyer.Street" "Purchase.Customer.Road");
  Alcotest.(check bool) "Quantity~Qty" true (has "Order.Lines.Quantity" "Purchase.Items.Qty");
  Alcotest.(check bool) "no City~Qty" true (not (has "Order.Buyer.City" "Purchase.Items.Qty"))

let test_scores_quantized () =
  let m = Coma.run ~source:small_source ~target:small_target () in
  List.iter
    (fun (c : Matching.corr) ->
      let scaled = c.score *. 50.0 in
      Alcotest.(check (float 1e-6)) "multiple of 0.02" (Float.round scaled) scaled)
    (Matching.correspondences m)

let test_capacity_tuning () =
  List.iter
    (fun cap ->
      let m =
        Coma.run_with_capacity ~strategy:Coma.Context ~capacity:cap ~source:small_source
          ~target:small_target ()
      in
      Alcotest.(check int) (Printf.sprintf "capacity %d" cap) cap (Matching.capacity m))
    [ 1; 3; 5 ]

let test_both_direction_selection () =
  (* delta-band selection: kept pairs are within delta (0.12) of both
     elements' best scores. *)
  let delta = 0.12 in
  let m = Coma.run ~source:small_source ~target:small_target () in
  let best tbl key v = Hashtbl.replace tbl key (max v (try Hashtbl.find tbl key with Not_found -> 0.0)) in
  let best_s = Hashtbl.create 8 and best_t = Hashtbl.create 8 in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let s = Coma.pair_score Coma.Context small_source x small_target y in
          best best_s x s;
          best best_t y s)
        (Schema.elements small_target))
    (Schema.elements small_source);
  List.iter
    (fun (c : Matching.corr) ->
      let raw = Coma.pair_score Coma.Context small_source c.source small_target c.target in
      Alcotest.(check bool) "within delta of row best" true
        (raw >= Hashtbl.find best_s c.source -. delta -. 1e-9);
      Alcotest.(check bool) "within delta of col best" true
        (raw >= Hashtbl.find best_t c.target -. delta -. 1e-9))
    (Matching.correspondences m)

(* ------------------- interned scoring = reference -------------------- *)

module Name_table = Uxsm_matcher.Name_table
module Executor = Uxsm_exec.Executor
module Prng = Uxsm_util.Prng

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Words from the default synonym table, in assorted cases, so that
   synonym hits and near-misses both occur. *)
let synonym_words =
  [| "order"; "PO"; "Purchase"; "buyer"; "Customer"; "id"; "No"; "Number"; "Qty"; "quantity";
     "Ship"; "deliver"; "Delivery"; "zip"; "postal"; "EMail"; "mail"; "line"; "ITEM"; "Vendor" |]

(* A random label of length [0, 80], so labels fall on both sides of the
   63-byte limit of the bit-parallel edit distance: synonym words, letter
   runs (some one long lowercase token of 58-70 bytes, for the token-level
   limit), digits, separators and bytes >= 128, truncated to the drawn
   length. *)
let random_label prng =
  let len = Prng.int prng 81 in
  let buf = Buffer.create len in
  let letters n ~mixed =
    for _ = 1 to n do
      let c = Char.chr (Char.code 'a' + Prng.int prng 26) in
      Buffer.add_char buf (if mixed && Prng.bool prng then Char.uppercase_ascii c else c)
    done
  in
  while Buffer.length buf < len do
    match Prng.int prng 7 with
    | 0 | 1 -> Buffer.add_string buf (Prng.pick prng synonym_words)
    | 2 -> letters (1 + Prng.int prng 7) ~mixed:true
    | 3 -> letters (58 + Prng.int prng 13) ~mixed:false
    | 4 -> Buffer.add_string buf (string_of_int (Prng.int prng 1000))
    | 5 -> Buffer.add_char buf (Prng.pick prng [| '_'; '-'; ' ' |])
    | _ -> Buffer.add_char buf (Char.chr (128 + Prng.int prng 128))
  done;
  Buffer.sub buf 0 len

(* Labels drawn from a small pool, so that both sides repeat labels. *)
let random_labels prng pool n = Array.init n (fun _ -> Prng.pick prng pool)

let prop_name_table_exact =
  QCheck.Test.make ~count:60 ~name:"name table = Name_sim.combined (bitwise)"
    QCheck.(int_range 1 1000000)
    (fun seed ->
      let prng = Prng.create seed in
      let pool = Array.init (1 + Prng.int prng 10) (fun _ -> random_label prng) in
      let sources = random_labels prng pool (1 + Prng.int prng 8) in
      let targets = random_labels prng pool (1 + Prng.int prng 8) in
      List.for_all
        (fun synonyms ->
          let t = Name_table.create ?synonyms sources targets in
          (* the reference once per distinct label pair: it is slow on long labels *)
          let reference = Hashtbl.create 64 in
          let combined a b =
            match Hashtbl.find_opt reference (a, b) with
            | Some v -> v
            | None ->
              let v = Name_sim.combined ?synonyms a b in
              Hashtbl.add reference (a, b) v;
              v
          in
          let ok = ref true in
          Array.iteri
            (fun i a ->
              Array.iteri
                (fun j b ->
                  let v = Name_table.score t (Name_table.source_id t i) (Name_table.target_id t j) in
                  if not (same_bits v (combined a b)) then ok := false)
                targets)
            sources;
          !ok)
        [ Some (Name_sim.synonyms ()); None ])

(* At realistic table widths: 20-80 labels per side from a pool of up to 30,
   so the trigram index's buckets fill, labels repeat on both sides, and
   the label rows fan out on the domain pool. Rows that shared scratch
   would disagree here. *)
let prop_name_table_exact_wide =
  QCheck.Test.make ~count:20
    ~name:"name table = Name_sim.combined at table widths (bitwise, both backends)"
    QCheck.(int_range 1 1000000)
    (fun seed ->
      let prng = Prng.create seed in
      let pool = Array.init (1 + Prng.int prng 30) (fun _ -> random_label prng) in
      let sources = random_labels prng pool (20 + Prng.int prng 61) in
      let targets = random_labels prng pool (20 + Prng.int prng 61) in
      List.for_all
        (fun synonyms ->
          let reference = Hashtbl.create 256 in
          let combined a b =
            match Hashtbl.find_opt reference (a, b) with
            | Some v -> v
            | None ->
              let v = Name_sim.combined ?synonyms a b in
              Hashtbl.add reference (a, b) v;
              v
          in
          List.for_all
            (fun exec ->
              let t = Name_table.create ~exec ?synonyms sources targets in
              let ok = ref true in
              Array.iteri
                (fun i a ->
                  Array.iteri
                    (fun j b ->
                      let v =
                        Name_table.score t (Name_table.source_id t i) (Name_table.target_id t j)
                      in
                      if not (same_bits v (combined a b)) then ok := false)
                    targets)
                sources;
              !ok)
            [ Executor.sequential; Executor.domains 2 ])
        [ Some (Name_sim.synonyms ()); None ])

(* The minor words one D7 name table (seed 42, default synonyms,
   sequential) may allocate. Measured, dev build: 2,035 k words with a
   closure, a partial application and boxed floats per label pair; 837 k
   with each row's three passes over int and float scratch rows. *)
let max_d7_name_table_minor_words = 877_000.0

let test_name_table_allocation () =
  let d = Uxsm_workload.Dataset.d7 in
  let labels style =
    let s = Uxsm_workload.Standards.generate ~seed:42 style in
    Array.init (Schema.size s) (Schema.label s)
  in
  let sources = labels d.Uxsm_workload.Dataset.source and targets = labels d.target in
  let synonyms = Name_sim.synonyms () in
  ignore (Name_table.create ~synonyms sources targets);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Name_table.create ~synonyms sources targets));
  let words = Gc.minor_words () -. w0 in
  if words > max_d7_name_table_minor_words then
    Alcotest.failf "a D7 name table allocated %.0f minor words, above %.0f" words
      max_d7_name_table_minor_words

(* A random tree whose labels come from a small vocabulary, so labels
   repeat within and across schemas (and among siblings). *)
let vocabulary =
  [| "Order"; "PO"; "Buyer"; "CustomerParty"; "City"; "Name"; "ContactName"; "Street_No";
     "ORDER_LINE"; "Qty"; "e" |]

let random_vocab_schema prng ~n =
  let budget = ref (n - 1) in
  let rec grow depth =
    let kids = ref [] in
    for _ = 1 to Prng.int prng 4 do
      if !budget > 0 && depth < 5 then begin
        decr budget;
        kids := grow (depth + 1) :: !kids
      end
    done;
    Schema.spec (Prng.pick prng vocabulary) (List.rev !kids)
  in
  let kids = ref [] in
  while !budget > 0 do
    decr budget;
    kids := grow 1 :: !kids
  done;
  Schema.of_spec (Schema.spec (Prng.pick prng vocabulary) (List.rev !kids))

let prop_matrix_exact =
  QCheck.Test.make ~count:25
    ~name:"Coma.matrix = pair_score (bitwise, both strategies and backends)"
    QCheck.(triple (int_range 1 1000000) (int_range 1 16) (int_range 1 16))
    (fun (seed, ns, nt) ->
      let prng = Prng.create seed in
      let source = random_vocab_schema prng ~n:ns and target = random_vocab_schema prng ~n:nt in
      List.for_all
        (fun strategy ->
          let reference =
            Array.init ns (fun x ->
                Array.init nt (fun y -> Coma.pair_score strategy source x target y))
          in
          List.for_all
            (fun exec ->
              let m = Coma.matrix ~exec strategy source target in
              Array.for_all2 (Array.for_all2 same_bits) m reference)
            [ Executor.sequential; Executor.domains 2 ])
        [ Coma.Context; Coma.Fragment ])

(* Digests of every Table II matching, recorded before the interned
   matcher replaced per-pair scoring: any drift in a score's last bit, in
   selection or in truncation changes one. *)
let test_dataset_matchings_pinned () =
  List.iter
    (fun (id, digest) ->
      let d = Option.get (Uxsm_workload.Dataset.find id) in
      let text = Uxsm_mapping.Serialize.matching_to_string (Uxsm_workload.Dataset.matching d) in
      Alcotest.(check string) id digest (Digest.to_hex (Digest.string text)))
    [ ("D1", "3a0bb23b532756609c06867df9467711"); ("D2", "79e6466505c023311ff500d7fadfe614");
      ("D3", "2e4f1cdd4a81cf0c5645c9499034942f"); ("D4", "a748c31c1ab731dc1d6bb6c015ecfc2b");
      ("D5", "c8da5f885b2d63938bd04572f705eab6"); ("D6", "684458c61b258727652050c79e600bed");
      ("D7", "4d7ec1d6d4ccf144e233d5eaa820a5e5"); ("D8", "77913d186a2631740c2ecf92d7789d75");
      ("D9", "c8ab59df4b16f799ad0d4ebe3846789d"); ("D10", "450af7235af2d743a42d0f2759ef7bed") ]

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "tokenize" `Quick test_tokenize;
    Alcotest.test_case "levenshtein" `Quick test_levenshtein;
    Alcotest.test_case "similarity ranges" `Quick test_similarity_ranges;
    Alcotest.test_case "synonym closure" `Quick test_synonym_closure;
    Alcotest.test_case "structure similarities" `Quick test_structure_sims;
    Alcotest.test_case "matcher finds expected pairs" `Quick test_matcher_finds_expected;
    Alcotest.test_case "scores quantized to 0.02" `Quick test_scores_quantized;
    Alcotest.test_case "capacity tuning" `Quick test_capacity_tuning;
    Alcotest.test_case "both-direction delta selection" `Quick test_both_direction_selection;
    Alcotest.test_case "D1-D10 matchings pinned" `Quick test_dataset_matchings_pinned;
    Alcotest.test_case "D7 name table allocation bound" `Quick test_name_table_allocation;
    q prop_name_table_exact;
    q prop_name_table_exact_wide;
    q prop_matrix_exact;
  ]
