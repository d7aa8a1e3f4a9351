(* Mapping layer tests: matchings, possible mappings, o-ratio, and
   probabilistic mapping sets. *)

module Schema = Uxsm_schema.Schema
module Matching = Uxsm_mapping.Matching
module Mapping = Uxsm_mapping.Mapping
module Mapping_set = Uxsm_mapping.Mapping_set

let source = Fixtures.fig1_source
let target = Fixtures.fig1_target
let mk = Mapping.of_pairs ~source ~target ~score:1.0

let test_mapping_validation () =
  let fails pairs =
    match mk pairs with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  fails [ (0, 0); (0, 1) ];
  (* source twice *)
  fails [ (0, 0); (1, 0) ];
  (* target twice *)
  fails [ (99, 0) ];
  fails [ (0, 99) ]

let test_of_target_sources () =
  let n = Schema.size target in
  let sources_of pairs =
    let a = Array.make n (-1) in
    List.iter (fun (x, y) -> a.(y) <- x) pairs;
    a
  in
  let pairs = [ (0, 0); (1, 3) ] in
  let m = Mapping.of_target_sources ~source ~target ~score:2.5 (sources_of pairs) in
  Alcotest.(check bool) "same correspondences as of_pairs" true (Mapping.equal m (mk pairs));
  Alcotest.(check (list (pair int int))) "pairs by source" pairs (Mapping.pairs m);
  Alcotest.(check int) "size" 2 (Mapping.size m);
  Alcotest.(check int) "source_at a mapped target" 1 (Mapping.source_at m 3);
  Alcotest.(check int) "source_at an unmapped target" (-1) (Mapping.source_at m 1);
  let m' = Mapping.with_score m 7.0 in
  Alcotest.(check (float 0.0)) "with_score takes the new score" 7.0 (Mapping.score m');
  Alcotest.(check (float 0.0)) "the original keeps its score" 2.5 (Mapping.score m);
  Alcotest.(check bool) "with_score keeps the correspondences" true (Mapping.equal m m');
  let fails what a =
    match Mapping.of_target_sources ~source ~target ~score:1.0 a with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "expected Invalid_argument: %s" what
  in
  fails "array longer than the target" (Array.make (n + 1) (-1));
  fails "source out of range" (sources_of [ (99, 0) ]);
  fails "negative source" (sources_of [ (-2, 0) ]);
  fails "source twice" (sources_of [ (0, 0); (0, 1) ])

let test_mapping_lookups () =
  let m = Fixtures.fig3_m1 in
  Alcotest.(check (option int)) "source_of ICN" (Some Fixtures.s_bcn)
    (Mapping.source_of m Fixtures.t_icn);
  Alcotest.(check (option int)) "unmapped" None (Mapping.source_of m Fixtures.t_sp);
  Alcotest.(check int) "size" 4 (Mapping.size m)

let test_o_ratio () =
  (* m1 and m2 share 3 of 5 distinct corrs: o-ratio 3/5. *)
  Alcotest.(check (float 1e-9)) "fig3 m1/m2" 0.6 (Mapping.o_ratio Fixtures.fig3_m1 Fixtures.fig3_m2);
  Alcotest.(check (float 1e-9)) "self" 1.0 (Mapping.o_ratio Fixtures.fig3_m1 Fixtures.fig3_m1);
  Alcotest.(check (float 1e-9)) "symmetric"
    (Mapping.o_ratio Fixtures.fig3_m1 Fixtures.fig3_m3)
    (Mapping.o_ratio Fixtures.fig3_m3 Fixtures.fig3_m1);
  let empty = mk [] in
  Alcotest.(check (float 1e-9)) "both empty" 1.0 (Mapping.o_ratio empty empty);
  Alcotest.(check (float 1e-9)) "empty vs non-empty" 0.0
    (Mapping.o_ratio empty Fixtures.fig3_m1)

let test_equal () =
  let a = mk [ (0, 0); (1, 3) ] and b = mk [ (1, 3); (0, 0) ] and c = mk [ (0, 0) ] in
  Alcotest.(check bool) "order irrelevant" true (Mapping.equal a b);
  Alcotest.(check bool) "different" false (Mapping.equal a c)

let test_matching_validation () =
  let fails corrs =
    match Matching.create ~source ~target corrs with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  fails [ { Matching.source = 0; target = 0; score = 0.0 } ];
  fails [ { Matching.source = 0; target = 0; score = 1.5 } ];
  fails [ { Matching.source = 0; target = 0; score = Float.nan } ];
  fails
    [
      { Matching.source = 0; target = 0; score = 0.5 };
      { Matching.source = 0; target = 0; score = 0.6 };
    ];
  fails [ { Matching.source = -1; target = 0; score = 0.5 } ];
  fails [ { Matching.source = Schema.size source; target = 0; score = 0.5 } ];
  fails [ { Matching.source = 0; target = -1; score = 0.5 } ];
  fails [ { Matching.source = 0; target = Schema.size target; score = 0.5 } ]

let test_matching_lookups () =
  let m = Fixtures.fig1_matching in
  Alcotest.(check int) "capacity" 10 (Matching.capacity m);
  Alcotest.(check (option (float 1e-9))) "score" (Some 0.84)
    (Matching.score m Fixtures.s_bcn Fixtures.t_icn);
  let corrs = Matching.correspondences m in
  Alcotest.(check int) "three candidates for ICN" 3
    (List.length (List.filter (fun (c : Matching.corr) -> c.target = Fixtures.t_icn) corrs));
  Alcotest.(check int) "BP has two targets" 2
    (List.length (List.filter (fun (c : Matching.corr) -> c.source = Fixtures.s_bp) corrs))

(* A matching keeps one copy of its correspondences, its graph: reading
   the graph twice returns that graph, and the correspondences read back
   from it are the list it was created from, in order. *)
let test_matching_is_its_graph () =
  let cs = Matching.correspondences Fixtures.fig1_matching in
  let m = Matching.create ~source ~target cs in
  Alcotest.(check bool) "to_bipartite returns the stored graph" true
    (Matching.to_bipartite m == Matching.to_bipartite m);
  Alcotest.(check bool) "correspondences round-trip in creation order" true
    (Matching.correspondences m = cs)

let test_mapping_set_of_mappings () =
  let mset = Fixtures.fig3_mset in
  Alcotest.(check int) "size" 5 (Mapping_set.size mset);
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 (Mapping_set.mappings mset) in
  Alcotest.(check (float 1e-9)) "probabilities normalized" 1.0 total;
  Alcotest.(check (float 1e-9)) "uniform" 0.2 (Mapping_set.probability mset 0)

let test_generate_from_matching () =
  let mset = Mapping_set.generate ~h:10 Fixtures.fig1_matching in
  Alcotest.(check bool) "at most 10" true (Mapping_set.size mset <= 10);
  Alcotest.(check bool) "at least 2" true (Mapping_set.size mset >= 2);
  (* probabilities sorted non-increasing, matching the score order *)
  let ps = List.map snd (Mapping_set.mappings mset) in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "probabilities non-increasing" true (non_increasing ps)

let test_storage_accounting () =
  let naive = Mapping_set.storage_bytes_naive Fixtures.fig3_mset in
  (* 5 mappings: 8 bytes each + 8 per corr; sizes 4,4,5,4,4 = 21 corrs *)
  Alcotest.(check int) "naive bytes" ((5 * 8) + (21 * 8)) naive

let test_metrics () =
  let module Metrics = Uxsm_mapping.Metrics in
  let mset = Fixtures.fig3_mset in
  (* Uniform over 5 mappings: entropy = log2 5, normalized = 1. *)
  Alcotest.(check (float 1e-9)) "entropy" (Float.log 5.0 /. Float.log 2.0) (Metrics.entropy mset);
  Alcotest.(check (float 1e-9)) "normalized entropy" 1.0 (Metrics.normalized_entropy mset);
  (* ICN: three distinct sources (BCN, RCN, OCN), never unmapped -> 3. *)
  Alcotest.(check int) "ICN ambiguity" 3 (Metrics.target_ambiguity mset Fixtures.t_icn);
  (* ORDER: always Order -> 1. *)
  Alcotest.(check int) "ORDER settled" 1 (Metrics.target_ambiguity mset Fixtures.t_order);
  (* SP: mapped by m3 only, unmapped by the rest -> 2 choices. *)
  Alcotest.(check int) "SP ambiguity" 2 (Metrics.target_ambiguity mset Fixtures.t_sp);
  (* sizes: m1,m2,m4,m5 have 4, m3 has 5 -> expected 4.2 *)
  Alcotest.(check (float 1e-9)) "expected size" 4.2 (Metrics.expected_mapping_size mset);
  let hist = Metrics.ambiguity_histogram mset in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 hist in
  Alcotest.(check int) "histogram covers mapped targets" 5 total

(* --------------------- Serialize round trips ---------------------- *)
(* The server's register/save endpoints lean on Serialize, so the format
   is property-tested here: to_string → of_string is the identity on
   random matchings and mapping sets (scores exactly — %.17g round-trips
   every float — probabilities up to renormalization noise). *)

let schemas_equal a b = Schema.to_string a = Schema.to_string b

let prop_matching_round_trip =
  QCheck.Test.make ~count:100 ~name:"Serialize.matching to_string/of_string = id"
    QCheck.(triple (int_range 1 1000000) (int_range 2 25) (int_range 1 30))
    (fun (seed, n, corrs) ->
      let prng = Uxsm_util.Prng.create seed in
      let m = Fixtures.random_matching prng ~source_n:n ~target_n:(1 + (n / 2)) ~corrs in
      match Uxsm_mapping.Serialize.matching_of_string
              (Uxsm_mapping.Serialize.matching_to_string m)
      with
      | Error _ -> false
      | Ok m' ->
        schemas_equal (Matching.source m) (Matching.source m')
        && schemas_equal (Matching.target m) (Matching.target m')
        && Matching.capacity m = Matching.capacity m'
        && List.for_all2
             (fun (a : Matching.corr) (b : Matching.corr) ->
               a.source = b.source && a.target = b.target && Float.equal a.score b.score)
             (Matching.correspondences m)
             (Matching.correspondences m'))

let prop_mapping_set_round_trip =
  QCheck.Test.make ~count:100 ~name:"Serialize.mapping_set to_string/of_string = id"
    QCheck.(pair (int_range 1 1000000) (int_range 1 25))
    (fun (seed, h) ->
      let prng = Uxsm_util.Prng.create seed in
      let mset = Fixtures.random_mapping_set prng ~source_n:12 ~target_n:9 ~corrs:14 ~h in
      match Uxsm_mapping.Serialize.mapping_set_of_string
              (Uxsm_mapping.Serialize.mapping_set_to_string mset)
      with
      | Error _ -> false
      | Ok mset' ->
        schemas_equal (Mapping_set.source mset) (Mapping_set.source mset')
        && schemas_equal (Mapping_set.target mset) (Mapping_set.target mset')
        && Mapping_set.size mset = Mapping_set.size mset'
        && List.for_all2
             (fun (m1, p1) (m2, p2) ->
               Mapping.equal m1 m2
               && Float.equal (Mapping.score m1) (Mapping.score m2)
               && Float.abs (p1 -. p2) <= 1e-12)
             (Mapping_set.mappings mset) (Mapping_set.mappings mset'))

(* ----------------- incremental maintenance (deltas) ---------------- *)

(* Random path-addressed delta over a random matching: re-score some
   correspondences, remove others, add a few new pairs between existing
   elements. Schema growth is exercised by the deterministic test below
   (its rightmost-spine precondition makes random generation awkward). *)
let gen_matching_and_delta =
  let open QCheck.Gen in
  let* seed = int_range 1 1000000 in
  let* corrs = int_range 2 14 in
  let prng = Uxsm_util.Prng.create seed in
  let u = Fixtures.random_matching prng ~source_n:12 ~target_n:9 ~corrs in
  let src = Matching.source u and tgt = Matching.target u in
  let path_of s e = Schema.path_string s e in
  let* fates =
    flatten_l
      (List.map (fun c -> map (fun f -> (c, f)) (int_range 0 2)) (Matching.correspondences u))
  in
  let* scores = flatten_l (List.map (fun _ -> int_range 1 99) fates) in
  let set_existing =
    List.concat
      (List.map2
         (fun ((c : Matching.corr), fate) k ->
           if fate = 1 then
             [ (path_of src c.source, path_of tgt c.target, float_of_int k /. 100.0) ]
           else [])
         fates scores)
  in
  let removes =
    List.filter_map
      (fun ((c : Matching.corr), fate) ->
        if fate = 2 then Some (path_of src c.source, path_of tgt c.target) else None)
      fates
  in
  let* n_new = int_range 0 2 in
  let* added =
    flatten_l
      (List.init n_new (fun _ ->
           let* x = int_range 0 (Schema.size src - 1) in
           let* y = int_range 0 (Schema.size tgt - 1) in
           let* k = int_range 1 99 in
           return (path_of src x, path_of tgt y, float_of_int k /. 100.0)))
  in
  let existing = Hashtbl.create 16 in
  List.iter
    (fun (c : Matching.corr) ->
      Hashtbl.replace existing (path_of src c.source, path_of tgt c.target) ())
    (Matching.correspondences u);
  let added = List.filter (fun (x, y, _) -> not (Hashtbl.mem existing (x, y))) added in
  let delta =
    {
      Matching.set_scores = set_existing @ added;
      remove_corrs = removes;
      add_source = [];
      add_target = [];
    }
  in
  return (u, delta)

let arb_matching_and_delta =
  QCheck.make gen_matching_and_delta ~print:(fun (u, (d : Matching.delta)) ->
      Printf.sprintf "corrs=%d set=[%s] remove=[%s]" (Matching.capacity u)
        (String.concat "; "
           (List.map (fun (x, y, s) -> Printf.sprintf "%s~%s=%.2f" x y s) d.Matching.set_scores))
        (String.concat "; "
           (List.map (fun (x, y) -> Printf.sprintf "%s~%s" x y) d.Matching.remove_corrs)))

let msets_identical a b =
  Mapping_set.size a = Mapping_set.size b
  && List.for_all2
       (fun (m1, p1) (m2, p2) ->
         Mapping.equal m1 m2
         && Float.equal (Mapping.score m1) (Mapping.score m2)
         && Float.equal p1 p2)
       (Mapping_set.mappings a) (Mapping_set.mappings b)

let update_equals_generate (u, delta) =
  match Matching.apply_delta delta u with
  | Error _ -> true (* e.g. the delta removed every correspondence of a node both sides *)
  | Ok u' ->
    let h = 10 in
    let t = Mapping_set.generate ~h u in
    let incr = Mapping_set.update u' t in
    msets_identical incr (Mapping_set.generate ~h u')

let prop_update_equals_generate =
  QCheck.Test.make ~count:200 ~name:"Mapping_set.update = generate on the patched matching"
    arb_matching_and_delta update_equals_generate

let test_apply_delta_grows_schemas () =
  (* r(a, b): the rightmost root-to-leaf spine is r -> b, so both r and b
     accept appended children without renumbering a single existing id. *)
  let s = Schema.of_spec (Schema.spec "r" [ Schema.spec "a" []; Schema.spec "b" [] ]) in
  let u = Matching.create ~source:s ~target:s [ { Matching.source = 1; target = 2; score = 0.5 } ] in
  let delta =
    {
      Matching.set_scores = [ ("r.a", "r.c", 0.9) ];
      remove_corrs = [];
      add_source = [];
      add_target = [ ("r", "c") ];
    }
  in
  (match Matching.apply_delta delta u with
  | Error e -> Alcotest.failf "grow + set should apply: %s" e
  | Ok u' ->
    Alcotest.(check int) "target grew" 4 (Schema.size (Matching.target u'));
    Alcotest.(check int) "source unchanged" 3 (Schema.size (Matching.source u'));
    Alcotest.(check (option int)) "new element addressable" (Some 3)
      (Schema.find_by_path (Matching.target u') "r.c");
    Alcotest.(check int) "both corrs present" 2 (Matching.capacity u');
    (* Incremental mapping sets survive schema growth too. *)
    let t = Mapping_set.generate ~h:5 u in
    Alcotest.(check bool) "update = generate after growth" true
      (msets_identical (Mapping_set.update u' t) (Mapping_set.generate ~h:5 u')));
  (* No array is indexed by source element, so growing only the source
     schema leaves every old mapping shareable: a D7 set at h = 100 is
     reused whole. *)
  let d7 = Uxsm_workload.Dataset.matching Uxsm_workload.Dataset.d7 in
  let src = Matching.source d7 in
  let grow =
    { Matching.empty_delta with add_source = [ (Schema.path_string src (Schema.root src), "Grown") ] }
  in
  (match Matching.apply_delta grow d7 with
  | Error e -> Alcotest.failf "D7 source growth should apply: %s" e
  | Ok d7' ->
    let t = Mapping_set.generate ~h:100 d7 in
    let reused = Uxsm_obs.Obs.counter "mapping_set.mappings_reused"
    and built = Uxsm_obs.Obs.counter "mapping_set.mappings_built" in
    let r0 = Uxsm_obs.Obs.value reused and b0 = Uxsm_obs.Obs.value built in
    let t' = Mapping_set.update d7' t in
    Alcotest.(check int) "D7 source growth reuses every mapping" 100
      (Uxsm_obs.Obs.value reused - r0);
    Alcotest.(check int) "D7 source growth builds none" 0 (Uxsm_obs.Obs.value built - b0);
    Alcotest.(check bool) "D7 update = generate after source growth" true
      (msets_identical t' (Mapping_set.generate ~h:100 d7')));
  (* Appending under a non-spine parent would renumber b — rejected. *)
  let bad =
    { Matching.empty_delta with add_source = [ ("r.a", "x") ] }
  in
  match Matching.apply_delta bad u with
  | Ok _ -> Alcotest.fail "non-spine growth must be rejected"
  | Error e ->
    Alcotest.(check bool) "error names the renumbering" true
      (String.length e > 0)

let test_apply_delta_errors () =
  let u = Fixtures.fig1_matching in
  let err d =
    match Matching.apply_delta d u with
    | Ok _ -> Alcotest.fail "expected Error"
    | Error e -> e
  in
  let has needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "unknown source path" true
    (has "unknown source path"
       (err { Matching.empty_delta with set_scores = [ ("Nope.Nada", "ORDER.SP.SCN", 0.5) ] }));
  Alcotest.(check bool) "score out of range" true
    (has "must be in (0, 1]"
       (err { Matching.empty_delta with set_scores = [ ("Order.BP", "ORDER.IP", 1.5) ] }));
  Alcotest.(check bool) "removing an absent correspondence" true
    (has "to remove"
       (err { Matching.empty_delta with remove_corrs = [ ("Order.BP.BOC.BCN", "ORDER.SP") ] }))

let test_update_requires_provenance () =
  let t = Fixtures.fig3_mset in
  Alcotest.(check bool) "of_mappings sets have no provenance" true
    (Mapping_set.ranked t = None);
  match Mapping_set.update (Mapping_set.matching t) t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "update without provenance must raise"

(* ---------------------- o-ratio and pinned sets --------------------- *)

(* A random injective mapping over [source] and [target]: each of
   [candidates] in range is kept with probability 1/2, then random pairs
   fill in, so two mappings built from one another overlap a lot. *)
let random_mapping prng ~source ~target candidates =
  let ns = Schema.size source and nt = Schema.size target in
  let s_used = Array.make ns false and t_used = Array.make nt false in
  let pairs = ref [] in
  let add (x, y) =
    if x < ns && y < nt && (not s_used.(x)) && not t_used.(y) then begin
      s_used.(x) <- true;
      t_used.(y) <- true;
      pairs := (x, y) :: !pairs
    end
  in
  List.iter (fun p -> if Uxsm_util.Prng.int prng 2 = 0 then add p) candidates;
  for _ = 1 to ns do
    add (Uxsm_util.Prng.int prng ns, Uxsm_util.Prng.int prng nt)
  done;
  Mapping.of_pairs ~source ~target ~score:1.0 !pairs

(* The reference counts over the first mapping's source-ordered pairs. The
   two mappings range over schemas of independent sizes, so either one's
   lookup arrays can be the shorter, and both argument orders are
   checked. *)
let prop_inter_size_reference =
  QCheck.Test.make ~count:500 ~name:"inter_size = source-side reference count"
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let prng = Uxsm_util.Prng.create seed in
      let schema () = Fixtures.random_schema prng ~n:(1 + Uxsm_util.Prng.int prng 12) in
      let a = random_mapping prng ~source:(schema ()) ~target:(schema ()) [] in
      let b = random_mapping prng ~source:(schema ()) ~target:(schema ()) (Mapping.pairs a) in
      let reference m m' =
        List.length (List.filter (fun p -> List.mem p (Mapping.pairs m')) (Mapping.pairs m))
      in
      let i = Mapping.inter_size a b in
      i = reference a b
      && Mapping.inter_size b a = reference b a
      && Float.equal (Mapping.o_ratio a b)
           (let u = Mapping.size a + Mapping.size b - i in
            if u = 0 then 1.0 else float_of_int i /. float_of_int u))

(* The o-ratio as the paper defines it: [Mapping.o_ratio] of every pair
   of the set, added in (i, j) order. [Mapping.o_ratio] counts over the
   targets both arrays cover, so arrays of different lengths compare as
   [inter_size] compares them. *)
let pairwise_o_ratio t =
  let n = Mapping_set.size t in
  if n < 2 then 1.0
  else begin
    let total = ref 0.0 and pairs = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        total := !total +. Mapping.o_ratio (Mapping_set.mapping t i) (Mapping_set.mapping t j);
        incr pairs
      done
    done;
    !total /. float_of_int !pairs
  end

(* An explicit set of one to six mappings over one source and up to three
   target schemas of independent sizes, so the arrays differ in length.
   The first mapping is empty in about a third of the sets, and a quarter
   of the later ones repeat an earlier mapping; the others are drawn
   around the previous mapping's pairs. Equal probabilities keep the
   drawing order. *)
let random_explicit_set prng =
  let module Prng = Uxsm_util.Prng in
  let schema () = Fixtures.random_schema prng ~n:(1 + Prng.int prng 12) in
  let source = schema () in
  let targets = Array.init (1 + Prng.int prng 3) (fun _ -> schema ()) in
  let rec draw k made =
    if k = 0 then List.rev made
    else
      let target = Prng.pick prng targets in
      let m =
        match made with
        | [] when Prng.int prng 3 = 0 -> Mapping.of_pairs ~source ~target ~score:1.0 []
        | [] -> random_mapping prng ~source ~target []
        | _ when Prng.int prng 4 = 0 -> Prng.pick prng (Array.of_list made)
        | prev :: _ -> random_mapping prng ~source ~target (Mapping.pairs prev)
      in
      draw (k - 1) (m :: made)
  in
  let ms = draw (1 + Prng.int prng 6) [] in
  Mapping_set.of_mappings Fixtures.fig1_matching (List.map (fun m -> (m, 1.0)) ms)

let prop_o_ratio_kernel_exact =
  QCheck.Test.make ~count:400 ~name:"average_o_ratio = pairwise o-ratio, bit for bit"
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let prng = Uxsm_util.Prng.create seed in
      let t =
        if seed mod 2 = 0 then random_explicit_set prng
        else
          let n () = 2 + Uxsm_util.Prng.int prng 12 in
          Fixtures.random_mapping_set prng ~source_n:(n ()) ~target_n:(n ())
            ~corrs:(1 + Uxsm_util.Prng.int prng 40) ~h:(1 + Uxsm_util.Prng.int prng 40)
      in
      Int64.equal
        (Int64.bits_of_float (Mapping_set.average_o_ratio t))
        (Int64.bits_of_float (pairwise_o_ratio t)))

(* The average is kept in the set: a second read evaluates no pair, and
   the set an update makes starts without it. *)
let test_o_ratio_once_per_set () =
  let pairs = Uxsm_obs.Obs.counter "mapping_set.o_ratio_pairs" in
  let evaluated f =
    let before = Uxsm_obs.Obs.value pairs in
    let r = f () in
    (r, Uxsm_obs.Obs.value pairs - before)
  in
  let t = Mapping_set.generate ~h:5 Fixtures.fig1_matching in
  let n = Mapping_set.size t in
  let r1, first = evaluated (fun () -> Mapping_set.average_o_ratio t) in
  let r2, second = evaluated (fun () -> Mapping_set.average_o_ratio t) in
  Alcotest.(check int) "the first read evaluates every pair" (n * (n - 1) / 2) first;
  Alcotest.(check int) "the second read evaluates none" 0 second;
  Alcotest.(check int64) "both reads agree" (Int64.bits_of_float r1) (Int64.bits_of_float r2);
  let u' =
    match
      Matching.apply_delta
        { Matching.empty_delta with set_scores = [ ("Order.BP", "ORDER.IP", 0.9) ] }
        Fixtures.fig1_matching
    with
    | Ok u' -> u'
    | Error e -> Alcotest.fail e
  in
  let t' = Mapping_set.update u' t in
  let r', updated = evaluated (fun () -> Mapping_set.average_o_ratio t') in
  Alcotest.(check int) "an updated set evaluates its own pairs"
    (Mapping_set.size t' * (Mapping_set.size t' - 1) / 2)
    updated;
  Alcotest.(check int64) "an updated set's o-ratio is generate's"
    (Int64.bits_of_float (pairwise_o_ratio (Mapping_set.generate ~h:5 u')))
    (Int64.bits_of_float r')

(* Digests of [Serialize.mapping_set_to_string] and the bits of
   [average_o_ratio] for every Table II dataset's top-100 set, recorded
   before the partition fold kept back-pointer levels. *)
let generate_pins =
  [
    ("D1", "df9c2afb62d14e8d39d5fa53089bb1a9", 0x3fe14c9680a64425L);
    ("D2", "c0e18a74e7f849c1487ae7f9eddf82ab", 0x3fe94b8c81498f04L);
    ("D3", "7237e0312535c0fb0c89652ae581205c", 0x3fe23bf69cdb57b3L);
    ("D4", "9758d2952a6bcf959e151013d85e411f", 0x3fe60f643c059c4aL);
    ("D5", "37e1cf0763deb507572b5cb38552a674", 0x3fe09c29a69e9687L);
    ("D6", "d3d957e1cba215db844b6a948041ef7f", 0x3fe7ada2d84e78c4L);
    ("D7", "82c04e4630053dd5d410766b7dc2a30e", 0x3fed7994897c5540L);
    ("D8", "2028d431a417870ac67464550875edb8", 0x3feab6f049152990L);
    ("D9", "f213f87c38e96597f52d31e87cfea742", 0x3fee211a412ad94cL);
    ("D10", "1d2a0b93bcbbb2049abf3e58472478ff", 0x3fee412cb7405e9bL);
  ]

(* The same pins for D9's set at h = 1000, the largest h a request may
   ask for, recorded while each mapping still kept a source→target array
   and the o-ratio counted over it. *)
let generate_pin_max_h = ("D9", "78879411c4847d853b8cfd8ad0a9ac86", 0x3fed5c096a6c8211L)

(* The words D9's set at h = 1000 may reach, matching and ranked
   provenance included: 509,210 (3.88 MiB) at the time of writing, with
   each fold level's back-pointers packed in one int array and the
   matching keeping its graph as its only copy of the correspondences,
   against 567,020 (4.33 MiB) with two back-pointer arrays per level and
   a correspondence list with a score table, and 918,364 (7.01 MiB) when
   every component's Murty list was kept to depth h. The bound allows
   about 6% over it. *)
let max_h_set_words = 540_000

let test_generate_pinned () =
  List.iter
    (fun (id, digest, o_ratio_bits) ->
      let d = Option.get (Uxsm_workload.Dataset.find id) in
      let mset = Mapping_set.generate ~h:100 (Uxsm_workload.Dataset.matching d) in
      Alcotest.(check string)
        (id ^ " set digest") digest
        (Digest.to_hex (Digest.string (Uxsm_mapping.Serialize.mapping_set_to_string mset)));
      Alcotest.(check int64) (id ^ " o-ratio bits") o_ratio_bits
        (Int64.bits_of_float (Mapping_set.average_o_ratio mset)))
    generate_pins

let test_generate_pinned_max_h () =
  let id, digest, o_ratio_bits = generate_pin_max_h in
  let d = Option.get (Uxsm_workload.Dataset.find id) in
  let mset = Mapping_set.generate ~h:1000 (Uxsm_workload.Dataset.matching d) in
  let words = Obj.reachable_words (Obj.repr mset) in
  if words > max_h_set_words then
    Alcotest.failf "%s h=1000 set reaches %d words, above %d" id words max_h_set_words;
  Alcotest.(check string)
    (id ^ " h=1000 set digest") digest
    (Digest.to_hex (Digest.string (Uxsm_mapping.Serialize.mapping_set_to_string mset)));
  Alcotest.(check int64) (id ^ " h=1000 o-ratio bits") o_ratio_bits
    (Int64.bits_of_float (Mapping_set.average_o_ratio mset))

(* The same pins for D7's and D10's sets at h = 1000, recorded with the
   pairwise loop. D10 is the one dataset whose target schema (1076
   elements) is larger than its source. *)
let generate_pins_max_h =
  [
    ("D7", "8d4cf1bc6241f2f869f4a7903c09516e", 0x3fec9653b8012b68L);
    ("D10", "775d0ad88a24b42ede48fe66e929036b", 0x3fed4b04219fcb66L);
  ]

let test_generate_pinned_max_h_d7_d10 () =
  List.iter
    (fun (id, digest, o_ratio_bits) ->
      let d = Option.get (Uxsm_workload.Dataset.find id) in
      let mset = Mapping_set.generate ~h:1000 (Uxsm_workload.Dataset.matching d) in
      Alcotest.(check string)
        (id ^ " h=1000 set digest") digest
        (Digest.to_hex (Digest.string (Uxsm_mapping.Serialize.mapping_set_to_string mset)));
      Alcotest.(check int64) (id ^ " h=1000 o-ratio bits") o_ratio_bits
        (Int64.bits_of_float (Mapping_set.average_o_ratio mset)))
    generate_pins_max_h

(* A mapping holds its target→source array (|T| + 1 words), its record
   and its boxed score, whatever the source schema's size: D7's source
   has 1076 elements and its target 166. *)
let test_mapping_words () =
  let u = Uxsm_workload.Dataset.matching Uxsm_workload.Dataset.d7 in
  let mset = Mapping_set.generate ~h:100 u in
  let bound = Schema.size (Matching.target u) + 16 in
  for i = 0 to Mapping_set.size mset - 1 do
    let words = Obj.reachable_words (Obj.repr (Mapping_set.mapping mset i)) in
    if words > bound then
      Alcotest.failf "D7 mapping %d holds %d words, above |T| + 16 = %d" i words bound
  done

(* ----------------------- non-finite scores ------------------------- *)

let non_finite = [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity ]

let test_non_finite_rejected () =
  List.iter
    (fun w ->
      let shown = Printf.sprintf "%h" w in
      (match Matching.create ~source ~target [ { Matching.source = 0; target = 0; score = w } ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "Matching.create accepted score %s" shown);
      (match
         Matching.apply_delta
           { Matching.empty_delta with set_scores = [ ("Order.BP", "ORDER.IP", w) ] }
           Fixtures.fig1_matching
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "apply_delta accepted score %s" shown);
      match Mapping_set.of_mappings Fixtures.fig1_matching [ (Fixtures.fig3_m1, 0.5); (Fixtures.fig3_m2, w) ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "of_mappings accepted probability %s" shown)
    non_finite;
  (* The text format reads scores with [float_of_string_opt], which accepts
     these spellings; the matching's own check must refuse them. *)
  let text = Uxsm_mapping.Serialize.matching_to_string Fixtures.fig1_matching in
  List.iter
    (fun spelling ->
      let lines = String.split_on_char '\n' text in
      let rec rewrite after = function
        | [] -> []
        | l :: rest when after -> (
          match String.split_on_char ' ' (String.trim l) with
          | [ _; x; y ] -> String.concat " " [ " "; spelling; x; y ] :: rest
          | _ -> l :: rewrite after rest)
        | l :: rest -> l :: rewrite (String.trim l = "correspondences") rest
      in
      match Uxsm_mapping.Serialize.matching_of_string (String.concat "\n" (rewrite false lines)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "matching_of_string accepted score %s" spelling)
    [ "nan"; "-nan"; "inf"; "-inf" ]

let suite =
  [
    Alcotest.test_case "mapping validation" `Quick test_mapping_validation;
    Alcotest.test_case "mapping lookups" `Quick test_mapping_lookups;
    Alcotest.test_case "mapping from a target-source array" `Quick test_of_target_sources;
    Alcotest.test_case "o-ratio" `Quick test_o_ratio;
    Alcotest.test_case "mapping equality" `Quick test_equal;
    Alcotest.test_case "matching validation" `Quick test_matching_validation;
    Alcotest.test_case "matching lookups" `Quick test_matching_lookups;
    Alcotest.test_case "matching is its graph" `Quick test_matching_is_its_graph;
    Alcotest.test_case "mapping set from explicit mappings" `Quick test_mapping_set_of_mappings;
    Alcotest.test_case "generate from matching" `Quick test_generate_from_matching;
    Alcotest.test_case "storage accounting" `Quick test_storage_accounting;
    Alcotest.test_case "uncertainty metrics" `Quick test_metrics;
    QCheck_alcotest.to_alcotest prop_matching_round_trip;
    QCheck_alcotest.to_alcotest prop_mapping_set_round_trip;
    Alcotest.test_case "apply_delta grows schemas append-only" `Quick
      test_apply_delta_grows_schemas;
    Alcotest.test_case "apply_delta validation errors" `Quick test_apply_delta_errors;
    Alcotest.test_case "update rejects provenance-free sets" `Quick
      test_update_requires_provenance;
    QCheck_alcotest.to_alcotest prop_update_equals_generate;
    QCheck_alcotest.to_alcotest prop_inter_size_reference;
    Alcotest.test_case "generate h=100 pinned on D1-D10" `Quick test_generate_pinned;
    Alcotest.test_case "generate h=1000 pinned on D9" `Quick test_generate_pinned_max_h;
    Alcotest.test_case "generate h=1000 pinned on D7 and D10" `Quick
      test_generate_pinned_max_h_d7_d10;
    QCheck_alcotest.to_alcotest prop_o_ratio_kernel_exact;
    Alcotest.test_case "o-ratio computed once per set" `Quick test_o_ratio_once_per_set;
    Alcotest.test_case "D7 mapping words bounded by the target size" `Quick test_mapping_words;
    Alcotest.test_case "NaN and infinite scores rejected" `Quick test_non_finite_rejected;
  ]
