(* Tests for the assignment substrate: Bipartite, Solver, Murty, Partition.
   The ground truth is a brute-force enumerator of all injective partial
   assignments; weights are dyadic rationals so float sums are exact. *)

module Bipartite = Uxsm_assignment.Bipartite
module Solver = Uxsm_assignment.Solver
module Murty = Uxsm_assignment.Murty
module Partition = Uxsm_assignment.Partition

let pair_compare (i1, j1) (i2, j2) =
  match Int.compare i1 i2 with 0 -> Int.compare j1 j2 | c -> c

let edge_compare (i1, j1, w1) (i2, j2, w2) =
  match Int.compare i1 i2 with
  | 0 -> ( match Int.compare j1 j2 with 0 -> Float.compare w1 w2 | c -> c)
  | c -> c

(* Enumerate every injective partial assignment (left -> right or none)
   restricted to the given edges; return scores sorted non-increasing. *)
let brute_force_solutions g =
  let nl = Bipartite.n_left g in
  let out = ref [] in
  let used = Hashtbl.create 16 in
  let rec go i pairs score =
    if i = nl then out := (score, List.rev pairs) :: !out
    else begin
      go (i + 1) pairs score;
      Array.iter
        (fun (j, w) ->
          if not (Hashtbl.mem used j) then begin
            Hashtbl.add used j ();
            go (i + 1) ((i, j) :: pairs) (score +. w);
            Hashtbl.remove used j
          end)
        (Bipartite.adj g i)
    end
  in
  go 0 [] 0.0;
  List.sort (fun (s1, _) (s2, _) -> Float.compare s2 s1) !out

let brute_force_scores g = List.map fst (brute_force_solutions g)

(* Random sparse bipartite graphs with dyadic weights. *)
let gen_graph =
  let open QCheck.Gen in
  let* nl = int_range 1 5 in
  let* nr = int_range 1 5 in
  let all_pairs = List.concat_map (fun i -> List.init nr (fun j -> (i, j))) (List.init nl Fun.id) in
  let* kept = flatten_l (List.map (fun p -> map (fun b -> (p, b)) bool) all_pairs) in
  let chosen = List.filter_map (fun (p, b) -> if b then Some p else None) kept in
  let* weights = flatten_l (List.map (fun _ -> int_range 1 16) chosen) in
  let edges = List.map2 (fun (i, j) k -> (i, j, float_of_int k /. 4.0)) chosen weights in
  return (Bipartite.create ~n_left:nl ~n_right:nr edges)

let arb_graph =
  QCheck.make gen_graph ~print:(fun g ->
      Printf.sprintf "nl=%d nr=%d edges=[%s]" (Bipartite.n_left g) (Bipartite.n_right g)
        (String.concat "; "
           (List.map (fun (i, j, w) -> Printf.sprintf "(%d,%d,%.2f)" i j w) (Bipartite.edges g))))

let valid_solution g (s : Murty.solution) =
  let lefts = List.map fst s.pairs and rights = List.map snd s.pairs in
  let distinct l = List.length (List.sort_uniq Int.compare l) = List.length l in
  distinct lefts && distinct rights
  && List.for_all
       (fun (i, j) ->
         match Bipartite.weight g i j with
         | Some _ -> true
         | None -> false)
       s.pairs
  && Float.equal s.score
       (List.fold_left
          (fun acc (i, j) ->
            match Bipartite.weight g i j with
            | Some w -> acc +. w
            | None -> acc)
          0.0 s.pairs)

let prop_optimal =
  QCheck.Test.make ~count:300 ~name:"Murty h=1 finds the optimum" arb_graph (fun g ->
      match (Murty.top ~h:1 g, brute_force_scores g) with
      | [ best ], expect :: _ -> valid_solution g best && Float.equal best.score expect
      | _ -> false)

let prop_murty_matches_brute_force =
  QCheck.Test.make ~count:200 ~name:"Murty top-h score sequence = brute force" arb_graph (fun g ->
      let h = 25 in
      let got = Murty.top ~h g in
      let expect = brute_force_scores g in
      let expect_h = List.filteri (fun k _ -> k < h) expect in
      List.length got = min h (List.length expect)
      && List.for_all (valid_solution g) got
      && List.for_all2 (fun (s : Murty.solution) e -> Float.equal s.score e) got expect_h)

let prop_murty_distinct =
  QCheck.Test.make ~count:200 ~name:"Murty solutions are pairwise distinct" arb_graph (fun g ->
      let got = Murty.top ~h:25 g in
      let keys = List.map (fun (s : Murty.solution) -> s.pairs) got in
      List.length (List.sort_uniq (List.compare pair_compare) keys) = List.length keys)

let prop_partition_matches_murty =
  QCheck.Test.make ~count:200 ~name:"Partition.top score sequence = Murty.top" arb_graph (fun g ->
      let h = 20 in
      let a = List.map (fun (s : Murty.solution) -> s.score) (Murty.top ~h g) in
      let b = List.map (fun (s : Murty.solution) -> s.score) (Partition.top ~h g) in
      a = b && List.for_all (valid_solution g) (Partition.top ~h g))

let prop_components_partition_edges =
  QCheck.Test.make ~count:200 ~name:"components partition the edge set" arb_graph (fun g ->
      let comps = Partition.components g in
      let all = List.concat_map (fun (c : Partition.component) -> c.edges) comps in
      List.sort edge_compare all = List.sort edge_compare (Bipartite.edges g))

(* Differential test: Partition.top must equal Murty.top as a *solution
   set* — scores and pair sets — on sparse bipartites that stress its edge
   cases: isolated left/right nodes (which join no component in
   [Partition.components]), tied scores (the weight pool is tiny, so equal
   totals are common), and single-component graphs. Both sides are asked
   for every solution, so tie order cannot mask a divergence. *)

let gen_graph_with_isolated =
  let open QCheck.Gen in
  let* nl_core = int_range 1 4 in
  let* nr_core = int_range 1 4 in
  let* iso_l = int_range 0 2 in
  let* iso_r = int_range 0 2 in
  let all_pairs =
    List.concat_map (fun i -> List.init nr_core (fun j -> (i, j))) (List.init nl_core Fun.id)
  in
  let* kept = flatten_l (List.map (fun p -> map (fun b -> (p, b)) bool) all_pairs) in
  let chosen = List.filter_map (fun (p, b) -> if b then Some p else None) kept in
  (* Weights from {0.25, 0.5, 0.75, 1.0}: ties across solutions are common. *)
  let* weights = flatten_l (List.map (fun _ -> int_range 1 4) chosen) in
  let edges = List.map2 (fun (i, j) k -> (i, j, float_of_int k /. 4.0)) chosen weights in
  (* Nodes beyond the core are isolated by construction. *)
  return (Bipartite.create ~n_left:(nl_core + iso_l) ~n_right:(nr_core + iso_r) edges)

let arb_graph_with_isolated =
  QCheck.make gen_graph_with_isolated ~print:(fun g ->
      Printf.sprintf "nl=%d nr=%d edges=[%s]" (Bipartite.n_left g) (Bipartite.n_right g)
        (String.concat "; "
           (List.map (fun (i, j, w) -> Printf.sprintf "(%d,%d,%.2f)" i j w) (Bipartite.edges g))))

let normalized_solutions sols =
  List.map (fun (s : Murty.solution) -> (s.score, List.sort pair_compare s.pairs)) sols
  |> List.sort (fun (s1, p1) (s2, p2) ->
         match Float.compare s2 s1 with
         | 0 -> compare p1 p2
         | c -> c)

let partition_equals_murty g =
  let n_solutions = List.length (brute_force_solutions g) in
  let m = normalized_solutions (Murty.top ~h:n_solutions g) in
  let p = normalized_solutions (Partition.top ~h:n_solutions g) in
  m = p

let prop_partition_differential =
  QCheck.Test.make ~count:300
    ~name:"differential: Partition.top = Murty.top (scores AND pair sets, isolated nodes)"
    arb_graph_with_isolated partition_equals_murty

let test_partition_differential_cases () =
  let check name g =
    Alcotest.(check bool) name true (partition_equals_murty g)
  in
  (* Isolated nodes on both sides around a single tied pair of edges. *)
  check "isolated + tie"
    (Bipartite.create ~n_left:4 ~n_right:4 [ (1, 0, 0.5); (2, 3, 0.5) ]);
  (* Single component: a path s0-t0-s1-t1 with equal weights. *)
  check "single component, tied scores"
    (Bipartite.create ~n_left:2 ~n_right:2 [ (0, 0, 0.5); (1, 0, 0.5); (1, 1, 0.5) ]);
  (* Only isolated nodes: both sides must return exactly the empty solution. *)
  check "no edges at all" (Bipartite.create ~n_left:3 ~n_right:2 []);
  (* Two components of different sizes plus an isolated right node. *)
  check "two components + isolated right"
    (Bipartite.create ~n_left:3 ~n_right:4
       [ (0, 0, 1.0); (0, 1, 0.25); (1, 1, 0.25); (2, 2, 0.75) ])

let test_fig7_example () =
  (* The bipartite of Figure 7: s1..s4 vs t1..t3 with the drawn edges. *)
  let g =
    Bipartite.create ~n_left:4 ~n_right:3
      [ (0, 0, 0.8); (0, 1, 0.5); (2, 1, 0.9); (1, 2, 0.7); (3, 2, 0.6) ]
  in
  let comps = Partition.components g in
  Alcotest.(check int) "two partitions (Figure 8)" 2 (List.length comps);
  let best =
    match Murty.top ~h:1 g with
    | [ b ] -> b
    | _ -> Alcotest.fail "expected one solution"
  in
  (* Best: s1~t1 (.8), s3~t2 (.9), s2~t3 (.7) beats s4~t3 (.6). *)
  Alcotest.(check (float 1e-9)) "optimal score" 2.4 best.score

let test_merge_top_h () =
  let mk score = { Murty.pairs = []; score } in
  let a = List.map mk [ 5.0; 3.0; 1.0 ] and b = List.map mk [ 4.0; 2.0 ] in
  let merged = Partition.merge ~h:4 a b in
  Alcotest.(check (list (float 1e-9)))
    "top-4 of pairwise sums" [ 9.0; 7.0; 7.0; 5.0 ]
    (List.map (fun (s : Murty.solution) -> s.score) merged);
  Alcotest.(check (list (float 1e-9)))
    "an unbounded h yields every combination" [ 9.0; 7.0; 7.0; 5.0; 5.0; 3.0 ]
    (List.map (fun (s : Murty.solution) -> s.score) (Partition.merge ~h:max_int a b))

let test_empty_graph () =
  let g = Bipartite.create ~n_left:3 ~n_right:2 [] in
  (match Murty.top ~h:5 g with
  | [ only ] ->
    Alcotest.(check (float 0.0)) "only the empty solution" 0.0 only.score;
    Alcotest.(check int) "no pairs" 0 (List.length only.pairs)
  | l -> Alcotest.failf "expected exactly one solution, got %d" (List.length l));
  match Partition.top ~h:5 g with
  | [ only ] -> Alcotest.(check (float 0.0)) "partition: empty solution" 0.0 only.score
  | l -> Alcotest.failf "partition: expected one solution, got %d" (List.length l)

let test_create_validation () =
  let raises f = Alcotest.check_raises "invalid_arg" (Invalid_argument "Bipartite.create: duplicate edge") f in
  raises (fun () -> ignore (Bipartite.create ~n_left:2 ~n_right:2 [ (0, 0, 1.0); (0, 0, 2.0) ]))

(* ------------- the merge fold against the list-merge oracle ------------ *)

(* The heap merge as it was written over solution lists before the fold
   kept back-pointer levels: every combination's pair list is built with
   [List.merge]. [Partition.merge] and [Partition.merge_fold] must
   reproduce it exactly — pairs, score bits and order, ties included. It
   walks the swap-based reference heap, not the heap under test. *)
let oracle_merge ~h xs ys =
  match (xs, ys) with
  | [], _ | _, [] -> []
  | _ ->
    let xa = Array.of_list xs and ya = Array.of_list ys in
    let nx = Array.length xa and ny = Array.length ya in
    let heap = Fheap_oracle.create () in
    let seen = Hashtbl.create 64 in
    let push ix iy =
      if ix < nx && iy < ny && not (Hashtbl.mem seen (ix, iy)) then begin
        Hashtbl.add seen (ix, iy) ();
        let s = xa.(ix).Murty.score +. ya.(iy).Murty.score in
        Fheap_oracle.push heap (-.s) ((ix * ny) + iy)
      end
    in
    push 0 0;
    let out = ref [] in
    let count = ref 0 in
    let rec drain () =
      if !count < h then
        match Fheap_oracle.pop heap with
        | None -> ()
        | Some (neg_s, k) ->
          let ix = k / ny and iy = k mod ny in
          let combined : Murty.solution =
            {
              pairs = List.merge pair_compare xa.(ix).Murty.pairs ya.(iy).Murty.pairs;
              score = -.neg_s;
            }
          in
          out := combined :: !out;
          incr count;
          push (ix + 1) iy;
          push ix (iy + 1);
          drain ()
    in
    drain ();
    List.rev !out

let oracle_fold ~h locals =
  List.fold_left (oracle_merge ~h) [ { Murty.pairs = []; score = 0.0 } ] locals

let same_solutions (a : Murty.solution list) (b : Murty.solution list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Murty.solution) (y : Murty.solution) ->
         x.pairs = y.pairs && Int64.equal (Int64.bits_of_float x.score) (Int64.bits_of_float y.score))
       a b

(* Scores from a tiny pool, so equal sums (ties) are common; 0.1 and 0.7
   are not dyadic, so a changed addition order would change score bits. *)
let gen_score_list n =
  let open QCheck.Gen in
  let pool = [| 1.0; 0.7; 0.5; 0.25; 0.1 |] in
  map (List.sort (fun a b -> Float.compare b a)) (list_repeat n (map (Array.get pool) (int_bound 4)))

(* Component [c] of [k] owns the left nodes c, c + k, c + 2k, ... (the
   interleaving real components have); each solution matches a random
   subset of them, sorted by left. *)
let gen_component_list ~k c =
  let open QCheck.Gen in
  let* n = int_range 1 12 in
  let* scores = gen_score_list n in
  flatten_l
    (List.map
       (fun score ->
         let* chosen = list_repeat 4 bool in
         let* rights = list_repeat 4 (int_bound 9) in
         let pairs =
           List.concat
             (List.mapi (fun t (b, j) -> if b then [ (c + (k * t), j) ] else [])
                (List.combine chosen rights))
         in
         return { Murty.pairs; score })
       scores)

let print_solution_lists ls =
  String.concat " | "
    (List.map
       (fun l ->
         String.concat "; "
           (List.map
              (fun (s : Murty.solution) ->
                Printf.sprintf "%g:[%s]" s.score
                  (String.concat "," (List.map (fun (i, j) -> Printf.sprintf "%d-%d" i j) s.pairs)))
              l))
       ls)

let arb_fold_input =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (h, ls) -> Printf.sprintf "h=%d %s" h (print_solution_lists ls))
    (let* h = int_range 1 30 in
     let* k = int_range 0 8 in
     let* ls = flatten_l (List.init k (gen_component_list ~k)) in
     return (h, ls))

let prop_merge_fold_equals_oracle =
  QCheck.Test.make ~count:500 ~name:"Partition.merge_fold = left fold of list merges"
    arb_fold_input (fun (h, ls) -> same_solutions (Partition.merge_fold ~h ls) (oracle_fold ~h ls))

(* [merge] keeps [List.merge]'s contract for any pair lists, sorted or not. *)
let prop_merge_equals_oracle =
  let open QCheck.Gen in
  let gen_list =
    let* n = int_range 0 10 in
    let* scores = gen_score_list n in
    flatten_l
      (List.map
         (fun score ->
           let* pairs = list_size (int_bound 4) (pair (int_bound 9) (int_bound 9)) in
           return { Murty.pairs; score })
         scores)
  in
  QCheck.Test.make ~count:500 ~name:"Partition.merge = list-merge oracle"
    (QCheck.make
       ~print:(fun (h, a, b) -> Printf.sprintf "h=%d %s" h (print_solution_lists [ a; b ]))
       (triple (int_range 0 30) gen_list gen_list))
    (fun (h, a, b) -> same_solutions (Partition.merge ~h a b) (oracle_merge ~h a b))

let test_create_rejects_non_finite () =
  List.iter
    (fun w ->
      match Bipartite.create ~n_left:2 ~n_right:2 [ (0, 0, 0.5); (1, 1, w) ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "Bipartite.create accepted weight %h" w)
    [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; -0.5 ]

(* ---------------- incremental ranking (Partition.rerank) --------------- *)

(* Random edits of a random graph: each existing edge is kept, re-scored,
   or removed; a few new edges land on existing or freshly-grown nodes.
   The edited graph is written by [Bipartite.apply_edge_delta], as the
   matching layer writes an updated matching's. *)
let gen_patched g =
  let open QCheck.Gen in
  let edges = Bipartite.edges g in
  let* grow_l = int_range 0 2 in
  let* grow_r = int_range 0 2 in
  let nl' = Bipartite.n_left g + grow_l and nr' = Bipartite.n_right g + grow_r in
  (* 0 = keep, 1 = re-score, 2 = remove *)
  let* fates = flatten_l (List.map (fun e -> map (fun f -> (e, f)) (int_range 0 2)) edges) in
  let* new_scores = flatten_l (List.map (fun _ -> int_range 1 16) fates) in
  let set_existing =
    List.concat
      (List.map2
         (fun ((i, j, _), fate) k ->
           if fate = 1 then [ (i, j, float_of_int k /. 4.0) ] else [])
         fates new_scores)
  in
  let removes =
    List.filter_map (fun ((i, j, _), fate) -> if fate = 2 then Some (i, j) else None) fates
  in
  (* A few brand-new pairs, biased toward the grown fringe. *)
  let* n_new = int_range 0 3 in
  let* new_edges =
    flatten_l
      (List.init n_new (fun _ ->
           let* i = int_range 0 (nl' - 1) in
           let* j = int_range 0 (nr' - 1) in
           let* k = int_range 1 16 in
           return (i, j, float_of_int k /. 4.0)))
  in
  let fresh =
    List.filter
      (fun (i, j, _) ->
        i >= Bipartite.n_left g || j >= Bipartite.n_right g || Bipartite.weight g i j = None)
      new_edges
  in
  return
    (Bipartite.create ~n_left:nl' ~n_right:nr'
       (Bipartite.apply_edge_delta ~set:(set_existing @ fresh) ~remove:removes edges))

(* New graphs no edit algebra writes: the same edges in another order,
   both sides shrunk (edges beyond them dropped), or an unrelated graph. *)
let gen_permuted g =
  QCheck.Gen.map
    (Bipartite.create ~n_left:(Bipartite.n_left g) ~n_right:(Bipartite.n_right g))
    (QCheck.Gen.shuffle_l (Bipartite.edges g))

let gen_shrunk g =
  let open QCheck.Gen in
  let* nl' = int_range 1 (Bipartite.n_left g) in
  let* nr' = int_range 1 (Bipartite.n_right g) in
  return
    (Bipartite.create ~n_left:nl' ~n_right:nr'
       (List.filter (fun (i, j, _) -> i < nl' && j < nr') (Bipartite.edges g)))

(* The invariant is exact equality with a from-scratch [rank] of the new
   graph — scores, pair lists and order all included — because the catalog
   relies on incremental answers being byte-identical to rebuilt ones. *)
let gen_graph_and_new =
  let open QCheck.Gen in
  let* g = gen_graph in
  let* g' =
    frequency [ (3, gen_patched g); (1, gen_permuted g); (1, gen_shrunk g); (1, gen_graph) ]
  in
  return (g, g')

let arb_graph_and_new =
  let show g =
    Printf.sprintf "nl=%d nr=%d edges=[%s]" (Bipartite.n_left g) (Bipartite.n_right g)
      (String.concat "; "
         (List.map (fun (i, j, w) -> Printf.sprintf "(%d,%d,%.2f)" i j w) (Bipartite.edges g)))
  in
  QCheck.make gen_graph_and_new ~print:(fun (g, g') ->
      Printf.sprintf "old %s; new %s" (show g) (show g'))

let rerank_equals_rank (g, g') =
  let h = 15 in
  let incr = Partition.rerank ~old:(Partition.rank ~h g) g' in
  (* Exact equality, order included: scores are dyadic so [=] is sound. *)
  Partition.solutions incr = Partition.solutions (Partition.rank ~h g')

let prop_rerank_equals_rank =
  QCheck.Test.make ~count:600 ~name:"Partition.rerank = rank of the new graph"
    arb_graph_and_new rerank_equals_rank

(* Edits that keep every level's leading scores but change later ones:
   a graph of two to five components on disjoint nodes, and one edge
   outside the best solution lowered by 0.25. The best combination keeps
   its score at every level; the combinations that use the lowered edge
   move. A fold that stopped on a level's first score alone would keep
   stale levels after the edited component. *)
let gen_graph_and_quiet_edit =
  let open QCheck.Gen in
  let* k = int_range 2 5 in
  let* comps =
    flatten_l
      (List.init k (fun c ->
           let* kept = list_repeat 9 bool in
           let* weights = list_repeat 9 (int_range 2 5) in
           let edges =
             List.concat
               (List.mapi
                  (fun t (b, w) ->
                    if b || t = 0 then [ ((3 * c) + (t / 3), (3 * c) + (t mod 3), float_of_int w /. 4.0) ]
                    else [])
                  (List.combine kept weights))
           in
           return edges))
  in
  let edges = List.concat comps in
  let g = Bipartite.create ~n_left:(3 * k) ~n_right:(3 * k) edges in
  let best = match Murty.top ~h:1 g with [ b ] -> b.pairs | _ -> [] in
  let quiet = List.filter (fun (i, j, _) -> not (List.mem (i, j) best)) edges in
  let* h = int_range 4 30 in
  match quiet with
  | [] -> return (h, g, g)
  | _ ->
    let* i, j, w = oneofl quiet in
    return
      ( h,
        g,
        Bipartite.create ~n_left:(3 * k) ~n_right:(3 * k)
          (Bipartite.apply_edge_delta ~set:[ (i, j, w -. 0.25) ] ~remove:[] edges) )

let prop_rerank_quiet_edit =
  let show g =
    String.concat "; "
      (List.map (fun (i, j, w) -> Printf.sprintf "(%d,%d,%.2f)" i j w) (Bipartite.edges g))
  in
  QCheck.Test.make ~count:600 ~name:"Partition.rerank = rank after an edit outside the best solution"
    (QCheck.make gen_graph_and_quiet_edit ~print:(fun (h, g, g') ->
         Printf.sprintf "h=%d old [%s]; new [%s]" h (show g) (show g')))
    (fun (h, g, g') ->
      let bits (s : Murty.solution) = (s.pairs, Int64.bits_of_float s.score) in
      List.map bits (Partition.solutions (Partition.rerank ~old:(Partition.rank ~h g) g'))
      = List.map bits (Partition.solutions (Partition.rank ~h g')))

let test_rerank_reuses_untouched_components () =
  (* Three components; re-score an edge in the first and the other two
     Murty lists must be reused, visible through the Obs counters. *)
  let g =
    Bipartite.create ~n_left:4 ~n_right:4
      [ (0, 0, 0.5); (1, 0, 0.75); (2, 2, 0.25); (3, 3, 1.0) ]
  in
  let g' =
    Bipartite.create ~n_left:4 ~n_right:4
      [ (0, 0, 1.0); (1, 0, 0.75); (2, 2, 0.25); (3, 3, 1.0) ]
  in
  let r = Partition.rank ~h:10 g in
  let reranked = Uxsm_obs.Obs.counter "partition.components_reranked" in
  let reused = Uxsm_obs.Obs.counter "partition.components_reused" in
  let rr0 = Uxsm_obs.Obs.value reranked and ru0 = Uxsm_obs.Obs.value reused in
  let r' = Partition.rerank ~old:r g' in
  Alcotest.(check int) "one component re-ranked" 1 (Uxsm_obs.Obs.value reranked - rr0);
  Alcotest.(check int) "two components reused" 2 (Uxsm_obs.Obs.value reused - ru0);
  Alcotest.(check bool) "still equal to fresh rank" true
    (Partition.solutions r' = Partition.solutions (Partition.rank ~h:10 g'))

(* The mapping layer reads the top-h as right→left arrays written from
   the back-pointers; they must hold exactly [solutions]' pairs, with the
   same score bits, in the same order. *)
let prop_right_to_left_equals_solutions =
  QCheck.Test.make ~count:300 ~name:"Partition.right_to_left = solutions"
    QCheck.(pair arb_graph (int_range 1 12))
    (fun (g, h) ->
      let r = Partition.rank ~h g in
      let arrays =
        Array.to_list (Partition.right_to_left r (fun score a -> (score, Array.copy a)))
      in
      let pairs_of a =
        List.filter_map
          (fun j -> if a.(j) >= 0 then Some (a.(j), j) else None)
          (List.init (Array.length a) Fun.id)
        |> List.sort pair_compare
      in
      let sols = Partition.solutions r in
      List.length sols = List.length arrays
      && List.for_all2
           (fun (s : Murty.solution) (score, a) ->
             Int64.equal (Int64.bits_of_float s.score) (Int64.bits_of_float score)
             && Array.length a = Bipartite.n_right g
             && pairs_of a = s.pairs)
           sols arrays)

(* ----------------------- ranking on demand ------------------------ *)

module Obs = Uxsm_obs.Obs

let c_expansions = Obs.counter "murty.expansions"
let c_solves = Obs.counter "murty.solves"
let c_local_extensions = Obs.counter "partition.local_extensions"

(* [f ()] with how far it moved counter [c]. *)
let moving c f =
  let v0 = Obs.value c in
  let x = f () in
  (x, Obs.value c - v0)

let show_edges g =
  String.concat "; "
    (List.map (fun (i, j, w) -> Printf.sprintf "(%d,%d,%.2f)" i j w) (Bipartite.edges g))

(* Small graphs, about two thirds of the pairs present, whose weights take
   four dyadic values: many solutions tie, and every sum is exact. *)
let gen_tied_graph =
  let open QCheck.Gen in
  let* nl = int_range 1 5 in
  let* nr = int_range 1 5 in
  let all_pairs = List.concat_map (fun i -> List.init nr (fun j -> (i, j))) (List.init nl Fun.id) in
  let* kept = flatten_l (List.map (fun p -> map (fun k -> (p, k > 0)) (int_bound 2)) all_pairs) in
  let chosen = List.filter_map (fun (p, b) -> if b then Some p else None) kept in
  let* weights = flatten_l (List.map (fun _ -> int_range 1 4) chosen) in
  return
    (Bipartite.create ~n_left:nl ~n_right:nr
       (List.map2 (fun (i, j) k -> (i, j, float_of_int k /. 4.0)) chosen weights))

(* A cursor stopped after d deliveries has taken exactly the first d steps
   of [top ~h]: it returned that list's prefix (pairs and score bits) and
   expanded d - 1 nodes, the node delivered last still pending (all of
   them when the list ran out first). Resumed, it returns the rest of the
   list with [top]'s expansions in all. The whole list's scores are the
   brute-force top-h's, a reference that shares no code with Murty. *)
let prop_cursor_prefix =
  QCheck.Test.make ~count:300 ~name:"Murty cursor stopped after d deliveries = prefix of Murty.top"
    (QCheck.make
       ~print:(fun (h, d, g) -> Printf.sprintf "h=%d d=%d [%s]" h d (show_edges g))
       QCheck.Gen.(
         let* h = int_range 1 300 in
         let* d = int_range 0 h in
         let* g = gen_tied_graph in
         return (h, d, g)))
    (fun (h, d, g) ->
      let full, full_expansions = moving c_expansions (fun () -> Murty.top ~h g) in
      let c = Murty.start ~h g in
      let rec take k acc =
        if k < d && Murty.has_next c then take (k + 1) (Murty.next c :: acc) else List.rev acc
      in
      let prefix, stopped = moving c_expansions (fun () -> take 0 []) in
      let k = List.length prefix in
      let rec drain acc = if Murty.has_next c then drain (Murty.next c :: acc) else List.rev acc in
      let rest, resumed = moving c_expansions (fun () -> drain []) in
      let brute = List.filteri (fun i _ -> i < h) (brute_force_scores g) in
      same_solutions prefix (List.filteri (fun i _ -> i < k) full)
      && stopped = (if k = d then max 0 (d - 1) else k)
      && same_solutions (prefix @ rest) full
      && stopped + resumed = full_expansions
      && List.equal Float.equal (List.map (fun (s : Murty.solution) -> s.score) full) brute)

(* Graphs of one to six components on interleaved node indices (component
   c owns lefts and rights c, c + k, c + 2k), each drawn on a 3 x 3 block
   with the weights of [gen_tied_graph]. *)
let gen_blocks ~k =
  let open QCheck.Gen in
  let* blocks =
    flatten_l
      (List.init k (fun c ->
           let* kept = list_repeat 9 (int_bound 2) in
           let* weights = list_repeat 9 (int_range 1 4) in
           return
             (List.concat
                (List.mapi
                   (fun t (b, w) ->
                     if b > 0 || t = 0 then
                       [ (c + (k * (t / 3)), c + (k * (t mod 3)), float_of_int w /. 4.0) ]
                     else [])
                   (List.combine kept weights)))))
  in
  return (Bipartite.create ~n_left:(3 * k) ~n_right:(3 * k) (List.concat blocks))

(* A component ranked eagerly to depth h, as the fold ranked it before it
   pulled on demand: Murty on the component re-indexed to a compact
   sub-graph (nodes ascending, edges in component order), mapped back. *)
let eager_local ~h (comp : Partition.component) =
  let index l = List.mapi (fun k x -> (x, k)) l in
  let l_of = index comp.lefts and r_of = index comp.rights in
  let l_back = Array.of_list comp.lefts and r_back = Array.of_list comp.rights in
  let sub =
    Bipartite.create ~n_left:(Array.length l_back) ~n_right:(Array.length r_back)
      (List.map (fun (i, j, w) -> (List.assoc i l_of, List.assoc j r_of, w)) comp.edges)
  in
  List.map
    (fun (s : Murty.solution) ->
      { s with pairs = List.map (fun (i, j) -> (l_back.(i), r_back.(j))) s.pairs })
    (Murty.top ~h sub)

(* How much of a list of [ny] local scores one fold level reads: the
   level's heap walk over (previous level) x (local list), popping until h
   cells or none are left, asks for column 0 first and for column iy + 1
   when it pushes (ix, iy + 1) after a pop that is not the h-th. Returns
   the solutions read and whether the walk asked past the list's end. *)
let demand ~h xs ys =
  let xa = Array.of_list xs and ya = Array.of_list ys in
  let nx = Array.length xa and ny = Array.length ya in
  let heap = Fheap_oracle.create () and seen = Hashtbl.create 64 in
  let push ix iy =
    if ix < nx && iy < ny && not (Hashtbl.mem seen (ix, iy)) then begin
      Hashtbl.add seen (ix, iy) ();
      Fheap_oracle.push heap (-.(xa.(ix) +. ya.(iy))) ((ix * ny) + iy)
    end
  in
  let asked = ref 1 in
  push 0 0;
  let rec walk popped =
    if popped < h then
      match Fheap_oracle.pop heap with
      | None -> ()
      | Some (_, k) ->
        let ix = k / ny and iy = k mod ny in
        if popped + 1 < h then begin
          push (ix + 1) iy;
          asked := max !asked (iy + 2);
          push ix (iy + 1)
        end;
        walk (popped + 1)
  in
  if nx > 0 then walk 0;
  (min !asked ny, !asked > ny)

(* [Partition.rank] against the eager reference: every component ranked
   to depth h with [Murty.top] and the lists folded with [oracle_merge].
   The solutions must agree in pairs, score bits and order. The Murty work
   must be exactly what the fold reads: one solve per component, and for
   a component whose level reads d solutions, d - 1 expansions, plus one
   when the level asks past the list's end. The scores must also equal
   the top-h sums of each component's brute-force scores, a reference
   that shares no code with Murty. *)
let prop_rank_equals_eager =
  QCheck.Test.make ~count:300 ~name:"Partition.rank = eager Murty.top lists folded by oracle_merge"
    (QCheck.make
       ~print:(fun (h, g) -> Printf.sprintf "h=%d [%s]" h (show_edges g))
       QCheck.Gen.(
         let* h = int_range 1 300 in
         let* k = int_range 1 6 in
         let* g = gen_blocks ~k in
         return (h, g)))
    (fun (h, g) ->
      let comps = Partition.components g in
      let locals = List.map (eager_local ~h) comps in
      let scores l = List.map (fun (s : Murty.solution) -> s.score) l in
      let reference, expected_expansions =
        List.fold_left
          (fun (level, e) local ->
            let read, past = demand ~h (scores level) (scores local) in
            (oracle_merge ~h level local, e + read - 1 + if past then 1 else 0))
          ([ { Murty.pairs = []; score = 0.0 } ], 0)
          locals
      in
      let (r, expansions), solves =
        moving c_solves (fun () -> moving c_expansions (fun () -> Partition.rank ~h g))
      in
      let brute =
        List.fold_left
          (fun acc (comp : Partition.component) ->
            let local =
              brute_force_scores
                (Bipartite.create ~n_left:(Bipartite.n_left g) ~n_right:(Bipartite.n_right g)
                   comp.edges)
            in
            List.concat_map (fun a -> List.map (fun b -> a +. b) local) acc
            |> List.stable_sort (fun a b -> Float.compare b a)
            |> List.filteri (fun i _ -> i < h))
          [ 0.0 ] comps
      in
      let got = Partition.solutions r in
      same_solutions got reference
      && expansions = expected_expansions
      && solves = List.length comps
      && List.equal Float.equal (scores got) brute)

(* An edit that makes the fold read a cached component deeper than its
   stored prefix: component 0 (the first in fold order) of a block graph
   gets new weights, so level 0's scores change and every later level is
   re-merged over cached lists. The new weights are drawn from a wider
   range than the old, so level 0 often spreads out and a later level has
   to read further into its component. *)
let gen_deeper_edit =
  let open QCheck.Gen in
  let* k = int_range 2 6 in
  let* h = int_range 4 60 in
  let* g = gen_blocks ~k in
  let edges = Bipartite.edges g in
  let* weights = list_repeat (List.length edges) (int_range 1 8) in
  let edited =
    List.map2
      (fun (i, j, w) k' -> if i mod k = 0 then (i, j, float_of_int k' /. 4.0) else (i, j, w))
      edges weights
  in
  return (h, g, Bipartite.create ~n_left:(Bipartite.n_left g) ~n_right:(Bipartite.n_right g) edited)

let rerank_deeper_equals_rank (h, g, g') =
  let old = Partition.rank ~h g in
  let r, extended = moving c_local_extensions (fun () -> Partition.rerank ~old g') in
  (same_solutions (Partition.solutions r) (Partition.solutions (Partition.rank ~h g')), extended)

let prop_rerank_deeper =
  QCheck.Test.make ~count:300 ~name:"Partition.rerank = rank when a cached component is read deeper"
    (QCheck.make
       ~print:(fun (h, g, g') -> Printf.sprintf "h=%d old [%s]; new [%s]" h (show_edges g) (show_edges g'))
       gen_deeper_edit)
    (fun case -> fst (rerank_deeper_equals_rank case))

(* The generator reaches the re-ranking of cached components: over a fixed
   sample of 200 edits, [partition.local_extensions] moves in at least
   half (158 at the time of writing), and every one of them still gives
   [rank]'s solutions. *)
let test_rerank_deeper_reached () =
  let cases = QCheck.Gen.generate ~rand:(Random.State.make [| 34 |]) ~n:200 gen_deeper_edit in
  let extended =
    List.fold_left
      (fun n case ->
        let equal, moved = rerank_deeper_equals_rank case in
        if not equal then Alcotest.fail "rerank differs from rank";
        if moved > 0 then n + 1 else n)
      0 cases
  in
  if extended < 100 then
    Alcotest.failf "only %d of 200 edits re-ranked a cached component" extended

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "Figure 7/8 example" `Quick test_fig7_example;
    Alcotest.test_case "partition = murty, crafted edge cases" `Quick
      test_partition_differential_cases;
    q prop_partition_differential;
    Alcotest.test_case "merge top-h" `Quick test_merge_top_h;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "create rejects NaN and infinite weights" `Quick
      test_create_rejects_non_finite;
    q prop_merge_fold_equals_oracle;
    q prop_merge_equals_oracle;
    q prop_optimal;
    q prop_murty_matches_brute_force;
    q prop_murty_distinct;
    q prop_partition_matches_murty;
    q prop_components_partition_edges;
    Alcotest.test_case "rerank reuses untouched components" `Quick
      test_rerank_reuses_untouched_components;
    q prop_rerank_equals_rank;
    q prop_rerank_quiet_edit;
    q prop_right_to_left_equals_solutions;
    q prop_cursor_prefix;
    q prop_rank_equals_eager;
    q prop_rerank_deeper;
    Alcotest.test_case "rerank re-ranks cached components, reached" `Quick
      test_rerank_deeper_reached;
  ]
