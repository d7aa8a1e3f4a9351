module Obs = Uxsm_obs.Obs

(* Observability: how much the component decomposition buys, and — for the
   incremental path — how much of a delta's work the component cache
   absorbs. *)
let c_runs = Obs.counter "partition.runs"
let c_components = Obs.counter "partition.components"
let c_component_edges = Obs.counter "partition.component_edges"
let c_merges = Obs.counter "partition.merges"
let c_delta_applies = Obs.counter "partition.delta_applies"
let c_components_reranked = Obs.counter "partition.components_reranked"
let c_components_reused = Obs.counter "partition.components_reused"
let s_top = Obs.span "partition.top"
let s_apply_delta = Obs.span "partition.apply_delta"
let s_fold = Obs.span "partition.fold"
let s_materialize = Obs.span "partition.materialize"

type component = {
  lefts : int list;
  rights : int list;
  edges : (int * int * float) list;
}

(* Union-find over left nodes [0, nl) and right nodes [nl, nl + nr). *)
let components g =
  let nl = Bipartite.n_left g in
  let nr = Bipartite.n_right g in
  let parent = Array.init (nl + nr) Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  List.iter (fun (i, j, _) -> union i (nl + j)) (Bipartite.edges g);
  let by_root : (int, (int * int * float) list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ((i, _, _) as e) ->
      let r = find i in
      let prev = try Hashtbl.find by_root r with Not_found -> [] in
      Hashtbl.replace by_root r (e :: prev))
    (Bipartite.edges g);
  let component_of_edges edges =
    let ls = ref [] and rs = ref [] in
    let module IS = Set.Make (Int) in
    let lset = ref IS.empty and rset = ref IS.empty in
    List.iter
      (fun (i, j, _) ->
        lset := IS.add i !lset;
        rset := IS.add j !rset)
      edges;
    ls := IS.elements !lset;
    rs := IS.elements !rset;
    { lefts = !ls; rights = !rs; edges = List.rev edges }
  in
  Hashtbl.fold (fun root edges acc -> (root, component_of_edges edges) :: acc) by_root []
  |> List.sort (fun (r1, _) (r2, _) -> Int.compare r1 r2)
  |> List.map snd

let empty_solution : Murty.solution = { pairs = []; score = 0.0 }

let pair_compare (i1, j1) (i2, j2) =
  match Int.compare i1 i2 with
  | 0 -> Int.compare j1 j2
  | c -> c

(* One step of the merge fold, kept as back-pointers: entry [e] is the
   [e]-th best combination, scoring [lv_score.(e)], of entry [lv_prev.(e)]
   of the previous level with solution [lv_local.(e)] of one component's
   local list. The final level's solutions are read from these on demand,
   as right→left arrays ([right_to_left]) or as pair lists
   ([materialize]). *)
type level = {
  lv_score : float array;
  lv_prev : int array;
  lv_local : int array;
}

(* The top-h pairwise sums of two non-increasing score arrays, walked from
   (0, 0) with a heap: a popped cell pushes (ix + 1, iy), then (ix, iy + 1),
   each at most once. Ties pop in the order of that push sequence, so every
   caller — the fold and [merge] — breaks them alike. A popped cell is at
   most [h - 1] steps from (0, 0), so no pushed index exceeds [h] and the
   seen-bitmap needs at most [(h + 1)^2] bits. *)
let merge_level ~h xs ys =
  Obs.incr c_merges;
  let nx = Array.length xs and ny = Array.length ys in
  let n = if nx = 0 || ny = 0 || h <= 0 then 0 else min h (nx * ny) in
  let lv = { lv_score = Array.make n 0.0; lv_prev = Array.make n 0; lv_local = Array.make n 0 } in
  if n > 0 then begin
    let rows = if h < nx then h + 1 else nx and cols = if h < ny then h + 1 else ny in
    let seen = Bytes.make (((rows * cols) + 7) / 8) '\000' in
    let heap = Uxsm_util.Fheap.create () in
    let push ix iy =
      if ix < nx && iy < ny then begin
        let k = (ix * cols) + iy in
        let byte = Bytes.get_uint8 seen (k lsr 3) and bit = 1 lsl (k land 7) in
        if byte land bit = 0 then begin
          Bytes.set_uint8 seen (k lsr 3) (byte lor bit);
          Uxsm_util.Fheap.push heap (-.(xs.(ix) +. ys.(iy))) k
        end
      end
    in
    push 0 0;
    for e = 0 to n - 1 do
      (* Every cell of the nx × ny grid is reachable from (0, 0), so the
         heap holds a cell until all [n <= nx * ny] have been popped. *)
      let neg_s = Uxsm_util.Fheap.min_priority heap in
      let k = Uxsm_util.Fheap.pop_min heap in
      let ix = k / cols and iy = k mod cols in
      lv.lv_score.(e) <- -.neg_s;
      lv.lv_prev.(e) <- ix;
      lv.lv_local.(e) <- iy;
      push (ix + 1) iy;
      push ix (iy + 1)
    done
  end;
  lv

let scores_of (sols : Murty.solution array) = Array.map (fun (s : Murty.solution) -> s.score) sols

let merge ~h xs ys =
  let xa = Array.of_list xs and ya = Array.of_list ys in
  let lv = merge_level ~h (scores_of xa) (scores_of ya) in
  List.init (Array.length lv.lv_score) (fun e ->
      {
        Murty.pairs =
          List.merge pair_compare xa.(lv.lv_prev.(e)).Murty.pairs ya.(lv.lv_local.(e)).Murty.pairs;
        score = lv.lv_score.(e);
      })

(* Merge one level per local list on top of [prev]'s scores, pushing each
   onto [acc] (newest first). The fold starts from the single empty
   solution's scores. *)
let rec fold_levels ~h prev acc = function
  | [] -> acc
  | local :: rest ->
    let lv = merge_level ~h prev (scores_of local) in
    fold_levels ~h lv.lv_score (lv :: acc) rest

(* The final level's solutions as pair lists: follow each entry's
   back-pointers through every level, gather the chosen local pair lists
   and sort them. Components share no left node and each local list is
   sorted by left, so the sort is the nested [List.merge] a fold of [merge]
   would have built. *)
let materialize (locals : Murty.solution array array) (levels : level array) =
  let k = Array.length levels in
  if k = 0 then [ empty_solution ]
  else
    let last = levels.(k - 1) in
    let rec walk c e acc =
      if c < 0 then acc
      else
        let lv = levels.(c) in
        walk (c - 1) lv.lv_prev.(e) (locals.(c).(lv.lv_local.(e)).Murty.pairs :: acc)
    in
    List.init (Array.length last.lv_score) (fun e ->
        {
          Murty.pairs = List.sort pair_compare (List.concat (walk (k - 1) e []));
          score = last.lv_score.(e);
        })

let merge_fold ~h locals =
  let locals = List.map Array.of_list locals in
  let levels = List.rev (fold_levels ~h [| empty_solution.score |] [] locals) in
  materialize (Array.of_list locals) (Array.of_list levels)

(* The reusable per-component state. Plain data throughout — no closures —
   so the catalog can own one per cached mapping set and a future session
   could serialize it. [rk_locals] holds, per component in component
   order, the component's ordered edge list (the reuse key) and its local
   top-h solutions mapped back to global indices. *)
type ranked = {
  rk_h : int;
  rk_graph : Bipartite.t;
  rk_locals : ((int * int * float) list * Murty.solution array) array;
  rk_levels : level array;
      (* rk_levels.(i) = the merge fold's level over locals 0..i, so the
         last level's entries are the merged top-h. The fold is
         left-associative and order-sensitive, so a delta confined to
         component k can keep levels 0..k-1 verbatim and re-merge only the
         suffix from k on. *)
}

type delta = {
  d_set : (int * int * float) list;
  d_remove : (int * int) list;
  d_n_left : int;
  d_n_right : int;
}

let local_top ~h comp =
  (* Re-index the component to a compact bipartite, rank it, and map the
     solutions back to global indices. *)
  let l_of = Hashtbl.create 16 and r_of = Hashtbl.create 16 in
  let l_back = Array.of_list comp.lefts and r_back = Array.of_list comp.rights in
  List.iteri (fun k i -> Hashtbl.replace l_of i k) comp.lefts;
  List.iteri (fun k j -> Hashtbl.replace r_of j k) comp.rights;
  let edges =
    List.map (fun (i, j, w) -> (Hashtbl.find l_of i, Hashtbl.find r_of j, w)) comp.edges
  in
  let sub =
    Bipartite.create ~n_left:(Array.length l_back) ~n_right:(Array.length r_back) edges
  in
  Murty.top ~h sub
  |> List.map (fun (s : Murty.solution) ->
         {
           Murty.pairs = List.map (fun (i, j) -> (l_back.(i), r_back.(j))) s.pairs;
           score = s.score;
         })
  |> Array.of_list

(* Rank the components of [g], reusing any component whose ordered edge
   list is found in [cache] (a hit means identical member nodes and
   weights, so the cached global-index solution list is exactly what a
   fresh ranking would produce). Misses rank on the executor; the heap
   merge is order-sensitive, so it folds sequentially over the
   per-component lists in component order — the same fold Sequential
   performs. *)
let rank_components ~exec ~h ~cache ~reuse g =
  let comps = components g in
  Obs.incr c_runs;
  Obs.add c_components (List.length comps);
  List.iter (fun c -> Obs.add c_component_edges (List.length c.edges)) comps;
  let tagged = List.map (fun c -> (c, Hashtbl.find_opt cache c.edges)) comps in
  let misses = List.filter_map (function c, None -> Some c | _ -> None) tagged in
  let fresh = Uxsm_exec.Executor.map_list exec (local_top ~h) misses in
  let rec stitch tagged fresh =
    match (tagged, fresh) with
    | [], [] -> []
    | (c, Some cached) :: rest, _ -> (c.edges, cached) :: stitch rest fresh
    | (c, None) :: rest, local :: fresh' -> (c.edges, local) :: stitch rest fresh'
    | _ -> assert false
  in
  let locals = Array.of_list (stitch tagged fresh) in
  (* The merge fold is left-associative, so any leading run of components
     whose keys match [reuse] position by position replays exactly — a
     cache hit on the same key yields the identical local list, hence the
     identical level. Resume the fold from the last surviving level. *)
  let old_locals, old_levels = reuse in
  let n = Array.length locals in
  let rec survive c =
    if c < n && c < Array.length old_locals && fst old_locals.(c) = fst locals.(c) then
      survive (c + 1)
    else c
  in
  let kept = survive 0 in
  let start = if kept = 0 then [| empty_solution.score |] else old_levels.(kept - 1).lv_score in
  let levels =
    Obs.time s_fold (fun () ->
        let rest = List.init (n - kept) (fun c -> snd locals.(kept + c)) in
        Array.append (Array.sub old_levels 0 kept)
          (Array.of_list (List.rev (fold_levels ~h start [] rest))))
  in
  (locals, levels, List.length misses)

let rank ?(exec = Uxsm_exec.Executor.sequential) ~h g =
  if h <= 0 then invalid_arg "Partition.rank: h must be >= 1";
  Obs.time s_top @@ fun () ->
  let no_reuse = Hashtbl.create 1 in
  let locals, levels, _ = rank_components ~exec ~h ~cache:no_reuse ~reuse:([||], [||]) g in
  { rk_h = h; rk_graph = g; rk_locals = locals; rk_levels = levels }

let solutions r =
  Obs.time s_materialize (fun () -> materialize (Array.map snd r.rk_locals) r.rk_levels)

(* Each final solution written straight from the back-pointers: walk its
   levels from the last down and store every chosen local pair (i, j) as
   [a.(j) <- i]. Components share no node, so no write overlaps another. *)
let right_to_left r =
  Obs.time s_materialize @@ fun () ->
  let n = Bipartite.n_right r.rk_graph in
  let k = Array.length r.rk_levels in
  if k = 0 then [| (empty_solution.score, Array.make n (-1)) |]
  else
    let last = r.rk_levels.(k - 1) in
    Array.init (Array.length last.lv_score) (fun e ->
        let a = Array.make n (-1) in
        let entry = ref e in
        for c = k - 1 downto 0 do
          let lv = r.rk_levels.(c) in
          let sol = (snd r.rk_locals.(c)).(lv.lv_local.(!entry)) in
          List.iter (fun (i, j) -> a.(j) <- i) sol.Murty.pairs;
          entry := lv.lv_prev.(!entry)
        done;
        (last.lv_score.(e), a))

let graph r = r.rk_graph
let ranked_h r = r.rk_h

let top ?(exec = Uxsm_exec.Executor.sequential) ~h g =
  if h <= 0 then [] else solutions (rank ~exec ~h g)

let delta_of_graphs ~old g' =
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun (i, j, w) -> Hashtbl.replace old_tbl (i, j) w) (Bipartite.edges old);
  let new_tbl = Hashtbl.create 64 in
  List.iter (fun (i, j, _) -> Hashtbl.replace new_tbl (i, j) ()) (Bipartite.edges g');
  let set =
    List.filter
      (fun (i, j, w) ->
        match Hashtbl.find_opt old_tbl (i, j) with
        | Some w0 -> not (Float.equal w0 w)
        | None -> true)
      (Bipartite.edges g')
  in
  let remove =
    List.filter_map
      (fun (i, j, _) -> if Hashtbl.mem new_tbl (i, j) then None else Some (i, j))
      (Bipartite.edges old)
  in
  {
    d_set = set;
    d_remove = remove;
    d_n_left = Bipartite.n_left g';
    d_n_right = Bipartite.n_right g';
  }

let apply_delta ?(exec = Uxsm_exec.Executor.sequential) d r =
  Obs.time s_apply_delta @@ fun () ->
  Obs.incr c_delta_applies;
  let edges =
    Bipartite.apply_edge_delta ~set:d.d_set ~remove:d.d_remove (Bipartite.edges r.rk_graph)
  in
  let g = Bipartite.create ~n_left:d.d_n_left ~n_right:d.d_n_right edges in
  let cache = Hashtbl.create (Array.length r.rk_locals) in
  Array.iter (fun (key, local) -> Hashtbl.replace cache key local) r.rk_locals;
  let locals, levels, reranked =
    rank_components ~exec ~h:r.rk_h ~cache ~reuse:(r.rk_locals, r.rk_levels) g
  in
  Obs.add c_components_reranked reranked;
  Obs.add c_components_reused (Array.length locals - reranked);
  { r with rk_graph = g; rk_locals = locals; rk_levels = levels }
