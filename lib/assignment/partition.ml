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

(* Union-find over left nodes [0, nl) and right nodes [nl, nl + nr). Links
   point at the smaller node, so a root is its component's smallest node:
   a left node, since a component holds an edge and left indices come
   first. Edges and nodes are bucketed by root in arrays indexed by it,
   walked downwards so every bucket comes out ascending. *)
let components g =
  let nl = Bipartite.n_left g in
  let nr = Bipartite.n_right g in
  let parent = Array.init (nl + nr) Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  let edges = Bipartite.edges g in
  List.iter (fun (i, j, _) -> union i (nl + j)) edges;
  let by_root = Array.make nl [] and lefts = Array.make nl [] and rights = Array.make nl [] in
  List.iter
    (fun ((i, _, _) as e) ->
      let r = find i in
      by_root.(r) <- e :: by_root.(r))
    edges;
  for i = nl - 1 downto 0 do
    if Array.length (Bipartite.adj g i) > 0 then begin
      let r = find i in
      lefts.(r) <- i :: lefts.(r)
    end
  done;
  for j = nr - 1 downto 0 do
    if Array.length (Bipartite.radj g j) > 0 then begin
      let r = find (nl + j) in
      rights.(r) <- j :: rights.(r)
    end
  done;
  let comps = ref [] in
  for r = nl - 1 downto 0 do
    match by_root.(r) with
    | [] -> ()
    | rev_edges ->
      comps := { lefts = lefts.(r); rights = rights.(r); edges = List.rev rev_edges } :: !comps
  done;
  !comps

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
   seen-bitmap needs at most [(h + 1)^2] bits. The walk runs in [heap],
   emptied first, so a fold's levels share one heap. *)
let merge_level ~heap ~h xs ys =
  Obs.incr c_merges;
  let nx = Array.length xs and ny = Array.length ys in
  let n = if nx = 0 || ny = 0 || h <= 0 then 0 else min h (nx * ny) in
  let lv = { lv_score = Array.make n 0.0; lv_prev = Array.make n 0; lv_local = Array.make n 0 } in
  if n > 0 then begin
    let rows = if h < nx then h + 1 else nx and cols = if h < ny then h + 1 else ny in
    let seen = Bytes.make (((rows * cols) + 7) / 8) '\000' in
    Uxsm_util.Fheap.clear heap;
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
  let lv = merge_level ~heap:(Uxsm_util.Fheap.create ()) ~h (scores_of xa) (scores_of ya) in
  List.init (Array.length lv.lv_score) (fun e ->
      {
        Murty.pairs =
          List.merge pair_compare xa.(lv.lv_prev.(e)).Murty.pairs ya.(lv.lv_local.(e)).Murty.pairs;
        score = lv.lv_score.(e);
      })

(* Merge one level per local list on top of [prev]'s scores, in list
   order, all in one heap. The fold starts from the single empty
   solution's scores. *)
let fold_levels ~h prev locals =
  let heap = Uxsm_util.Fheap.create () in
  let rec go prev acc = function
    | [] -> Array.of_list (List.rev acc)
    | local :: rest ->
      let lv = merge_level ~heap ~h prev (scores_of local) in
      go lv.lv_score (lv :: acc) rest
  in
  go prev [] locals

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
  materialize (Array.of_list locals) (fold_levels ~h [| empty_solution.score |] locals)

(* The reusable per-component state. Plain data throughout — no closures —
   so the catalog can own one per cached mapping set and a future session
   could serialize it. [rk_locals] holds, per component in component
   order, the component's ordered edge list (the reuse key) and its local
   top-h solutions mapped back to global indices. *)
type ranked = {
  rk_h : int;
  rk_n_right : int;
  rk_locals : ((int * int * float) list * Murty.solution array) array;
  rk_levels : level array;
      (* rk_levels.(i) = the merge fold's level over locals 0..i, so the
         last level's entries are the merged top-h. The fold is
         left-associative and order-sensitive, so an edit confined to
         component k can keep levels 0..k-1 verbatim and re-merge only the
         suffix from k on. *)
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

(* Rank the components of [g] against an [old] ranking at the same [h]
   (a fresh ranking passes no components and no levels). A component
   whose ordered edge list is one of [old]'s keys takes [old]'s local
   list: equal keys mean identical member nodes and weights, so that list
   is exactly what a fresh Murty run would produce. Misses rank on the
   executor; the heap merge is order-sensitive, so it folds sequentially
   over the per-component lists in component order — the same fold
   Sequential performs. *)
let rank_components ~exec ~h ~old_locals ~old_levels g =
  let comps = components g in
  Obs.incr c_runs;
  Obs.add c_components (List.length comps);
  List.iter (fun c -> Obs.add c_component_edges (List.length c.edges)) comps;
  let cache = Hashtbl.create (Array.length old_locals + 1) in
  Array.iter (fun (key, local) -> Hashtbl.replace cache key local) old_locals;
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
     whose keys match [old_locals] position by position replays exactly —
     the same key yields the identical local list, hence the identical
     level. Resume the fold from the last surviving level. *)
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
        Array.append (Array.sub old_levels 0 kept) (fold_levels ~h start rest))
  in
  ({ rk_h = h; rk_n_right = Bipartite.n_right g; rk_locals = locals; rk_levels = levels },
   List.length misses)

let rank ?(exec = Uxsm_exec.Executor.sequential) ~h g =
  if h <= 0 then invalid_arg "Partition.rank: h must be >= 1";
  Obs.time s_top @@ fun () ->
  fst (rank_components ~exec ~h ~old_locals:[||] ~old_levels:[||] g)

let rerank ?(exec = Uxsm_exec.Executor.sequential) ~old g =
  Obs.time s_apply_delta @@ fun () ->
  Obs.incr c_delta_applies;
  let r, reranked =
    rank_components ~exec ~h:old.rk_h ~old_locals:old.rk_locals ~old_levels:old.rk_levels g
  in
  Obs.add c_components_reranked reranked;
  Obs.add c_components_reused (Array.length r.rk_locals - reranked);
  r

let solutions r =
  Obs.time s_materialize (fun () -> materialize (Array.map snd r.rk_locals) r.rk_levels)

(* Store every pair (i, j) of a local solution as [a.(j) <- i], by plain
   recursion: no closure per solution and level. *)
let rec write_pairs a = function
  | [] -> ()
  | (i, j) :: rest ->
    a.(j) <- i;
    write_pairs a rest

(* Each final solution written straight from the back-pointers into one
   scratch array: clear it, walk the solution's levels from the last down
   and write every chosen local solution's pairs. Components share no
   node, so no write overlaps another. *)
let right_to_left r f =
  Obs.time s_materialize @@ fun () ->
  let n = r.rk_n_right in
  let a = Array.make n (-1) in
  let k = Array.length r.rk_levels in
  if k = 0 then [| f empty_solution.score a |]
  else
    let last = r.rk_levels.(k - 1) in
    Array.init (Array.length last.lv_score) (fun e ->
        Array.fill a 0 n (-1);
        let entry = ref e in
        for c = k - 1 downto 0 do
          let lv = r.rk_levels.(c) in
          write_pairs a (snd r.rk_locals.(c)).(lv.lv_local.(!entry)).Murty.pairs;
          entry := lv.lv_prev.(!entry)
        done;
        f last.lv_score.(e) a)

let top ?(exec = Uxsm_exec.Executor.sequential) ~h g =
  if h <= 0 then [] else solutions (rank ~exec ~h g)
