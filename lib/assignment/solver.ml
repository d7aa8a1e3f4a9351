(* Square perfect-matching formulation (the paper's Figure 7):

     left side  = sources  s_0..s_{nl-1}  ++  target images t'_0..t'_{nr-1}
     right side = targets  t_0..t_{nr-1}  ++  source images s'_0..s'_{nl-1}

   Edges: real correspondences (s_i, t_j, w); zero-weight (s_i, s'_i) and
   (t'_j, t_j); and a zero-weight mirror (t'_j, s'_i) for every real edge so
   that a perfect matching exists for every injective partial real mapping.
   Perfect matchings keep the matching residual graph free of right-side
   slack, which is what makes Murty's one-augmentation warm restart sound. *)

type state = {
  match_l : int array;  (* extended left -> extended right, -1 = free *)
  match_r : int array;  (* extended right -> extended left, -1 = free *)
  pot : float array;  (* Johnson potentials: extended lefts then rights *)
}

type constraints = {
  forbidden : (int, unit) Hashtbl.t;
  committed_l : bool array;
  committed_r : bool array;
}

let n_side g = Bipartite.n_left g + Bipartite.n_right g
let encode g i extj = (i * n_side g) + extj

let no_constraints g =
  let n = n_side g in
  {
    forbidden = Hashtbl.create 16;
    committed_l = Array.make n false;
    committed_r = Array.make n false;
  }

let init g =
  let n = n_side g in
  { match_l = Array.make n (-1); match_r = Array.make n (-1); pot = Array.make (2 * n) 0.0 }

let copy st =
  { match_l = Array.copy st.match_l; match_r = Array.copy st.match_r; pot = Array.copy st.pot }

(* Iterate the out-edges of extended left node [i] as [f extj weight]. *)
let iter_edges g i f =
  let nl = Bipartite.n_left g in
  let nr = Bipartite.n_right g in
  if i < nl then begin
    (* source s_i: real edges + its own image *)
    Array.iter (fun (j, w) -> f j w) (Bipartite.adj g i);
    f (nr + i) 0.0
  end
  else begin
    (* target image t'_j: its target + mirrors of the target's real edges *)
    let j = i - nl in
    f j 0.0;
    Array.iter (fun (i', _) -> f (nr + i') 0.0) (Bipartite.radj g j)
  end

(* Weight of the edge from extended left [i] to extended right [extj];
   assumes the edge exists. Only real correspondences carry weight. *)
let edge_weight g i extj =
  let nl = Bipartite.n_left g in
  let nr = Bipartite.n_right g in
  if i < nl && extj < nr then
    match Bipartite.weight g i extj with
    | Some w -> w
    | None -> assert false
  else 0.0

let augment g cs st i0 =
  let n = n_side g in
  let shift = Bipartite.max_weight g in
  let inf = infinity in
  let dist = Array.make (2 * n) inf in
  let visited_r = Array.make n false in
  let prev_right = Array.make n (-1) in
  let heap = Uxsm_util.Fheap.create () in
  let allowed i extj =
    (not (Hashtbl.mem cs.forbidden (encode g i extj))) && not cs.committed_r.(extj)
  in
  let relax i di =
    iter_edges g i (fun extj w ->
        if (not visited_r.(extj)) && allowed i extj then begin
          let nd = di +. (shift -. w) +. st.pot.(i) -. st.pot.(n + extj) in
          if nd < dist.(n + extj) then begin
            dist.(n + extj) <- nd;
            prev_right.(extj) <- i;
            Uxsm_util.Fheap.push heap nd extj
          end
        end)
  in
  dist.(i0) <- 0.0;
  relax i0 0.0;
  (* Run Dijkstra to exhaustion: in warm restarts a freed right may keep a
     stale potential, so the correct exit minimizes [dist j + pot j], which
     is only known once every reachable node is finalized. *)
  let rec scan () =
    if not (Uxsm_util.Fheap.is_empty heap) then begin
      let d = Uxsm_util.Fheap.min_priority heap in
      let extj = Uxsm_util.Fheap.pop_min heap in
      if visited_r.(extj) then scan ()
      else begin
        visited_r.(extj) <- true;
        if st.match_r.(extj) = -1 then scan ()
        else begin
          let i = st.match_r.(extj) in
          let w = edge_weight g i extj in
          let di = d -. (shift -. w) +. st.pot.(n + extj) -. st.pot.(i) in
          dist.(i) <- di;
          relax i di;
          scan ()
        end
      end
    end
  in
  scan ();
  let found = ref (-1) in
  let best_exit = ref inf in
  for extj = 0 to n - 1 do
    if st.match_r.(extj) = -1 && dist.(n + extj) < inf then begin
      let exit_cost = dist.(n + extj) +. st.pot.(n + extj) in
      if exit_cost < !best_exit then begin
        best_exit := exit_cost;
        found := extj
      end
    end
  done;
  if !found = -1 then false
  else begin
    let d_final = dist.(n + !found) in
    for x = 0 to (2 * n) - 1 do
      st.pot.(x) <- st.pot.(x) +. min dist.(x) d_final
    done;
    (* Flip matched edges along the augmenting path. *)
    let rec walk extj =
      let i = prev_right.(extj) in
      let prev_match = st.match_l.(i) in
      st.match_l.(i) <- extj;
      st.match_r.(extj) <- i;
      if i <> i0 then walk prev_match
    in
    walk !found;
    true
  end

let unmatch st i =
  let extj = st.match_l.(i) in
  if extj >= 0 then begin
    st.match_l.(i) <- -1;
    st.match_r.(extj) <- -1
  end

let solve g cs st =
  let n = n_side g in
  let rec go i =
    if i >= n then true
    else if cs.committed_l.(i) || st.match_l.(i) >= 0 then go (i + 1)
    else if augment g cs st i then go (i + 1)
    else false
  in
  go 0

let matched_ext st i = st.match_l.(i)

let score g st =
  let nl = Bipartite.n_left g in
  let nr = Bipartite.n_right g in
  let total = ref 0.0 in
  for i = 0 to nl - 1 do
    let extj = st.match_l.(i) in
    if extj >= 0 && extj < nr then total := !total +. edge_weight g i extj
  done;
  !total
