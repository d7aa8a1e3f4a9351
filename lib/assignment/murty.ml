module Obs = Uxsm_obs.Obs

(* Observability: ranking cost drivers (solver work and queue pressure). *)
let c_solves = Obs.counter "murty.solves"
let c_augments = Obs.counter "murty.augments"
let c_expansions = Obs.counter "murty.expansions"
let c_queue_trims = Obs.counter "murty.queue_trims"
let s_top = Obs.span "murty.top"

type solution = {
  pairs : (int * int) list;
  score : float;
}

type node = {
  fixed : (int * int) list;  (* committed (left, extright) pairs *)
  excluded : (int * int) list;  (* forbidden (left, extright) pairs *)
  st : Solver.state;
  score : float;
}

(* Priority queue of subproblems ordered by best score, with a hard capacity:
   once k solutions have been delivered, only the best (h - k) queued
   subproblems can ever be popped, so worse entries are dropped to bound
   memory (each entry carries O(n) arrays). *)
module Q = Set.Make (struct
  type t = float * int

  let compare (s1, u1) (s2, u2) =
    match Float.compare s1 s2 with
    | 0 -> Int.compare u1 u2
    | c -> c
end)

let solution_of g node =
  let pairs = ref [] in
  let assignment = Solver.assignment g node.st in
  Array.iteri (fun i j -> if j >= 0 then pairs := (i, j) :: !pairs) assignment;
  { pairs = List.rev !pairs; score = node.score }

(* Left nodes whose solution edge is worth excluding, in partition order:
   fewest remaining alternatives first, ties by index. *)
let partition_candidates g node =
  let committed = Hashtbl.create 16 in
  List.iter (fun (i, _) -> Hashtbl.replace committed i ()) node.fixed;
  let excluded_keys = Hashtbl.create 16 in
  List.iter (fun (i, extj) -> Hashtbl.replace excluded_keys (Solver.encode g i extj) ()) node.excluded;
  let nr = Bipartite.n_right g in
  let alternatives i extj =
    (* Real edges of [i], other than its current one, not yet excluded. *)
    Array.to_list (Bipartite.adj g i)
    |> List.filter (fun (j, _) -> j <> extj && not (Hashtbl.mem excluded_keys (Solver.encode g i j)))
    |> List.length
  in
  let candidates = ref [] in
  (* Partition on source-side edges only: a real mapping is fully determined
     by the choices of the sources, so branching on padding (mirror) edges
     would enumerate duplicate mappings. *)
  for i = Bipartite.n_left g - 1 downto 0 do
    if not (Hashtbl.mem committed i) then begin
      let extj = Solver.matched_ext node.st i in
      let is_image = extj >= nr in
      let alt = alternatives i extj in
      (* Excluding an image edge is only feasible when a real alternative
         exists; excluding a real edge always leaves the image fallback
         (unless that image was itself excluded, checked by the solver). *)
      if (not is_image) || alt > 0 then candidates := (i, extj, alt) :: !candidates
    end
  done;
  List.stable_sort (fun (_, _, a1) (_, _, a2) -> Int.compare a1 a2) !candidates

let expand g node push =
  let cs = Solver.no_constraints g in
  List.iter
    (fun (i, extj) ->
      cs.committed_l.(i) <- true;
      cs.committed_r.(extj) <- true)
    node.fixed;
  List.iter
    (fun (i, extj) -> Hashtbl.replace cs.forbidden (Solver.encode g i extj) ())
    node.excluded;
  let fixed_prefix = ref node.fixed in
  let emit (i, extj, _alt) =
    let key = Solver.encode g i extj in
    Hashtbl.replace cs.forbidden key ();
    Obs.incr c_augments;
    let st = Solver.copy node.st in
    Solver.unmatch st i;
    if Solver.augment g cs st i then begin
      let score = Solver.score g st in
      push { fixed = !fixed_prefix; excluded = (i, extj) :: node.excluded; st; score }
    end;
    Hashtbl.remove cs.forbidden key;
    (* This solution edge becomes part of the fixed prefix for subsequent
       children (Murty's partitioning). *)
    fixed_prefix := (i, extj) :: !fixed_prefix;
    cs.committed_l.(i) <- true;
    cs.committed_r.(extj) <- true
  in
  List.iter emit (partition_candidates g node)

let top ~h g =
  if h <= 0 then []
  else
    Obs.time s_top @@ fun () ->
    let root_st = Solver.init g in
    let root_cs = Solver.no_constraints g in
    Obs.incr c_solves;
    let solved = Solver.solve g root_cs root_st in
    assert solved;
    (* image edges make the root always feasible *)
    let root = { fixed = []; excluded = []; st = root_st; score = Solver.score g root_st } in
    let payloads : (int, node) Hashtbl.t = Hashtbl.create 64 in
    let next_uid = ref 0 in
    let queue = ref Q.empty in
    let push node =
      let uid = !next_uid in
      incr next_uid;
      Hashtbl.replace payloads uid node;
      queue := Q.add (node.score, uid) !queue
    in
    let trim cap =
      while Q.cardinal !queue > cap do
        Obs.incr c_queue_trims;
        let ((_, uid) as worst) = Q.min_elt !queue in
        queue := Q.remove worst !queue;
        Hashtbl.remove payloads uid
      done
    in
    push root;
    let results = ref [] in
    let delivered = ref 0 in
    while !delivered < h && not (Q.is_empty !queue) do
      let ((_, uid) as best) = Q.max_elt !queue in
      queue := Q.remove best !queue;
      let node = Hashtbl.find payloads uid in
      Hashtbl.remove payloads uid;
      results := solution_of g node :: !results;
      incr delivered;
      if !delivered < h then begin
        Obs.incr c_expansions;
        expand g node push;
        trim (h - !delivered)
      end
    done;
    List.rev !results
