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

(* The matched real pairs, by left, read off the solver state. *)
let solution_of g node =
  let nr = Bipartite.n_right g in
  let pairs = ref [] in
  for i = Bipartite.n_left g - 1 downto 0 do
    let extj = Solver.matched_ext node.st i in
    if extj >= 0 && extj < nr then pairs := (i, extj) :: !pairs
  done;
  { pairs = !pairs; score = node.score }

let rec mem_pair i j = function
  | [] -> false
  | (i', j') :: rest -> (i' = i && j' = j) || mem_pair i j rest

(* Left nodes whose solution edge is worth excluding, in partition order:
   fewest remaining alternatives first, ties by index. *)
let partition_candidates g node =
  let nl = Bipartite.n_left g and nr = Bipartite.n_right g in
  let committed = Array.make nl false in
  List.iter (fun (i, _) -> committed.(i) <- true) node.fixed;
  let alternatives i extj =
    (* Real edges of [i], other than its current one, not yet excluded. *)
    let adj = Bipartite.adj g i in
    let alt = ref 0 in
    for k = 0 to Array.length adj - 1 do
      let j = fst adj.(k) in
      if j <> extj && not (mem_pair i j node.excluded) then incr alt
    done;
    !alt
  in
  let candidates = ref [] in
  (* Partition on source-side edges only: a real mapping is fully determined
     by the choices of the sources, so branching on padding (mirror) edges
     would enumerate duplicate mappings. *)
  for i = nl - 1 downto 0 do
    if not committed.(i) then begin
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

(* A ranking stopped between deliveries: the state of the [top] loop,
   kept. [last] is the node delivered last; while [unexpanded], its
   children are not yet partitioned off. *)
type cursor = {
  g : Bipartite.t;
  h : int;
  cs : Solver.constraints;  (* scratch for one expansion, reset by it *)
  payloads : (int, node) Hashtbl.t;
  mutable next_uid : int;
  mutable queue : Q.t;
  mutable delivered : int;
  mutable last : node;
  mutable unexpanded : bool;
}

let push c node =
  let uid = c.next_uid in
  c.next_uid <- uid + 1;
  Hashtbl.replace c.payloads uid node;
  c.queue <- Q.add (node.score, uid) c.queue

let trim c cap =
  while Q.cardinal c.queue > cap do
    Obs.incr c_queue_trims;
    let ((_, uid) as worst) = Q.min_elt c.queue in
    c.queue <- Q.remove worst c.queue;
    Hashtbl.remove c.payloads uid
  done

let expand c node =
  let g = c.g and cs = c.cs in
  Hashtbl.reset cs.forbidden;
  Array.fill cs.committed_l 0 (Array.length cs.committed_l) false;
  Array.fill cs.committed_r 0 (Array.length cs.committed_r) false;
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
      push c { fixed = !fixed_prefix; excluded = (i, extj) :: node.excluded; st; score }
    end;
    Hashtbl.remove cs.forbidden key;
    (* This solution edge becomes part of the fixed prefix for subsequent
       children (Murty's partitioning). *)
    fixed_prefix := (i, extj) :: !fixed_prefix;
    cs.committed_l.(i) <- true;
    cs.committed_r.(extj) <- true
  in
  List.iter emit (partition_candidates g node)

let start ~h g =
  if h <= 0 then invalid_arg "Murty.start: h must be >= 1";
  let root_st = Solver.init g and cs = Solver.no_constraints g in
  Obs.incr c_solves;
  let solved = Solver.solve g cs root_st in
  assert solved;
  (* image edges make the root always feasible *)
  let root = { fixed = []; excluded = []; st = root_st; score = Solver.score g root_st } in
  let c =
    {
      g;
      h;
      cs;
      payloads = Hashtbl.create 64;
      next_uid = 0;
      queue = Q.empty;
      delivered = 0;
      last = root;
      unexpanded = false;
    }
  in
  push c root;
  c

(* Once k solutions have been delivered, only the best (h - k) queued
   subproblems can ever be popped, so the trim after an expansion depends
   on h and k alone: a cursor stopped after k deliveries has taken exactly
   the first k steps of a ranking that runs on. *)
let has_next c =
  if c.unexpanded then begin
    c.unexpanded <- false;
    Obs.incr c_expansions;
    expand c c.last;
    trim c (c.h - c.delivered)
  end;
  c.delivered < c.h && not (Q.is_empty c.queue)

let next c =
  if not (has_next c) then invalid_arg "Murty.next: the ranking is exhausted";
  let ((_, uid) as best) = Q.max_elt c.queue in
  c.queue <- Q.remove best c.queue;
  let node = Hashtbl.find c.payloads uid in
  Hashtbl.remove c.payloads uid;
  c.delivered <- c.delivered + 1;
  c.last <- node;
  c.unexpanded <- c.delivered < c.h;
  solution_of c.g node

let top ~h g =
  if h <= 0 then []
  else
    Obs.time s_top @@ fun () ->
    let c = start ~h g in
    let rec loop acc = if has_next c then loop (next c :: acc) else List.rev acc in
    loop []
