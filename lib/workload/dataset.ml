module Coma = Uxsm_matcher.Coma

type t = {
  id : string;
  source : Standards.style;
  target : Standards.style;
  strategy : Coma.strategy;
  capacity : int;
  paper_o_ratio : float;
}

let all =
  [
    { id = "D1"; source = Standards.excel; target = Standards.noris; strategy = Coma.Fragment; capacity = 30; paper_o_ratio = 0.79 };
    { id = "D2"; source = Standards.excel; target = Standards.paragon; strategy = Coma.Context; capacity = 47; paper_o_ratio = 0.63 };
    { id = "D3"; source = Standards.excel; target = Standards.paragon; strategy = Coma.Fragment; capacity = 31; paper_o_ratio = 0.57 };
    { id = "D4"; source = Standards.noris; target = Standards.paragon; strategy = Coma.Context; capacity = 41; paper_o_ratio = 0.64 };
    { id = "D5"; source = Standards.noris; target = Standards.paragon; strategy = Coma.Fragment; capacity = 21; paper_o_ratio = 0.53 };
    { id = "D6"; source = Standards.opentrans; target = Standards.apertum; strategy = Coma.Context; capacity = 77; paper_o_ratio = 0.87 };
    { id = "D7"; source = Standards.xcbl; target = Standards.apertum; strategy = Coma.Context; capacity = 226; paper_o_ratio = 0.84 };
    { id = "D8"; source = Standards.xcbl; target = Standards.cidx; strategy = Coma.Context; capacity = 127; paper_o_ratio = 0.82 };
    { id = "D9"; source = Standards.xcbl; target = Standards.opentrans; strategy = Coma.Context; capacity = 619; paper_o_ratio = 0.91 };
    { id = "D10"; source = Standards.opentrans; target = Standards.xcbl; strategy = Coma.Context; capacity = 619; paper_o_ratio = 0.91 };
  ]

let find id = List.find_opt (fun d -> String.equal d.id id) all

let d7 =
  match find "D7" with
  | Some d -> d
  | None -> assert false

(* The memo tables are process-global so concurrent callers (the server
   dispatches batches of pure requests across domains) must serialize
   around them. Each table gets its own lock; [mapping_set] calls
   [matching] while holding its own, so the nesting is always
   mset (40) → matching (44), in rank order. Holding the lock across the
   miss path means a concurrent
   request for the same dataset waits instead of duplicating the work. *)
let matching_lock =
  Uxsm_util.Locks.create ~name:"dataset.matching" ~rank:Uxsm_util.Locks.rank_dataset_matching

(* The matching memo keeps the [matching_capacity] most recently used
   (dataset, seed) pairs, most recent first: 16 holds all ten Table II
   datasets at one seed, while a long-running server registering fresh
   seeds (the onboarding workload) no longer keeps every matching it ever
   computed. A compute leaves its result at the head, so a second call
   right after the first still hits. *)
let matching_capacity = 16

(* lint: allow domain-unsafe — guarded by matching_lock *)
let matching_cache : ((string * int) * Uxsm_mapping.Matching.t) list ref = ref []

(* [exec] is deliberately absent from the cache keys below: every backend
   produces bit-identical results (see Uxsm_exec.Executor), so a hit cached
   under one backend is a valid answer under any other. *)
let default_seed = 42

let matching ?(seed = default_seed) ?(exec = Uxsm_exec.Executor.sequential) d =
  Uxsm_util.Locks.with_lock matching_lock @@ fun () ->
  let is_key ((id, s), _) = String.equal id d.id && s = seed in
  let m =
    match List.find_opt is_key !matching_cache with
    | Some (_, m) -> m
    | None ->
      let source = Standards.generate ~seed d.source in
      let target = Standards.generate ~seed d.target in
      Coma.run_with_capacity ~exec ~strategy:d.strategy ~capacity:d.capacity ~source ~target ()
  in
  let rest = List.filter (fun e -> not (is_key e)) !matching_cache in
  matching_cache := ((d.id, seed), m) :: List.filteri (fun i _ -> i < matching_capacity - 1) rest;
  m

let mset_lock =
  Uxsm_util.Locks.create ~name:"dataset.mset" ~rank:Uxsm_util.Locks.rank_dataset_mset

(* lint: allow domain-unsafe — guarded by mset_lock *)
let mset_cache : (string * int * int, Uxsm_mapping.Mapping_set.t) Hashtbl.t =
  Hashtbl.create 16

let mapping_set ?(seed = default_seed) ?(exec = Uxsm_exec.Executor.sequential) ~h d =
  let key = (d.id, seed, h) in
  Uxsm_util.Locks.with_lock mset_lock @@ fun () ->
  match Hashtbl.find_opt mset_cache key with
  | Some s -> s
  | None ->
    let s = Uxsm_mapping.Mapping_set.generate ~exec ~h (matching ~seed ~exec d) in
    Hashtbl.add mset_cache key s;
    s
