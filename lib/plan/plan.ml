module Pattern = Uxsm_twig.Pattern
module Binding = Uxsm_twig.Binding
module Block_tree = Uxsm_blocktree.Block_tree
module Json = Uxsm_util.Json
module Obs = Uxsm_obs.Obs

(* Observability: how often plans are compiled, and which way the cost
   model decides when it is free to choose. *)
let c_compiled = Obs.counter "plan.compiled"
let c_forced = Obs.counter "plan.forced"
let c_no_tree = Obs.counter "plan.no_tree"
let c_auto_per_block = Obs.counter "plan.auto_per_block"
let c_auto_per_mapping = Obs.counter "plan.auto_per_mapping"

type evaluator = Per_mapping | Per_block

type force = [ `Auto | `Basic | `Tree ]

type op =
  | Resolve
  | Coverage
  | Relevance_filter
  | Topk_prune of int
  | Evaluate of evaluator option
  | Ordered_merge
  | Sink

type cost = {
  per_mapping : float;
  per_block : float option;
}

type reason = Forced | No_tree | Cost_based

type t = {
  ops : op list;
  evaluator : evaluator;
  reason : reason;
  cost : cost;
  resolutions : int;
  relevant : int;
  evaluated : int;
  units : int;
}

(* ------------------------------- names ----------------------------- *)

let evaluator_name = function
  | Per_mapping -> "per_mapping"
  | Per_block -> "per_block"

(* The wire vocabulary matches the CLI flag values, not the operator
   names: a forced choice reads back as the word that forced it. *)
let evaluator_wire = function
  | Per_mapping -> "basic"
  | Per_block -> "tree"

let force_of_string = function
  | "basic" -> Some `Basic
  | "tree" -> Some `Tree
  | "auto" -> Some `Auto
  | _ -> None

let force_to_string = function
  | `Basic -> "basic"
  | `Tree -> "tree"
  | `Auto -> "auto"

let reason_name = function
  | Forced -> "forced"
  | No_tree -> "no_tree"
  | Cost_based -> "cost"

let op_name = function
  | Resolve -> "resolve"
  | Coverage -> "coverage"
  | Relevance_filter -> "relevance_filter"
  | Topk_prune k -> Printf.sprintf "topk_prune(%d)" k
  | Evaluate None -> "evaluate"
  | Evaluate (Some e) -> Printf.sprintf "evaluate[%s]" (evaluator_name e)
  | Ordered_merge -> "ordered_merge"
  | Sink -> "sink[answers]"

let ops_of ?k evaluator =
  [ Resolve; Coverage; Relevance_filter ]
  @ (match k with None -> [] | Some k -> [ Topk_prune k ])
  @ [ Evaluate evaluator; Ordered_merge; Sink ]

let logical ?k () = ops_of ?k None

(* ----------------------------- cost model -------------------------- *)

(* The unit of cost is one rewrite+match visit of one pattern node for one
   mapping. Algorithm 3 pays the full pattern for every (mapping,
   resolution) pair it covers; Algorithm 4 replaces the mappings sharing a
   c-block at a resolved node with one evaluation per block, at the price
   of decomposition joins where no block applies. *)

(* Pre-order pattern shape: subquery sizes and child ids, mirroring
   Ptq.index_pattern without the evaluation machinery. *)
type shape = {
  sh_sizes : int array;
  sh_children : int array array;
  sh_n : int;
}

let shape_of (p : Pattern.t) =
  let n = List.length (Pattern.nodes p) in
  let sizes = Array.make n 0 in
  let children = Array.make n [||] in
  let next = ref 0 in
  let rec go (node : Pattern.node) =
    let id = !next in
    incr next;
    let kids = List.map (fun (_, c) -> go c) (Pattern.branches node) in
    children.(id) <- Array.of_list kids;
    sizes.(id) <- !next - id;
    id
  in
  ignore (go p.Pattern.root);
  { sh_sizes = sizes; sh_children = children; sh_n = n }

(* Flat per-join overhead (in node-visit units) charged per mapping and
   child when a subquery decomposes instead of hitting a block. A stack
   join touches both input tables, so it costs about two node visits. *)
let join_charge = 2.0

let estimate ?tree ~n_mappings ~pattern ~resolutions ~coverage () =
  let sh = shape_of pattern in
  (* m_r: how many relevant mappings cover resolution r. *)
  let nr = Array.length resolutions in
  let m_per_res = Array.make nr 0 in
  List.iter
    (fun (_, covered) ->
      List.iter (fun r -> m_per_res.(r) <- m_per_res.(r) + 1) covered)
    coverage;
  let per_mapping =
    Array.fold_left
      (fun acc m -> acc +. (float_of_int m *. float_of_int sh.sh_n))
      0.0 m_per_res
  in
  let per_block =
    match tree with
    | None -> None
    | Some tree ->
      let total_m = float_of_int (max 1 n_mappings) in
      let est_resolution (res : Binding.t) m =
        let mf = float_of_int m in
        let rec est q =
          let ns = Block_tree.node_stats tree res.(q) in
          if ns.Block_tree.ns_blocks > 0 then begin
            (* query_subtree: one shared evaluation per block touched, plus
               direct evaluations for the expected residual mappings no
               block claims. *)
            let b = float_of_int ns.Block_tree.ns_blocks in
            let covered_frac =
              Float.min 1.0 (b *. ns.Block_tree.ns_mean_mappings /. total_m)
            in
            let shared = Float.min b mf in
            let residual = mf *. (1.0 -. covered_frac) in
            (shared +. residual) *. float_of_int sh.sh_sizes.(q)
          end
          else if Array.length sh.sh_children.(q) = 0 then mf
          else
            (* split_query: the root-only match per mapping, the children
               recursively, and one stack join per (mapping, child). *)
            Array.fold_left
              (fun acc c -> acc +. est c +. (join_charge *. mf))
              mf sh.sh_children.(q)
        in
        est 0
      in
      let total = ref 0.0 in
      Array.iteri
        (fun r m -> if m > 0 then total := !total +. est_resolution resolutions.(r) m)
        m_per_res;
      Some !total
  in
  { per_mapping; per_block }

let choose ?tree ?k ~force ~n_mappings ~pattern ~resolutions ~coverage
    ~relevant () =
  (match (force, tree) with
  | `Tree, None ->
    invalid_arg "Plan.choose: cannot force the per-block evaluator without a block tree"
  | _ -> ());
  let cost = estimate ?tree ~n_mappings ~pattern ~resolutions ~coverage () in
  let evaluator, reason =
    match (force, cost.per_block) with
    | `Basic, _ -> (Per_mapping, Forced)
    | `Tree, _ -> (Per_block, Forced)
    | `Auto, None -> (Per_mapping, No_tree)
    | `Auto, Some pb ->
      ((if pb < cost.per_mapping then Per_block else Per_mapping), Cost_based)
  in
  Obs.incr c_compiled;
  (match (reason, evaluator) with
  | Forced, _ -> Obs.incr c_forced
  | No_tree, _ -> Obs.incr c_no_tree
  | Cost_based, Per_block -> Obs.incr c_auto_per_block
  | Cost_based, Per_mapping -> Obs.incr c_auto_per_mapping);
  {
    ops = ops_of ?k (Some evaluator);
    evaluator;
    reason;
    cost;
    resolutions = Array.length resolutions;
    relevant;
    evaluated = List.length coverage;
    (* One-mapping units, the literal algorithms' count; [Ptq.compile]
       lowers it when it groups mappings. *)
    units = List.fold_left (fun n (_, covered) -> n + List.length covered) 0 coverage;
  }

(* ----------------------------- rendering --------------------------- *)

let describe t =
  let cost_line =
    match t.cost.per_block with
    | None -> Printf.sprintf "per_mapping=%.1f, per_block=n/a (no block tree)" t.cost.per_mapping
    | Some pb -> Printf.sprintf "per_mapping=%.1f, per_block=%.1f" t.cost.per_mapping pb
  in
  String.concat "\n"
    ([
       Printf.sprintf "plan: evaluator=%s (%s)" (evaluator_name t.evaluator)
         (reason_name t.reason);
       Printf.sprintf "  cost: %s" cost_line;
       Printf.sprintf "  cardinalities: resolutions=%d relevant=%d evaluated=%d units=%d"
         t.resolutions t.relevant t.evaluated t.units;
     ]
    @ List.map (fun op -> Printf.sprintf "  -> %s" (op_name op)) t.ops)

let to_json t =
  Json.Assoc
    [
      ("evaluator", Json.String (evaluator_name t.evaluator));
      ("reason", Json.String (reason_name t.reason));
      ( "cost",
        Json.Assoc
          ([ ("per_mapping", Json.Float t.cost.per_mapping) ]
          @
          match t.cost.per_block with
          | None -> []
          | Some pb -> [ ("per_block", Json.Float pb) ]) );
      ("resolutions", Json.Int t.resolutions);
      ("relevant", Json.Int t.relevant);
      ("evaluated", Json.Int t.evaluated);
      ("units", Json.Int t.units);
      ("ops", Json.List (List.map (fun op -> Json.String (op_name op)) t.ops));
    ]
