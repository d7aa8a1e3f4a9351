module Json = Uxsm_util.Json
module Obs = Uxsm_obs.Obs

(* Observability: how often plans are compiled, and how many of them a
   caller forced. *)
let c_compiled = Obs.counter "plan.compiled"
let c_forced = Obs.counter "plan.forced"

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

type reason = Forced | Units

type t = {
  ops : op list;
  evaluator : evaluator;
  reason : reason;
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
  | Units -> "units"

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

(* ------------------------------ choice ----------------------------- *)

(* [force] alone decides. An auto plan runs Algorithm 3 over its units:
   the units already evaluate once per distinct rewriting, which leaves a
   block tree nothing to share (DESIGN.md §12). *)
let choose ?k ~force ~resolutions ~relevant ~evaluated ~units () =
  let evaluator, reason =
    match force with
    | `Basic -> (Per_mapping, Forced)
    | `Tree -> (Per_block, Forced)
    | `Auto -> (Per_mapping, Units)
  in
  Obs.incr c_compiled;
  if reason = Forced then Obs.incr c_forced;
  { ops = ops_of ?k (Some evaluator); evaluator; reason; resolutions; relevant; evaluated; units }

(* ----------------------------- rendering --------------------------- *)

let describe t =
  String.concat "\n"
    ([
       Printf.sprintf "plan: evaluator=%s (%s)" (evaluator_name t.evaluator)
         (reason_name t.reason);
       Printf.sprintf "  cardinalities: resolutions=%d relevant=%d evaluated=%d units=%d"
         t.resolutions t.relevant t.evaluated t.units;
     ]
    @ List.map (fun op -> Printf.sprintf "  -> %s" (op_name op)) t.ops)

let to_json t =
  Json.Assoc
    [
      ("evaluator", Json.String (evaluator_name t.evaluator));
      ("reason", Json.String (reason_name t.reason));
      ("resolutions", Json.Int t.resolutions);
      ("relevant", Json.Int t.relevant);
      ("evaluated", Json.Int t.evaluated);
      ("units", Json.Int t.units);
      ("ops", Json.List (List.map (fun op -> Json.String (op_name op)) t.ops));
    ]
