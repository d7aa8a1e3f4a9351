module Schema = Uxsm_schema.Schema
module Bipartite = Uxsm_assignment.Bipartite

type corr = {
  source : Schema.element;
  target : Schema.element;
  score : float;
}

type t = {
  source : Schema.t;
  target : Schema.t;
  graph : Bipartite.t;
      (* left = source elements, right = target elements, one edge per
         correspondence in creation order *)
}

let of_edges ~source ~target edges =
  {
    source;
    target;
    graph = Bipartite.create ~n_left:(Schema.size source) ~n_right:(Schema.size target) edges;
  }

(* The score and range checks guard outside input; the graph rejects a
   duplicate pair as it is built. *)
let create ~source ~target corrs =
  let n_source = Schema.size source and n_target = Schema.size target in
  let edge (c : corr) =
    if c.source < 0 || c.source >= n_source then
      invalid_arg "Matching.create: source element out of range";
    if c.target < 0 || c.target >= n_target then
      invalid_arg "Matching.create: target element out of range";
    (* Written so that NaN fails it: every comparison with NaN is false. *)
    if not (c.score > 0.0 && c.score <= 1.0) then
      invalid_arg "Matching.create: score must be in (0, 1]";
    (c.source, c.target, c.score)
  in
  of_edges ~source ~target (List.map edge corrs)

let source t = t.source
let target t = t.target

let correspondences t =
  List.map (fun (x, y, w) -> { source = x; target = y; score = w }) (Bipartite.edges t.graph)

let capacity t = List.length (Bipartite.edges t.graph)

let score t x y =
  if x < 0 || x >= Schema.size t.source || y < 0 || y >= Schema.size t.target then None
  else Bipartite.weight t.graph x y

let to_bipartite t = t.graph

(* --------------------------- incremental deltas -------------------- *)

type delta = {
  set_scores : (string * string * float) list;
  remove_corrs : (string * string) list;
  add_source : (string * string) list;
  add_target : (string * string) list;
}

let empty_delta = { set_scores = []; remove_corrs = []; add_source = []; add_target = [] }

let delta_is_empty d =
  d.set_scores = [] && d.remove_corrs = [] && d.add_source = [] && d.add_target = []

exception Delta_error of string

let deltaf fmt = Printf.ksprintf (fun s -> raise (Delta_error s)) fmt

(* Grow a schema by appending leaves. Elements are pre-order ranks, so
   existing ids stay stable only when every new element lands at the very
   end of the pre-order — i.e. its parent lies on the rightmost
   root-to-leaf spine (its subtree is the pre-order suffix). Anything
   else would renumber elements that cached artifacts reference, so it is
   rejected rather than silently invalidating them. *)
let extend_schema ~side schema adds =
  List.fold_left
    (fun sch (parent_path, name) ->
      match Schema.find_by_path sch parent_path with
      | None -> deltaf "unknown %s element %S" side parent_path
      | Some p ->
        if name = "" then deltaf "%s element name must be non-empty" side;
        if String.contains name '.' then
          deltaf "%s element name %S must not contain '.'" side name;
        if p + Schema.subtree_size sch p <> Schema.size sch then
          deltaf
            "adding under %s %S would renumber existing elements; new elements may only \
             extend the rightmost root-to-leaf spine"
            side parent_path;
        (* [p] is on the rightmost spine, so it is reached from the root
           by taking the last child [level p] times. *)
        let rec append (spec : Schema.spec) depth =
          if depth = 0 then
            { spec with Schema.children = spec.Schema.children @ [ Schema.spec name [] ] }
          else
            match List.rev spec.Schema.children with
            | [] -> assert false
            | last :: before ->
              { spec with Schema.children = List.rev (append last (depth - 1) :: before) }
        in
        Schema.of_spec (append (Schema.to_spec sch) (Schema.level sch p)))
    schema adds

let apply_delta d t =
  try
    let source = extend_schema ~side:"source" t.source d.add_source in
    let target = extend_schema ~side:"target" t.target d.add_target in
    let resolve ~side sch path =
      match Schema.find_by_path sch path with
      | Some e -> e
      | None -> deltaf "unknown %s path %S" side path
    in
    let set =
      List.map
        (fun (sp, tp, w) ->
          if not (w > 0.0 && w <= 1.0) then deltaf "score for %s ~ %s must be in (0, 1]" sp tp;
          (resolve ~side:"source" source sp, resolve ~side:"target" target tp, w))
        d.set_scores
    in
    let remove =
      List.map
        (fun (sp, tp) ->
          let x = resolve ~side:"source" source sp
          and y = resolve ~side:"target" target tp in
          if Option.is_none (score t x y) then deltaf "no correspondence %s ~ %s to remove" sp tp;
          (x, y))
        d.remove_corrs
    in
    (* Every set score was checked above and every edge lies within the
       grown schemas, so only the graph is built. *)
    let edges = Bipartite.apply_edge_delta ~set ~remove (Bipartite.edges t.graph) in
    Ok (of_edges ~source ~target edges)
  with
  | Delta_error msg -> Error msg
  | Invalid_argument msg -> Error msg
