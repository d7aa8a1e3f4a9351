module Schema = Uxsm_schema.Schema
module Obs = Uxsm_obs.Obs

let c_updates = Obs.counter "mapping_set.updates"
let c_reused = Obs.counter "mapping_set.mappings_reused"
let c_built = Obs.counter "mapping_set.mappings_built"

type t = {
  matching : Matching.t;
  mappings : Mapping.t array;
  probs : float array;
  ranked : Uxsm_assignment.Partition.ranked option;
      (* component provenance of a generated set; None for of_mappings
         sets, which cannot be updated incrementally *)
}

let normalize scores =
  let total = Array.fold_left ( +. ) 0.0 scores in
  if total <= 0.0 then Array.map (fun _ -> 1.0 /. float_of_int (Array.length scores)) scores
  else Array.map (fun s -> s /. total) scores

(* Each ranked solution arrives as its score and a scratch target→source
   array that [right_to_left] rewrites for the next one. [reuse] may answer
   it with an old mapping holding the same array, which then only takes the
   new score; otherwise a copy of the array becomes a new mapping's own. *)
let of_ranked ?(reuse = fun _ -> None) u r =
  let source = Matching.source u and target = Matching.target u in
  let mappings =
    Uxsm_assignment.Partition.right_to_left r (fun score t2s ->
        match reuse t2s with
        | Some m ->
          Obs.incr c_reused;
          Mapping.with_score m score
        | None ->
          Obs.incr c_built;
          Mapping.of_target_sources ~source ~target ~score (Array.copy t2s))
  in
  let probs = normalize (Array.map Mapping.score mappings) in
  { matching = u; mappings; probs; ranked = Some r }

(* Mappings keyed by their target→source arrays, read through [get] so an
   old mapping and a fresh array hash alike. *)
let hash_sources n get =
  let acc = ref n in
  for y = 0 to n - 1 do
    acc := (!acc * 31) + get y
  done;
  !acc land max_int

(* A lookup from target→source arrays to [t]'s mappings, for a set over a
   target schema of [n_target] elements. Schemas only grow, so an equal
   size means the same target schema; after target growth an old
   mapping's array is too short to share, and nothing is reused. A grown
   source schema keeps every old mapping shareable: no array is indexed
   by source element. *)
let reuse_of t ~n_target =
  if Schema.size (Matching.target t.matching) <> n_target then fun _ -> None
  else begin
    let tbl = Hashtbl.create (2 * Array.length t.mappings) in
    Array.iter
      (fun m -> Hashtbl.add tbl (hash_sources n_target (Mapping.source_at m)) m)
      t.mappings;
    fun t2s ->
      let rec same m y = y >= n_target || (Mapping.source_at m y = t2s.(y) && same m (y + 1)) in
      List.find_opt
        (fun m -> same m 0)
        (Hashtbl.find_all tbl (hash_sources n_target (Array.get t2s)))
  end

let generate ?(exec = Uxsm_exec.Executor.sequential) ~h u =
  if h <= 0 then invalid_arg "Mapping_set.generate: h must be positive";
  of_ranked u (Uxsm_assignment.Partition.rank ~exec ~h (Matching.to_bipartite u))

let of_mappings u entries =
  if entries = [] then invalid_arg "Mapping_set.of_mappings: empty set";
  List.iter
    (fun (_, p) ->
      if not (p > 0.0 && Float.is_finite p) then
        invalid_arg "Mapping_set.of_mappings: probability must be finite and positive")
    entries;
  let entries = List.stable_sort (fun (_, p1) (_, p2) -> Float.compare p2 p1) entries in
  let mappings = Array.of_list (List.map fst entries) in
  let probs = normalize (Array.of_list (List.map snd entries)) in
  { matching = u; mappings; probs; ranked = None }

let ranked t = t.ranked

let update ?(exec = Uxsm_exec.Executor.sequential) u' t =
  match t.ranked with
  | None ->
    invalid_arg
      "Mapping_set.update: set has no component provenance (build it with generate)"
  | Some r ->
    Obs.incr c_updates;
    let r' = Uxsm_assignment.Partition.rerank ~exec ~old:r (Matching.to_bipartite u') in
    (* A re-score re-ranks one component, and most of the top-h keep their
       correspondences with a shifted score: over a 100-update D7
       move/restore stream, 86.8% of the new mappings equal an old one.
       Those are reused by their target→source arrays, so an array is
       copied only for the mappings that are new. *)
    of_ranked ~reuse:(reuse_of t ~n_target:(Schema.size (Matching.target u')))
      u' r'

let matching t = t.matching
let source t = Matching.source t.matching
let target t = Matching.target t.matching
let size t = Array.length t.mappings
let mapping t i = t.mappings.(i)
let probability t i = t.probs.(i)

let mappings t = List.init (size t) (fun i -> (t.mappings.(i), t.probs.(i)))

let average_o_ratio t =
  let n = size t in
  if n < 2 then 1.0
  else begin
    let total = ref 0.0 in
    let pairs = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        total := !total +. Mapping.o_ratio t.mappings.(i) t.mappings.(j);
        incr pairs
      done
    done;
    !total /. float_of_int !pairs
  end

let storage_bytes_naive t =
  let per_corr = 8 in
  let per_mapping = 8 in
  Array.fold_left (fun acc m -> acc + per_mapping + (per_corr * Mapping.size m)) 0 t.mappings
