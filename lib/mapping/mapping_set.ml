module Obs = Uxsm_obs.Obs

let c_updates = Obs.counter "mapping_set.updates"
let c_reused = Obs.counter "mapping_set.mappings_reused"
let c_built = Obs.counter "mapping_set.mappings_built"
let c_o_ratio_pairs = Obs.counter "mapping_set.o_ratio_pairs"

type t = {
  matching : Matching.t;
  mappings : Mapping.t array;
  probs : float array;
  ranked : Uxsm_assignment.Partition.ranked option;
      (* component provenance of a generated set; None for of_mappings
         sets, which cannot be updated incrementally *)
  o_ratio : float option Atomic.t;
      (* the average o-ratio, filled on first read; every constructor
         starts a set empty, so a new set never sees an old set's value *)
}

let normalize scores =
  let total = Array.fold_left ( +. ) 0.0 scores in
  if total <= 0.0 then Array.map (fun _ -> 1.0 /. float_of_int (Array.length scores)) scores
  else Array.map (fun s -> s /. total) scores

(* Each ranked solution arrives as its score and a scratch target→source
   array that [right_to_left] rewrites for the next one; a copy of the
   array becomes a new mapping's own. With [old], a set [r] was re-ranked
   from, a solution holding exactly the pairs of [old]'s mapping [i] is
   that mapping under the new score, sharing its array, and no array is
   written for it. *)
let of_ranked ?old u r =
  let source = Matching.source u and target = Matching.target u in
  let build score t2s =
    Obs.incr c_built;
    Mapping.of_target_sources ~source ~target ~score (Array.copy t2s)
  in
  let mappings =
    match old with
    | Some ({ ranked = Some old_r; _ } as t) ->
      Uxsm_assignment.Partition.right_to_left_reusing ~old:old_r r build ~same:(fun score i ->
          Obs.incr c_reused;
          Mapping.with_score t.mappings.(i) score)
    | _ -> Uxsm_assignment.Partition.right_to_left r build
  in
  let probs = normalize (Array.map Mapping.score mappings) in
  { matching = u; mappings; probs; ranked = Some r; o_ratio = Atomic.make None }

let generate ~h u =
  if h <= 0 then invalid_arg "Mapping_set.generate: h must be positive";
  of_ranked u (Uxsm_assignment.Partition.rank ~h (Matching.to_bipartite u))

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
  { matching = u; mappings; probs; ranked = None; o_ratio = Atomic.make None }

let ranked t = t.ranked

let update u' t =
  match t.ranked with
  | None ->
    invalid_arg
      "Mapping_set.update: set has no component provenance (build it with generate)"
  | Some r ->
    Obs.incr c_updates;
    (* A re-score re-ranks one component, and most of the top-h keep their
       correspondences with a shifted score: over a 100-update D7
       move/restore stream, 86.8% of the new mappings equal an old one.
       Those are found from the fold's back-pointers and reused, so an
       array is copied only for the mappings that are new. *)
    of_ranked ~old:t u' (Uxsm_assignment.Partition.rerank ~old:r (Matching.to_bipartite u'))

let matching t = t.matching
let source t = Matching.source t.matching
let target t = Matching.target t.matching
let size t = Array.length t.mappings
let mapping t i = t.mappings.(i)
let probability t i = t.probs.(i)

let mappings t = List.init (size t) (fun i -> (t.mappings.(i), t.probs.(i)))

(* The pairwise mean from each mapping's differences to the first
   mapping b. A target past the end of a mapping's array maps to nothing,
   so every array is read over the longest one's length. For a mapping m,
   D_m lists the targets y where m(y) <> b(y), and pen_m counts those
   that b maps. A target outside D_m and D_m' is
   shared by m and m' exactly when b maps it, so
     |m ∩ m'| = |b| - pen_m - pen_m'
                + Σ_{y in D_m ∩ D_m'} ([b(y) >= 0] + [m(y) = m'(y) >= 0]).
   Row i marks D_(m_i) in a target-indexed stamp once, and each pair
   (i, j) then costs one walk over the short list D_(m_j). These are the
   integers [Mapping.inter_size] counts, and each ratio is
   [Mapping.o_ratio]'s division, added in the same (i, j) order, so the
   mean is bit-identical to the pairwise loop's. *)
let o_ratio_of mappings =
  let n = Array.length mappings in
  let width = ref 0 in
  for i = 0 to n - 1 do
    width := Int.max !width (Mapping.n_targets mappings.(i))
  done;
  let width = !width in
  let at m y = if y < Mapping.n_targets m then Mapping.source_at m y else -1 in
  let b = mappings.(0) in
  let base = Array.init width (at b) in
  (* Per mapping: the targets of D_m and m's sources there. *)
  let diff_targets = Array.make n [||] and diff_sources = Array.make n [||] in
  let pen = Array.make n 0 in
  let scratch = Array.make width 0 in
  for i = 1 to n - 1 do
    let m = mappings.(i) in
    let k = ref 0 in
    for y = 0 to width - 1 do
      if at m y <> base.(y) then begin
        scratch.(!k) <- y;
        incr k;
        if base.(y) >= 0 then pen.(i) <- pen.(i) + 1
      end
    done;
    let ys = Array.sub scratch 0 !k in
    diff_targets.(i) <- ys;
    diff_sources.(i) <- Array.map (at m) ys
  done;
  (* [row.(y) = i] when y is in D_(m_i), whose source there is
     [row_source.(y)]. *)
  let row = Array.make width (-1) and row_source = Array.make width 0 in
  let size_b = Mapping.size b in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let ta = diff_targets.(i) and sa = diff_sources.(i) in
    for k = 0 to Array.length ta - 1 do
      row.(ta.(k)) <- i;
      row_source.(ta.(k)) <- sa.(k)
    done;
    let size_i = Mapping.size mappings.(i) and pen_i = pen.(i) in
    for j = i + 1 to n - 1 do
      let tb = diff_targets.(j) and sb = diff_sources.(j) in
      let shared = ref 0 in
      for k = 0 to Array.length tb - 1 do
        let y = tb.(k) in
        if row.(y) = i then begin
          if base.(y) >= 0 then incr shared;
          let x = sb.(k) in
          if x >= 0 && x = row_source.(y) then incr shared
        end
      done;
      let inter = size_b - pen_i - pen.(j) + !shared in
      let union = size_i + Mapping.size mappings.(j) - inter in
      let ratio = if union = 0 then 1.0 else float_of_int inter /. float_of_int union in
      total := !total +. ratio
    done
  done;
  let pairs = n * (n - 1) / 2 in
  Obs.add c_o_ratio_pairs pairs;
  !total /. float_of_int pairs

let average_o_ratio t =
  if size t < 2 then 1.0
  else
    match Atomic.get t.o_ratio with
    | Some r -> r
    | None ->
      let r = o_ratio_of t.mappings in
      Atomic.set t.o_ratio (Some r);
      r

let storage_bytes_naive t =
  let per_corr = 8 in
  let per_mapping = 8 in
  Array.fold_left (fun acc m -> acc + per_mapping + (per_corr * Mapping.size m)) 0 t.mappings
