module Schema = Uxsm_schema.Schema
module Matching = Uxsm_mapping.Matching
module Executor = Uxsm_exec.Executor
module Obs = Uxsm_obs.Obs

type strategy =
  | Context
  | Fragment

(* Selection: a correspondence scores at least [threshold] and lies within
   [delta] of its elements' best scores; the combined score gives the name
   measure [name_weight] and structure the rest. The synonym table is
   never written after it is built, so every domain may read it. *)
let threshold = 0.55
let delta = 0.12
let name_weight = 0.55
let synonyms = Name_sim.synonyms ()

let pair_score strategy source x target y =
  let name_sim = Name_sim.combined ~synonyms in
  let name = name_sim (Schema.label source x) (Schema.label target y) in
  let structure =
    match strategy with
    | Context -> Structure_sim.path_similarity ~name_sim source x target y
    | Fragment ->
      (* Subtree shape plus the enclosing fragment's name: without the
         parent term, every leaf with the same label ties at 1.0 across
         all contexts. *)
      let c = Structure_sim.children_similarity ~name_sim source x target y in
      let l = Structure_sim.leaf_similarity ~name_sim source x target y in
      let p = Structure_sim.parent_similarity ~name_sim source x target y in
      (c +. l +. p) /. 3.0
  in
  (name_weight *. name) +. ((1.0 -. name_weight) *. structure)

(* One schema's elements as label ids of a name table: each structural
   term reads these arrays instead of labels. Ancestors run nearest first,
   the order in which Structure_sim folds the split path; since no element
   name contains '.', the parent chain and the split path agree. *)
type view = {
  self : int array;
  parent : int array;  (* -1 at the root *)
  ancestors : int array array;
  children : int array array;
  leaves : int array array;
}

let view schema id_of =
  let n = Schema.size schema in
  let self = Array.init n id_of in
  let parent =
    Array.init n (fun e -> Option.fold ~none:(-1) ~some:(Array.get self) (Schema.parent schema e))
  in
  let ancestors = Array.make n [||] in
  (* pre-order: a parent's ancestors are set before its children's *)
  List.iter
    (fun e ->
      Option.iter
        (fun p -> ancestors.(e) <- Array.append [| self.(p) |] ancestors.(p))
        (Schema.parent schema e))
    (Schema.elements schema);
  let ids es = Array.of_list (List.map (Array.get self) es) in
  {
    self;
    parent;
    ancestors;
    children = Array.init n (fun e -> ids (Schema.children schema e));
    leaves =
      Array.init n (fun e ->
          ids (List.filter (Schema.is_leaf schema) (Schema.subtree_elements schema e)));
  }

(* [pair_score], term for term, over the name table. *)
let interned_score strategy names vs vt x y =
  let name = Name_table.score names vs.self.(x) vt.self.(y) in
  let structure =
    match strategy with
    | Context ->
      let context = Name_table.soft_set_similarity names vs.ancestors.(x) vt.ancestors.(y) in
      (0.6 *. name) +. (0.4 *. context)
    | Fragment ->
      let c = Name_table.soft_set_similarity names vs.children.(x) vt.children.(y) in
      let l = Name_table.soft_set_similarity names vs.leaves.(x) vt.leaves.(y) in
      let p =
        match (vs.parent.(x), vt.parent.(y)) with
        | -1, -1 -> 1.0
        | -1, _ | _, -1 -> 0.0
        | px, py -> Name_table.score names px py
      in
      (c +. l +. p) /. 3.0
  in
  (name_weight *. name) +. ((1.0 -. name_weight) *. structure)

let s_name_table = Obs.span "matcher.name_table"
let s_rows = Obs.span "matcher.rows"
let s_select = Obs.span "matcher.select"

(* Each distinct label pair is scored once into the name table, whose
   label rows fan out on [exec]; the element rows then read that table and
   the views, at tens of nanoseconds per pair. *)
let matrix ?(exec = Executor.sequential) strategy source target =
  let ns = Schema.size source and nt = Schema.size target in
  let names =
    Obs.time s_name_table (fun () ->
        Name_table.create ~exec ~synonyms
          (Array.init ns (Schema.label source))
          (Array.init nt (Schema.label target)))
  in
  Obs.time s_rows (fun () ->
      let vs = view source (Name_table.source_id names)
      and vt = view target (Name_table.target_id names) in
      Array.init ns (fun x -> Array.init nt (interned_score strategy names vs vt x)))

(* Candidate pairs score at least [candidate_min]; a candidate is in the
   delta band when it also lies within [delta] of the best score of both
   its elements. *)
let candidate_min = 0.05

type scored = {
  rows : float array array;
  best_s : float array;
  best_t : float array;
}

let scored rows =
  let best_s = Array.make (Array.length rows) 0.0
  and best_t = Array.make (Array.length rows.(0)) 0.0 in
  Array.iteri
    (fun x row ->
      Array.iteri
        (fun y s ->
          if s > best_s.(x) then best_s.(x) <- s;
          if s > best_t.(y) then best_t.(y) <- s)
        row)
    rows;
  { rows; best_s; best_t }

let fold_band m ~delta f init =
  let acc = ref init in
  Array.iteri
    (fun x row ->
      Array.iteri
        (fun y s ->
          if s >= candidate_min && s >= m.best_s.(x) -. delta && s >= m.best_t.(y) -. delta then
            acc := f !acc x y s)
        row)
    m.rows;
  !acc

(* The band's pairs at or above [threshold], by decreasing score, then
   source and target element. *)
let select m ~threshold ~delta =
  fold_band m ~delta (fun acc x y s -> if s >= threshold then (x, y, s) :: acc else acc) []
  |> List.sort (fun (x1, y1, s1) (x2, y2, s2) ->
         match Float.compare s2 s1 with
         | 0 -> compare (x1, y1) (x2, y2)
         | c -> c)

(* COMA++ reports coarsely rounded scores (the paper's Figure 1:
   .75/.84/.83/.84); quantizing to 0.02 reproduces the exact ties that make
   many mappings equally plausible. *)
let clamp_score s = min 1.0 (max 0.01 (Float.round (s *. 50.0) /. 50.0))

let matching_of_pairs ~source ~target pairs =
  Matching.create ~source ~target
    (List.map (fun (x, y, s) -> { Matching.source = x; target = y; score = clamp_score s }) pairs)

let run ?(exec = Executor.sequential) ~source ~target () =
  let rows = matrix ~exec Context source target in
  Obs.time s_select @@ fun () ->
  matching_of_pairs ~source ~target (select (scored rows) ~threshold ~delta)

let run_with_capacity ?(exec = Executor.sequential) ~strategy ~capacity ~source ~target () =
  if capacity < 0 then invalid_arg "Coma.run_with_capacity";
  let rows = matrix ~exec strategy source target in
  Obs.time s_select @@ fun () ->
  let m = scored rows in
  (* Lower thresholds only add pairs; binary-search the largest threshold
     whose selection still reaches [capacity], then truncate the tail. If
     even the lowest threshold is short, widen the delta band. A probe
     only counts, so each delta filters its band once and every probe
     counts scores against that. *)
  let rec with_delta delta tries =
    let band = Array.of_list (fold_band m ~delta (fun acc _ _ s -> s :: acc) []) in
    let count threshold = Array.fold_left (fun n s -> if s >= threshold then n + 1 else n) 0 band in
    let lo = candidate_min in
    if count lo < capacity then
      if tries = 0 then (lo, delta) else with_delta (delta *. 2.0) (tries - 1)
    else begin
      let rec search lo hi i =
        if i = 0 then lo
        else begin
          let mid = (lo +. hi) /. 2.0 in
          if count mid >= capacity then search mid hi (i - 1) else search lo mid (i - 1)
        end
      in
      (search lo 0.99 20, delta)
    end
  in
  let threshold, delta = with_delta delta 6 in
  let pairs = select m ~threshold ~delta in
  (* Truncate like COMA selects: every element's best counterpart first
     (rank 1 on either side), then second choices, and so on; score breaks
     ties within a rank. Plain top-score truncation would concentrate the
     whole budget on a few strongly-ambiguous elements. *)
  let rank_of =
    let best_rank : (bool * int, int) Hashtbl.t = Hashtbl.create 64 in
    let note key =
      let r = 1 + (try Hashtbl.find best_rank key with Not_found -> 0) in
      Hashtbl.replace best_rank key r;
      r
    in
    (* pairs are sorted by decreasing score, so per-element ranks follow. *)
    List.map
      (fun ((x, y, _) as pair) ->
        let rs = note (true, x) and rt = note (false, y) in
        (min rs rt, pair))
      pairs
  in
  let kept =
    List.stable_sort (fun (r1, (_, _, s1)) (r2, (_, _, s2)) ->
        match Int.compare r1 r2 with
        | 0 -> Float.compare s2 s1
        | c -> c)
      rank_of
    |> List.filteri (fun i _ -> i < capacity)
    |> List.map snd
  in
  matching_of_pairs ~source ~target kept
