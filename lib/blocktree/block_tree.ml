module Schema = Uxsm_schema.Schema
module Mapping = Uxsm_mapping.Mapping
module Mapping_set = Uxsm_mapping.Mapping_set
module Obs = Uxsm_obs.Obs

(* Observability: construction cost drivers (see DESIGN.md, metrics layer). *)
let c_builds = Obs.counter "blocktree.builds"
let c_candidates = Obs.counter "blocktree.candidates_tried"
let c_abandoned = Obs.counter "blocktree.intersections_abandoned"
let c_max_b_hits = Obs.counter "blocktree.max_b_hits"
let c_max_f_hits = Obs.counter "blocktree.max_f_hits"
let c_claims = Obs.counter "blocktree.compression_claims"
let s_build = Obs.span "blocktree.build"

type params = {
  tau : float;
  max_b : int;
  max_f : int;
}

let default_params = { tau = 0.2; max_b = 500; max_f = 500 }

type compressed_item = [ `Block of Block.t | `Corr of int * int ]

type t = {
  mset : Mapping_set.t;
  threshold : int;
  nodes : Block.t list array;
  hash : (string, Schema.element) Hashtbl.t;
}

(* NaN compares false both ways, so it fails here. *)
let valid_tau tau = tau > 0.0 && tau <= 1.0

(* |b.M| >= tau * |M|, computed robustly against float noise. *)
let threshold_of tau m = max 1 (int_of_float (ceil ((tau *. float_of_int m) -. 1e-9)))

(* Intersection of two sorted id arrays, with early abandon once the result
   cannot reach [atleast] elements. *)
let intersect ~atleast a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let rec go ia ib k =
    if ia >= na || ib >= nb then k
    else if k + min (na - ia) (nb - ib) < atleast then begin
      Obs.incr c_abandoned;
      -1
    end
    else if a.(ia) = b.(ib) then begin
      out.(k) <- a.(ia);
      go (ia + 1) (ib + 1) (k + 1)
    end
    else if a.(ia) < b.(ib) then go (ia + 1) ib k
    else go ia (ib + 1) k
  in
  let k = go 0 0 0 in
  if k < 0 || k < atleast then None else Some (Array.sub out 0 k)

exception Break

let corr_compare (s1, t1) (s2, t2) =
  match Int.compare s1 s2 with
  | 0 -> Int.compare t1 t2
  | c -> c

(* Construction (Algorithms 1 and 2): a post-order pass over the target
   schema. *)
let build ?(params = default_params) mset =
  if not (valid_tau params.tau) then invalid_arg "Block_tree.build: tau out of (0,1]";
  Obs.incr c_builds;
  Obs.time s_build @@ fun () ->
  let target = Mapping_set.target mset in
  let m = Mapping_set.size mset in
  let thr = threshold_of params.tau m in
  let nodes = Array.make (Schema.size target) [] in
  let hash = Hashtbl.create 64 in
  let count = ref 0 in
  (* global cap on non-leaf c-blocks (Algorithm 1's [count]) *)

  (* Group the mappings by their correspondence for target element [y];
     groups of at least [thr] mappings become single-correspondence
     candidate blocks (the paper's init_block). One pass reads every
     mapping's source for [y] into [src] and counts it per source; a source
     whose count reaches [thr] qualifies, and its ids are gathered from
     [src] in ascending order. The counts are zeroed again on the way out,
     so one |S|-sized array serves the whole build. Blocks come out by
     ascending source. *)
  let cnt = Array.make (Schema.size (Mapping_set.source mset)) 0 in
  let src = Array.make m (-1) in
  let init_block y =
    let qualifying = ref [] in
    for i = 0 to m - 1 do
      let s = Mapping.source_at (Mapping_set.mapping mset i) y in
      src.(i) <- s;
      if s >= 0 then begin
        cnt.(s) <- cnt.(s) + 1;
        if cnt.(s) = thr then qualifying := s :: !qualifying
      end
    done;
    let blocks =
      List.map
        (fun s ->
          let ids = ref [] in
          for i = m - 1 downto 0 do
            if src.(i) = s then ids := i :: !ids
          done;
          Block.create ~anchor:y ~corrs:[ (s, y) ] ~mappings:!ids)
        (List.sort Int.compare !qualifying)
    in
    Array.iter (fun s -> if s >= 0 then cnt.(s) <- 0) src;
    blocks
  in

  (* Algorithm 2: combine each candidate block of [y] with one c-block per
     child; a combination survives when the mapping sets intersect in at
     least [thr] ids (Lemma 1). *)
  let gen_non_leaf y kids =
    let own = init_block y in
    if own = [] then 0
    else begin
      let num_trial = ref 0 in
      let created = ref [] in
      let count_new = ref 0 in
      let child_lists = List.map (fun k -> nodes.(k)) kids in
      let try_combination (b : Block.t) (tuple : Block.t list) =
        Obs.incr c_candidates;
        let ids =
          List.fold_left
            (fun acc (cb : Block.t) ->
              match acc with
              | None -> None
              | Some ids -> intersect ~atleast:thr ids cb.mappings)
            (Some b.mappings) tuple
        in
        (match ids with
        | Some ids when !count < params.max_b ->
          let corrs =
            Array.to_list b.corrs
            @ List.concat_map (fun (cb : Block.t) -> Array.to_list cb.corrs) tuple
          in
          created :=
            Block.create ~anchor:y ~corrs ~mappings:(Array.to_list ids) :: !created;
          incr count_new;
          incr count
        | Some _ | None -> incr num_trial);
        if !count >= params.max_b then begin
          Obs.incr c_max_b_hits;
          raise Break
        end;
        if !num_trial >= params.max_f then begin
          Obs.incr c_max_f_hits;
          raise Break
        end
      in
      let rec tuples acc = function
        | [] -> List.iter (fun b -> try_combination b (List.rev acc)) own
        | blocks :: rest -> List.iter (fun cb -> tuples (cb :: acc) rest) blocks
      in
      (* Enumerate child tuples outermost and the node's own candidates
         innermost so every candidate gets a chance before the caps hit. *)
      (try tuples [] child_lists with Break -> ());
      nodes.(y) <- List.rev !created;
      !count_new
    end
  in

  let rec construct y =
    let kids = Schema.children target y in
    let n_created =
      if kids = [] then begin
        let blocks = init_block y in
        nodes.(y) <- blocks;
        List.length blocks
      end
      else begin
        let kid_counts = List.map construct kids in
        if List.exists (fun c -> c = 0) kid_counts then 0 else gen_non_leaf y kids
      end
    in
    if n_created > 0 then Hashtbl.replace hash (Schema.path_string target y) y;
    n_created
  in
  ignore (construct (Schema.root target));

  { mset; threshold = thr; nodes; hash }

let mapping_set t = t.mset
let threshold t = t.threshold
let blocks_at t y = t.nodes.(y)
let lookup_path t p = Hashtbl.find_opt t.hash p

let all_blocks t =
  List.concat_map (fun y -> t.nodes.(y)) (Schema.elements (Mapping_set.target t.mset))

let n_blocks t = List.length (all_blocks t)

let block_sizes t = List.map Block.n_corrs (all_blocks t)

(* Mapping compression (Algorithm 1 Step 5): pre-order over the tree;
   replace each mapping's correspondences covered by a block with a pointer
   to that block. Pre-order means the largest (highest-anchored) blocks
   win. A pure function of the node lists and the mapping set, so it runs
   only when asked: no query reads it. *)
let compress t =
  let target = Mapping_set.target t.mset in
  let m = Mapping_set.size t.mset in
  let compressed : compressed_item list array = Array.make m [] in
  let covered = Array.make_matrix m (Schema.size target) false in
  let compress_at y =
    let claim (b : Block.t) id =
      let free = Array.for_all (fun (_, t_el) -> not covered.(id).(t_el)) b.corrs in
      if free then begin
        Obs.incr c_claims;
        Array.iter (fun (_, t_el) -> covered.(id).(t_el) <- true) b.corrs;
        compressed.(id) <- `Block b :: compressed.(id)
      end
    in
    List.iter (fun (b : Block.t) -> Array.iter (claim b) b.mappings) t.nodes.(y)
  in
  List.iter compress_at (Schema.elements target);
  for id = 0 to m - 1 do
    let residual =
      List.filter_map
        (fun (s, t_el) -> if covered.(id).(t_el) then None else Some (`Corr (s, t_el)))
        (Mapping.pairs (Mapping_set.mapping t.mset id))
    in
    compressed.(id) <- List.rev compressed.(id) @ residual
  done;
  compressed

let compressed_corrs_of_mapping t i = (compress t).(i)

let storage_bytes t =
  let block_bytes (b : Block.t) = 16 + (8 * Block.n_corrs b) + (4 * Block.n_mappings b) in
  let blocks = List.fold_left (fun acc b -> acc + block_bytes b) 0 (all_blocks t) in
  let hash = 16 * Hashtbl.length t.hash in
  let mappings =
    Array.fold_left (fun acc items -> acc + 8 + (8 * List.length items)) 0 (compress t)
  in
  blocks + hash + mappings

let compression_ratio t =
  let naive = Mapping_set.storage_bytes_naive t.mset in
  if naive = 0 then 0.0 else 1.0 -. (float_of_int (storage_bytes t) /. float_of_int naive)

let validate t =
  let target = Mapping_set.target t.mset in
  let check_block y acc (b : Block.t) =
    match acc with
    | Error _ as e -> e
    | Ok () ->
      if b.anchor <> y then Error "block stored at a node that is not its anchor"
      else Block.validate ~target ~mset:t.mset ~threshold:t.threshold b
  in
  let check_node acc y =
    match acc with
    | Error _ as e -> e
    | Ok () -> (
      match List.fold_left (check_block y) (Ok ()) t.nodes.(y) with
      | Error _ as e -> e
      | Ok () ->
        let path = Schema.path_string target y in
        let in_hash = Hashtbl.find_opt t.hash path = Some y in
        if t.nodes.(y) <> [] && not in_hash then
          Error (Printf.sprintf "node %s has blocks but no hash entry" path)
        else Ok ())
  in
  match List.fold_left check_node (Ok ()) (Schema.elements target) with
  | Error _ as e -> e
  | Ok () ->
    (* Lossless compression: block pointers + residuals reconstruct each
       mapping exactly. *)
    let reconstruct items =
      List.concat_map
        (function
          | `Block (b : Block.t) -> Array.to_list b.corrs
          | `Corr (s, t_el) -> [ (s, t_el) ])
        items
      |> List.sort corr_compare
    in
    let compressed = compress t in
    let check_mapping acc i =
      match acc with
      | Error _ as e -> e
      | Ok () ->
        let original = List.sort corr_compare (Mapping.pairs (Mapping_set.mapping t.mset i)) in
        if reconstruct compressed.(i) = original then Ok ()
        else Error (Printf.sprintf "mapping %d does not decompress to its original form" i)
    in
    List.fold_left check_mapping (Ok ()) (List.init (Mapping_set.size t.mset) Fun.id)

let pp_stats fmt t =
  let sizes = block_sizes t in
  let n = List.length sizes in
  let avg =
    if n = 0 then 0.0
    else float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int n
  in
  Format.fprintf fmt
    "@[<v>c-blocks: %d@ threshold: %d mappings@ avg block size: %.2f corrs@ largest block: %d corrs@ compression ratio: %.2f%%@]"
    n t.threshold avg
    (List.fold_left max 0 sizes)
    (100.0 *. compression_ratio t)
