module Executor = Uxsm_exec.Executor
module Locks = Uxsm_util.Locks
module Obs = Uxsm_obs.Obs
module Matching = Uxsm_mapping.Matching
module Mapping_set = Uxsm_mapping.Mapping_set
module Serialize = Uxsm_mapping.Serialize
module Block_tree = Uxsm_blocktree.Block_tree
module Dataset = Uxsm_workload.Dataset
module Gen_doc = Uxsm_workload.Gen_doc
module Plan = Uxsm_plan.Plan
module Ptq = Uxsm_ptq.Ptq

(* Cache traffic is also mirrored into the metrics layer so `stats` (and
   bench records, if a server ever runs under the harness) can report it
   alongside the pipeline counters. *)
let c_hits = Obs.counter "server.cache.hits"
let c_misses = Obs.counter "server.cache.misses"
let c_evictions = Obs.counter "server.cache.evictions"
let s_build = Obs.span "server.artifact_build"

(* Incremental maintenance traffic (the `update` request). *)
let c_updates = Obs.counter "catalog.updates"
let c_upd_msets = Obs.counter "catalog.update.msets_patched"
let c_upd_trees = Obs.counter "catalog.update.trees_patched"
let c_upd_plans = Obs.counter "catalog.update.plans_invalidated"
let c_upd_docs = Obs.counter "catalog.update.docs_rebuilt"
let s_update = Obs.span "catalog.update"

type plan_key = {
  pk_corpus : string;
  pk_pattern : string;
  pk_h : int;
  pk_tau : float;
  pk_k : int option;
  pk_force : Plan.force;
}

type key =
  | K_mset of string * int
  | K_tree of string * int * float
  | K_plan of plan_key

let key_string = function
  | K_mset (c, h) -> Printf.sprintf "mset/%s/h=%d" c h
  | K_tree (c, h, tau) -> Printf.sprintf "tree/%s/h=%d/tau=%g" c h tau
  | K_plan p ->
    Printf.sprintf "plan/%s/h=%d/tau=%g%s%s/%s" p.pk_corpus p.pk_h p.pk_tau
      (match p.pk_k with None -> "" | Some k -> Printf.sprintf "/k=%d" k)
      (match p.pk_force with
      | `Auto -> ""
      | f -> Printf.sprintf "/ev=%s" (Plan.force_to_string f))
      p.pk_pattern

type artifact =
  | A_mset of Mapping_set.t
  | A_tree of Mapping_set.t * Block_tree.t Lazy.t
      (** the tree pins its mapping set so a cached tree answers queries
          even after the standalone mapping-set entry was evicted. It is
          forced only under the shard lock (a forced [`Tree] plan, or
          [prepared]): OCaml 5's [Lazy.force] must not race across domains. *)
  | A_plan of Ptq.plan
      (** a compiled query plan; it pins its whole evaluation context
          (mapping set, documents, and the block tree of a forced [`Tree]
          plan), so executions survive the eviction of the artifacts it
          was compiled from *)

(* A registered corpus: its matching (as maintained by updates), the
   document generated from its source schema and its target schema indexed
   for query resolution. All are pinned here, never evicted; the LRU holds
   only what derives from them. *)
type entry = {
  spec : Protocol.source_spec;
  doc_seed : int;
  doc_nodes : int option;
  matching : Matching.t;
  doc : Uxsm_xml.Doc.t;
  target_doc : Uxsm_xml.Doc.t;
}

(* One shard per corpus. Every cache key names exactly one corpus, so a
   corpus's artifacts, its entry and the lock that guards their
   construction live together: concurrent clients querying different
   corpora touch different shards and never serialize against each other.
   The entry is an atomic (readable by the corpora listing without the
   shard lock); the LRU structure is owned by [sh_lock]. *)
type shard = {
  sh_lock : Locks.t;
  sh_cache : (key, artifact) Lru.t;
  sh_entry : entry option Atomic.t;
}

type t = {
  exec : Executor.t;
  lock : Locks.t;  (** guards [shards] (the name → shard map), nothing else *)
  shards : (string, shard) Hashtbl.t;
  cache_entries : int;  (** per-shard LRU capacity *)
}

let create ?(cache_entries = 64) ~exec () =
  { exec; lock = Locks.create ~name:"catalog.map" ~rank:Locks.rank_catalog_map;
    shards = Hashtbl.create 8; cache_entries }

(* Lock protocol: the global [t.lock] is only ever taken on its own (shard
   lookup/creation, shard enumeration) and released before any shard lock
   is acquired — the ranks (catalog.map=14 < catalog.shard=20) encode the
   one legal nesting direction should that ever change. Artifact builds
   run under the owning shard's lock only: concurrent requests for the
   same corpus build once (the loser waits), requests for different
   corpora build in parallel. *)
let with_lock = Locks.with_lock

let shard_find t name = with_lock t.lock (fun () -> Hashtbl.find_opt t.shards name)

let shard_find_or_create t name =
  with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.shards name with
      | Some sh -> sh
      | None ->
        let sh =
          {
            sh_lock =
              Locks.create ~name:("catalog.shard." ^ name) ~rank:Locks.rank_shard;
            sh_cache = Lru.create ~capacity:t.cache_entries;
            sh_entry = Atomic.make None;
          }
        in
        Hashtbl.add t.shards name sh;
        sh)

(* Shards sorted by corpus name — the deterministic enumeration order every
   aggregate below uses. *)
let shards_sorted t =
  with_lock t.lock (fun () ->
      Hashtbl.fold (fun name sh acc -> (name, sh) :: acc) t.shards []
      (* Corpus names are unique table keys, so this key alone is total. *)
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

exception Fail of string

let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let spec_description = function
  | Protocol.From_dataset (d, seed) -> Printf.sprintf "dataset %s (seed %d)" d.Dataset.id seed
  | Protocol.From_matching_text _ -> "matching text"
  | Protocol.From_mapping_set_text _ -> "mapping-set text"

(* ----------------------- cached artifact access -------------------- *)
(* The [_locked] builders assume the owning shard's lock is held; the
   eviction counter is reconciled after every cache write. *)

let mirror_evictions sh before =
  let after = (Lru.stats sh.sh_cache).Lru.evictions in
  if after > before then Obs.add c_evictions (after - before)

let cache_get sh key =
  match Lru.find sh.sh_cache key with
  | Some a ->
    Obs.incr c_hits;
    Some a
  | None ->
    Obs.incr c_misses;
    None

let cache_put sh key a =
  let before = (Lru.stats sh.sh_cache).Lru.evictions in
  Lru.put sh.sh_cache key a;
  mirror_evictions sh before

let entry_locked sh name =
  match Atomic.get sh.sh_entry with
  | Some e -> e
  | None -> failf "unknown corpus %S (register it first)" name

let build_matching t = function
  | Protocol.From_dataset (d, seed) -> Dataset.matching ~seed ~exec:t.exec d
  | Protocol.From_matching_text text -> (
    match Serialize.matching_of_string text with
    | Ok m -> m
    | Error msg -> failf "bad matching text: %s" msg)
  | Protocol.From_mapping_set_text text -> (
    match Serialize.mapping_set_of_string text with
    | Ok mset -> Mapping_set.matching mset
    | Error msg -> failf "bad mapping-set text: %s" msg)

let generate_doc ~doc_seed ~doc_nodes m =
  Obs.time s_build (fun () ->
      Gen_doc.generate ~seed:doc_seed ?target_nodes:doc_nodes (Matching.source m))

let mset_locked t sh name ~h =
  let key = K_mset (name, h) in
  match cache_get sh key with
  | Some (A_mset s) -> s
  | _ ->
    let m = (entry_locked sh name).matching in
    let s = Obs.time s_build (fun () -> Mapping_set.generate ~exec:t.exec ~h m) in
    cache_put sh key (A_mset s);
    s

let lazy_tree s ~tau =
  lazy
    (Obs.time s_build (fun () ->
         Block_tree.build ~params:{ Block_tree.default_params with tau } s))

(* The entry is created with its tree unbuilt. τ is checked here, so an
   out-of-range τ fails every plan, not only the plans that force the
   tree. *)
let tree_locked t sh name ~h ~tau =
  let key = K_tree (name, h, tau) in
  match cache_get sh key with
  | Some (A_tree (s, tr)) -> (s, tr)
  | _ ->
    if not (Block_tree.valid_tau tau) then failf "tau %g out of (0, 1]" tau;
    let s = mset_locked t sh name ~h in
    let tr = lazy_tree s ~tau in
    cache_put sh key (A_tree (s, tr));
    (s, tr)

(* A compiled plan pins its mapping set, documents and, when forced to
   Algorithm 4, its tree, so repeated queries skip pattern parsing,
   resolution, coverage and grouping, not just artifact construction. The key includes the forced evaluator:
   a forced plan and the auto plan for the same query are distinct
   artifacts. *)
let plan_locked t sh name ~pattern ~h ~tau ~k ~force =
  let key = K_plan { pk_corpus = name; pk_pattern = pattern; pk_h = h; pk_tau = tau;
                     pk_k = k; pk_force = force }
  in
  match cache_get sh key with
  | Some (A_plan p) -> p
  | _ ->
    let q =
      match Uxsm_twig.Pattern_parser.parse pattern with
      | Ok q -> q
      | Error e -> failf "bad query %S: %s" pattern e
    in
    (* Only a forced [`Tree] plan reads the tree, so only it builds one.
       Every plan still looks the entry up: the serving benchmark's replay
       builds the tree through [prepared] and requires the server's cache
       counters to equal its own. *)
    let mset, tree = tree_locked t sh name ~h ~tau in
    let tree = if force = `Tree then Some (Lazy.force tree) else None in
    let e = entry_locked sh name in
    let ctx = Ptq.context ?tree ~target_doc:e.target_doc ~mset ~doc:e.doc () in
    let p = Obs.time s_build (fun () -> Ptq.compile ~force ?k ctx q) in
    cache_put sh key (A_plan p);
    p

(* ------------------------------ public API ------------------------- *)

let wrap f = try Ok (f ()) with Fail msg -> Error msg | Invalid_argument msg -> Error msg

(* Look the shard up (brief global lock), then build under its own lock;
   an unknown corpus has no shard and fails without touching any lock a
   builder could be holding. *)
let with_shard t name f =
  match shard_find t name with
  | None -> failf "unknown corpus %S (register it first)" name
  | Some sh -> with_lock sh.sh_lock (fun () -> f sh)

(* Build first, then swap the entry in: a spec that does not build leaves
   the previous corpus (or no corpus) in place. Replacing a corpus must not
   leave stale derivations behind; the whole shard cache belongs to it, so
   the swap clears it. *)
let register t ~name ~doc_seed ?doc_nodes spec =
  wrap (fun () ->
      let sh = shard_find_or_create t name in
      with_lock sh.sh_lock (fun () ->
          let matching = Obs.time s_build (fun () -> build_matching t spec) in
          let doc = generate_doc ~doc_seed ~doc_nodes matching in
          let target_doc = Ptq.target_index (Matching.target matching) in
          Lru.clear sh.sh_cache;
          Atomic.set sh.sh_entry
            (Some { spec; doc_seed; doc_nodes; matching; doc; target_doc });
          (matching, doc)))

type update_stats = {
  u_capacity : int;
  u_source_elements : int;
  u_target_elements : int;
  u_msets_patched : int;
  u_trees_patched : int;
  u_plans_invalidated : int;
  u_doc_rebuilt : bool;
}

(* Apply a delta to a registered corpus, patching its cached mapping sets
   instead of evicting them. Two phases under the shard lock: a patch
   phase that re-ranks one mapping set per cached h (raising on a bad
   delta with the corpus untouched), then a non-raising commit phase that
   puts the new matching (and document) into the entry, re-points every
   set and tree entry of that h at the patched set, each tree entry with
   a fresh unbuilt tree, and drops the corpus' prepared plans: compilation
   is cheap next to the derivations, and a plan pins its whole stale
   context. *)
let update t ~name delta =
  wrap (fun () ->
      with_shard t name (fun sh ->
          Obs.time s_update @@ fun () ->
          if Matching.delta_is_empty delta then failf "update %S: empty delta" name;
          let e = entry_locked sh name in
          let m_new =
            match Matching.apply_delta delta e.matching with
            | Ok m -> m
            | Error msg -> failf "update %S: %s" name msg
          in
          let keys = Lru.keys sh.sh_cache in
          (* One re-rank per cached h, of the most recently used set of
             that h. Every cached set of one h derives from the entry's
             matching, so any of them re-ranks to the same set. *)
          let patched =
            List.fold_left
              (fun acc key ->
                match (key, Lru.peek sh.sh_cache key) with
                | (K_mset (_, h), Some (A_mset s) | K_tree (_, h, _), Some (A_tree (s, _)))
                  when not (List.mem_assoc h acc) ->
                  (h, s) :: acc
                | _ -> acc)
              [] keys
            |> List.map (fun (h, s) ->
                   (h, Obs.time s_build (fun () -> Mapping_set.update ~exec:t.exec m_new s)))
          in
          let patched_msets =
            List.filter_map
              (function
                | K_mset (_, h) as key ->
                  Option.map (fun s' -> (key, A_mset s')) (List.assoc_opt h patched)
                | _ -> None)
              keys
          in
          let patched_trees =
            List.filter_map
              (function
                | K_tree (_, h, tau) as key ->
                  Option.map
                    (fun s' -> (key, A_tree (s', lazy_tree s' ~tau)))
                    (List.assoc_opt h patched)
                | _ -> None)
              keys
          in
          (* The generated document depends only on the source schema (and
             the entry's seed), the target index only on the target schema.
             Schemas are append-only, so an unchanged size is an unchanged
             schema: each is rebuilt only when the delta grew its schema. *)
          let grew side =
            Uxsm_schema.Schema.size (side m_new) <> Uxsm_schema.Schema.size (side e.matching)
          in
          let doc_rebuilt = grew Matching.source in
          let doc =
            if doc_rebuilt then generate_doc ~doc_seed:e.doc_seed ~doc_nodes:e.doc_nodes m_new
            else e.doc
          in
          let target_doc =
            if grew Matching.target then Ptq.target_index (Matching.target m_new)
            else e.target_doc
          in
          let plan_keys = List.filter (function K_plan _ -> true | _ -> false) keys in
          (* Commit. *)
          Atomic.set sh.sh_entry (Some { e with matching = m_new; doc; target_doc });
          List.iter (fun (key, a) -> cache_put sh key a) (patched_msets @ patched_trees);
          List.iter (fun k -> Lru.remove sh.sh_cache k) plan_keys;
          Obs.incr c_updates;
          Obs.add c_upd_msets (List.length patched_msets);
          Obs.add c_upd_trees (List.length patched_trees);
          Obs.add c_upd_plans (List.length plan_keys);
          if doc_rebuilt then Obs.incr c_upd_docs;
          {
            u_capacity = Matching.capacity m_new;
            u_source_elements = Uxsm_schema.Schema.size (Matching.source m_new);
            u_target_elements = Uxsm_schema.Schema.size (Matching.target m_new);
            u_msets_patched = List.length patched_msets;
            u_trees_patched = List.length patched_trees;
            u_plans_invalidated = List.length plan_keys;
            u_doc_rebuilt = doc_rebuilt;
          }))

let corpora t =
  (* Spec reads are atomic, so the listing never blocks behind a shard
     mid-build; shards whose registration failed (entry [None]) are
     invisible. *)
  List.filter_map
    (fun (name, sh) ->
      Option.map (fun e -> (name, spec_description e.spec)) (Atomic.get sh.sh_entry))
    (shards_sorted t)

let matching t name = wrap (fun () -> with_shard t name (fun sh -> (entry_locked sh name).matching))
let doc t name = wrap (fun () -> with_shard t name (fun sh -> (entry_locked sh name).doc))

let mapping_set t name ~h =
  wrap (fun () -> with_shard t name (fun sh -> mset_locked t sh name ~h))

let prepared t name ~h ~tau =
  wrap (fun () ->
      with_shard t name (fun sh ->
          let s, tr = tree_locked t sh name ~h ~tau in
          (s, Lazy.force tr)))

let plan t name ~pattern ~h ~tau ~k ~force =
  wrap (fun () ->
      with_shard t name (fun sh -> plan_locked t sh name ~pattern ~h ~tau ~k ~force))

(* Monitoring reads. Stats are atomic counter sums; length is a per-shard
   O(1) population read. Neither takes shard locks, so the stats endpoint
   stays responsive while a shard is mid-build. *)

let cache_length t =
  List.fold_left (fun acc (_, sh) -> acc + Lru.length sh.sh_cache) 0 (shards_sorted t)

let cache_capacity t = t.cache_entries

let cache_stats t =
  List.fold_left
    (fun acc (_, sh) -> Lru.add_stats acc (Lru.stats sh.sh_cache))
    Lru.zero_stats (shards_sorted t)

(* Keys walk each shard's recency list, which mutates under traffic, so
   this one does take each shard lock (briefly, per shard). *)
let cache_keys t =
  List.concat_map
    (fun (_, sh) -> with_lock sh.sh_lock (fun () -> Lru.keys sh.sh_cache))
    (shards_sorted t)

let shard_count t = with_lock t.lock (fun () -> Hashtbl.length t.shards)
