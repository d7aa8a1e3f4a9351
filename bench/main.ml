(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI). Each experiment prints one labelled section;
   run with ids as arguments to restrict, e.g.
   [dune exec bench/main.exe -- fig9f fig10e]. *)

module Schema = Uxsm_schema.Schema
module Doc = Uxsm_xml.Doc
module Matching = Uxsm_mapping.Matching
module Mapping_set = Uxsm_mapping.Mapping_set
module Bipartite = Uxsm_assignment.Bipartite
module Murty = Uxsm_assignment.Murty
module Partition = Uxsm_assignment.Partition
module Block_tree = Uxsm_blocktree.Block_tree
module Ptq = Uxsm_ptq.Ptq
module Dataset = Uxsm_workload.Dataset
module Standards = Uxsm_workload.Standards
module Gen_doc = Uxsm_workload.Gen_doc
module Queries = Uxsm_workload.Queries
module Json = Uxsm_util.Json
module Executor = Uxsm_exec.Executor
module Protocol = Uxsm_server.Protocol
module Catalog = Uxsm_server.Catalog

(* Execution backend for the parallelized sites (the matcher's name-table
   rows, the server's runs of pure requests), set once from --jobs before
   any experiment runs. *)
(* lint: allow domain-unsafe — set once from --jobs before any experiment runs *)
let exec = ref Executor.sequential

let float_list xs = Json.List (List.map (fun x -> Json.Float x) xs)
let int_list xs = Json.List (List.map (fun x -> Json.Int x) xs)

(* One catalog, the server's, holds every matching, mapping set and the
   D7 document the experiments read. It is created on first use, after
   --jobs has set [exec], and registers each Table II dataset under its id
   the first time an experiment asks for it. *)
let catalog = lazy (Catalog.create ~exec:!exec ())

let ok = function Ok x -> x | Error e -> failwith e

let corpus (d : Dataset.t) =
  let cat = Lazy.force catalog in
  if not (List.mem_assoc d.id (Catalog.corpora cat)) then
    ignore
      (ok
         (Catalog.register cat ~name:d.id ~doc_seed:Gen_doc.default_seed
            (Protocol.From_dataset (d, Dataset.default_seed))));
  cat

let matching (d : Dataset.t) = ok (Catalog.matching (corpus d) d.id)
let mapping_set ~h (d : Dataset.t) = ok (Catalog.mapping_set (corpus d) d.id ~h)
let d7_mset h = mapping_set ~h Dataset.d7
let d7_doc () = ok (Catalog.doc (corpus Dataset.d7) Dataset.d7.id)

let context ?tree h = Ptq.context ?tree ~mset:(d7_mset h) ~doc:(d7_doc ()) ()

let ms t = t *. 1000.0

(* ---------------------------- Table II ---------------------------- *)

let table2 () =
  Harness.section "table2" "Schema matching datasets (|S|, |T|, opt, Cap., o-ratio)";
  Harness.json_param "h" (Json.Int 100);
  Harness.row "%-4s %-8s %5s %-8s %5s %-4s %5s %8s %8s" "ID" "S" "|S|" "T" "|T|" "opt" "Cap."
    "o-ratio" "(paper)";
  List.iter
    (fun (d : Dataset.t) ->
      let m = matching d in
      let mset = mapping_set ~h:100 d in
      Harness.row "%-4s %-8s %5d %-8s %5d %-4s %5d %8.2f %8.2f" d.id
        (Standards.style_name d.source)
        (Schema.size (Matching.source m))
        (Standards.style_name d.target)
        (Schema.size (Matching.target m))
        (match d.strategy with
        | Uxsm_matcher.Coma.Context -> "c"
        | Uxsm_matcher.Coma.Fragment -> "f")
        (Matching.capacity m)
        (Mapping_set.average_o_ratio mset)
        d.paper_o_ratio)
    Dataset.all;
  Harness.note "paper: o-ratios between 0.53 and 0.91 -- high overlap among mappings"

(* ------------------------- Figures 9(a)(b) ------------------------ *)

let taus_9ab = [ 0.02; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]

let fig9a () =
  Harness.section "fig9a" "Compression ratio vs tau (D7, |M|=100)";
  Harness.json_param "h" (Json.Int 100);
  Harness.json_param "taus" (float_list taus_9ab);
  let mset = d7_mset 100 in
  Harness.row "%6s %18s" "tau" "compression-ratio";
  List.iter
    (fun tau ->
      let tree = Block_tree.build ~params:{ Block_tree.default_params with tau } mset in
      Harness.row "%6.2f %17.2f%%" tau (100.0 *. Block_tree.compression_ratio tree))
    taus_9ab;
  Harness.note "paper: 14.64%% at tau=0.2, decreasing as tau grows"

let fig9b () =
  Harness.section "fig9b" "Number of c-blocks vs tau (D7, |M|=100)";
  let mset = d7_mset 100 in
  Harness.row "%6s %10s" "tau" "#c-blocks";
  List.iter
    (fun tau ->
      let tree = Block_tree.build ~params:{ Block_tree.default_params with tau } mset in
      Harness.row "%6.2f %10d" tau (Block_tree.n_blocks tree))
    taus_9ab;
  Harness.note "paper: fast drop until tau~0.1, then slow decline"

(* --------------------------- Figure 9(c) -------------------------- *)

let fig9c () =
  Harness.section "fig9c" "Distribution of c-block sizes (D7, defaults)";
  let mset = d7_mset 100 in
  let tree = Block_tree.build mset in
  let sizes = Block_tree.block_sizes tree in
  let n = List.length sizes in
  let target_n = Schema.size (Mapping_set.target mset) in
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = try Hashtbl.find buckets s with Not_found -> 0 in
      Hashtbl.replace buckets s (prev + 1))
    sizes;
  Harness.row "%7s %18s %10s" "#corrs" "% of target nodes" "#c-blocks";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (size, count) ->
         Harness.row "%7d %17.1f%% %10d" size
           (100.0 *. float_of_int size /. float_of_int target_n)
           count);
  let larger_than_one = List.length (List.filter (fun s -> s > 1) sizes) in
  let largest = List.fold_left max 0 sizes in
  let avg = float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int (max 1 n) in
  Harness.row "total=%d  size>1: %.0f%%  largest=%d (%.1f%% of target)  avg=%.2f" n
    (100.0 *. float_of_int larger_than_one /. float_of_int (max 1 n))
    largest
    (100.0 *. float_of_int largest /. float_of_int target_n)
    avg;
  Harness.note
    "paper: ~50%% of c-blocks larger than one corr; largest=41 (24.7%% of targets); avg=5.33"

(* --------------------------- Figure 9(d) -------------------------- *)

(* Tc is all of Algorithm 1: the block tree's node lists, then the mapping
   compression of Step 5, which a build leaves to be run on demand. *)
let build_and_compress ?params mset = Block_tree.compress (Block_tree.build ?params mset)

let fig9d () =
  Harness.section "fig9d" "Block-tree construction time Tc per dataset (|M|=100, 200)";
  Harness.row "%-4s %12s %12s" "ID" "Tc(|M|=100)" "Tc(|M|=200)";
  List.iter
    (fun (d : Dataset.t) ->
      let time h =
        let mset = mapping_set ~h d in
        Harness.seconds_per_run ~name:(d.id ^ "-tc")
          (fun () -> build_and_compress mset)
      in
      Harness.row "%-4s %10.2fms %10.2fms" d.id (ms (time 100)) (ms (time 200)))
    Dataset.all;
  Harness.note "paper: a few seconds at most per tree; shape: grows with |M| and |T|"

(* --------------------------- Figure 9(e) -------------------------- *)

let fig9e () =
  Harness.section "fig9e" "Tc vs MAX_B (D7, |M|=100)";
  Harness.json_param "h" (Json.Int 100);
  Harness.json_param "max_b" (int_list [ 20; 60; 100; 160; 200; 260; 300 ]);
  let mset = d7_mset 100 in
  Harness.row "%7s %10s %10s" "MAX_B" "Tc" "#c-blocks";
  List.iter
    (fun max_b ->
      let t =
        Harness.seconds_per_run ~name:"tc-maxb"
          (fun () -> build_and_compress ~params:{ Block_tree.default_params with max_b } mset)
      in
      let tree = Block_tree.build ~params:{ Block_tree.default_params with max_b } mset in
      Harness.row "%7d %8.2fms %10d" max_b (ms t) (Block_tree.n_blocks tree))
    [ 20; 60; 100; 160; 200; 260; 300 ];
  Harness.note "paper: Tc grows with MAX_B and saturates once all blocks fit (~180)"

(* ------------------------ Figures 9(f), 10(a) --------------------- *)

let query_times h =
  let tree = Block_tree.build (d7_mset h) in
  let ctx_basic = context h in
  let ctx_tree = context ~tree h in
  List.map
    (fun (id, q) ->
      let tb =
        Harness.seconds_per_run ~quota:1.0 ~name:(id ^ "-basic")
          (fun () -> Ptq.query_basic ctx_basic q)
      in
      let tt =
        Harness.seconds_per_run ~quota:1.0 ~name:(id ^ "-tree")
          (fun () -> Ptq.query_tree ctx_tree q)
      in
      (id, tb, tt))
    Queries.table3

let print_query_times rows =
  Harness.row "%-4s %12s %12s %12s" "Q" "basic" "block-tree" "improvement";
  let total_gain = ref 0.0 in
  List.iter
    (fun (id, tb, tt) ->
      total_gain := !total_gain +. ((tb -. tt) /. tb);
      Harness.row "%-4s %10.2fms %10.2fms %11.1f%%" id (ms tb) (ms tt)
        (100.0 *. (tb -. tt) /. tb))
    rows;
  Harness.row "average improvement: %.1f%%"
    (100.0 *. !total_gain /. float_of_int (List.length rows))

let fig9f () =
  Harness.section "fig9f" "PTQ time Tq per query, basic vs block-tree (D7, |M|=100)";
  print_query_times (query_times 100);
  Harness.note "paper: block-tree wins on all ten queries; average improvement 54.60%%"

let fig10a () =
  Harness.section "fig10a" "PTQ time Tq per query, basic vs block-tree (D7, |M|=500)";
  print_query_times (query_times 500);
  Harness.note "paper: same shape as Fig 9(f) at |M|=500"

(* --------------------------- Figure 10(b) ------------------------- *)

let fig10b () =
  Harness.section "fig10b" "Tq vs tau (D7, Q10, block-tree, |M|=100)";
  Harness.row "%6s %10s %10s %8s %8s %8s" "tau" "Tq" "#c-blocks" "shared" "direct" "joins";
  List.iter
    (fun tau ->
      let tree = Block_tree.build ~params:{ Block_tree.default_params with tau } (d7_mset 100) in
      let ctx = context ~tree 100 in
      let t =
        Harness.seconds_per_run ~name:"tq-tau" (fun () -> Ptq.query_tree ctx Queries.q10)
      in
      let stats, _ = Ptq.explain ~force:`Tree ctx Queries.q10 in
      Harness.row "%6.2f %8.2fms %10d %8d %8d %8d" tau (ms t) (Block_tree.n_blocks tree)
        stats.Ptq.shared_evaluations stats.Ptq.direct_evaluations stats.Ptq.joins)
    [ 0.02; 0.12; 0.22; 0.32; 0.42; 0.52; 0.65 ];
  Harness.note
    "paper: Tq rises while blocks vanish (tau up to ~0.2-0.3), then falls again for large tau"

(* --------------------------- Figure 10(c) ------------------------- *)

let fig10c () =
  Harness.section "fig10c" "Tq vs |M| (D7, Q10), basic vs block-tree";
  Harness.row "%6s %12s %12s" "|M|" "basic" "block-tree";
  List.iter
    (fun h ->
      let tree = Block_tree.build (d7_mset h) in
      let cb = context h in
      let ct = context ~tree h in
      let tb =
        Harness.seconds_per_run ~name:"tq-m-basic" (fun () -> Ptq.query_basic cb Queries.q10)
      in
      let tt =
        Harness.seconds_per_run ~name:"tq-m-tree" (fun () -> Ptq.query_tree ct Queries.q10)
      in
      Harness.row "%6d %10.2fms %10.2fms" h (ms tb) (ms tt))
    [ 30; 40; 50; 60; 70; 80; 90; 100; 120; 140; 160; 180; 200 ];
  Harness.note "paper: block-tree consistently below basic; average improvement 47.05%%"

(* --------------------------- Figure 10(d) ------------------------- *)

let fig10d () =
  Harness.section "fig10d" "top-k PTQ: Tq vs k (D7, Q10, |M|=100)";
  Harness.json_param "h" (Json.Int 100);
  Harness.json_param "ks" (int_list [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]);
  let tree = Block_tree.build (d7_mset 100) in
  let ctx = context ~tree 100 in
  let normal =
    Harness.seconds_per_run ~name:"tq-normal" (fun () -> Ptq.query_tree ctx Queries.q10)
  in
  Harness.row "%6s %10s %10s" "k" "top-k" "normal";
  List.iter
    (fun k ->
      let t =
        Harness.seconds_per_run ~name:"tq-topk" (fun () ->
            Ptq.query_topk ~force:`Tree ctx ~k Queries.q10)
      in
      Harness.row "%6d %8.2fms %8.2fms" k (ms t) (ms normal))
    [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ];
  Harness.note
    "paper: top-k well below normal for small k (90.31%% faster at k=10), converging as k -> |M|"

(* --------------------------- Figure 10(e) ------------------------- *)

let fig10e () =
  Harness.section "fig10e"
    "Top-h mapping generation Tg per dataset: murty vs partition (h=100)";
  Harness.row "%-4s %12s %12s %12s %11s" "ID" "murty" "partition" "#partitions" "improvement";
  List.iter
    (fun (d : Dataset.t) ->
      let g = Matching.to_bipartite (matching d) in
      let n_parts = List.length (Partition.components g) in
      let tm =
        Harness.seconds_per_run ~quota:1.0 ~name:(d.id ^ "-murty")
          (fun () -> Murty.top ~h:100 g)
      in
      let tp =
        Harness.seconds_per_run ~quota:1.0 ~name:(d.id ^ "-partition")
          (fun () -> Partition.top ~h:100 g)
      in
      Harness.row "%-4s %10.2fms %10.2fms %12d %10.1f%%" d.id (ms tm) (ms tp) n_parts
        (100.0 *. (tm -. tp) /. tm))
    Dataset.all;
  Harness.note "paper: partition consistently wins (log-scale plot); 23..966 partitions per dataset"

(* --------------------------- Figure 10(f) ------------------------- *)

let fig10f () =
  Harness.section "fig10f" "Tg vs h on D1: murty vs partition";
  let g = Matching.to_bipartite (matching (Option.get (Dataset.find "D1"))) in
  Harness.row "%6s %12s %12s %12s" "h" "murty" "partition" "improvement";
  List.iter
    (fun h ->
      let tm =
        Harness.seconds_per_run ~quota:0.5 ~name:"tg-murty" (fun () -> Murty.top ~h g)
      in
      let tp =
        Harness.seconds_per_run ~quota:0.5 ~name:"tg-partition"
          (fun () -> Partition.top ~h g)
      in
      Harness.row "%6d %10.2fms %10.2fms %11.1f%%" h (ms tm) (ms tp)
        (100.0 *. (tm -. tp) /. tm))
    [ 100; 200; 300; 400; 500; 600; 700; 800; 900; 1000 ];
  Harness.note "paper: improvement always above 87.97%%"


(* ----------------------------- Ablations -------------------------- *)
(* Beyond the paper's figures: each ablation isolates one design choice
   DESIGN.md calls out. *)

let abl_compress () =
  Harness.section "abl_compress" "ABLATION: storage, naive vs block tree, vs |M| (D7)";
  Harness.row "%6s %12s %12s %12s" "|M|" "naive" "block tree" "ratio";
  List.iter
    (fun h ->
      let mset = d7_mset h in
      let tree = Block_tree.build mset in
      let naive = Mapping_set.storage_bytes_naive mset in
      let compressed = Block_tree.storage_bytes tree in
      Harness.row "%6d %11db %11db %11.1f%%" h naive compressed
        (100.0 *. Block_tree.compression_ratio tree))
    [ 50; 100; 200; 500 ];
  Harness.note "compression improves with |M|: more mappings share each c-block"

let abl_relational () =
  Harness.section "abl_relational"
    "ABLATION (future work): top-h generation on relational schemas";
  let m = Uxsm_workload.Relational.matching () in
  let g = Matching.to_bipartite m in
  let comps = Partition.components g in
  let tm =
    Harness.seconds_per_run ~quota:0.5 ~name:"rel-murty" (fun () -> Murty.top ~h:100 g)
  in
  let tp =
    Harness.seconds_per_run ~quota:0.5 ~name:"rel-partition"
      (fun () -> Partition.top ~h:100 g)
  in
  Harness.row "capacity=%d partitions=%d murty=%.2fms partition=%.2fms improvement=%.1f%%"
    (Matching.capacity m) (List.length comps) (ms tm) (ms tp)
    (100.0 *. (tm -. tp) /. tm);
  Harness.note "flat (2-level) schemas are even sparser; the partitioning advantage persists"

let abl_exec_pool () =
  Harness.section "abl_exec_pool"
    "ABLATION: executor dispatch overhead, sequential vs warm-pool fan-out";
  let sizes = [ 1_000; 10_000; 100_000 ] in
  Harness.json_param "sizes" (int_list sizes);
  (* Near-trivial payload, so the pool side measures almost pure scheduling
     cost. At jobs>1 every iteration really wakes the warm workers — this
     section is what CI greps to prove the pool spawns at most (jobs - 1)
     domains for the whole run instead of per call. *)
  let f x = (x * 31) lxor (x lsr 3) in
  Harness.row "%8s %14s %14s %8s" "items" "sequential" "warm-pool" "ratio";
  List.iter
    (fun n ->
      let arr = Array.init n Fun.id in
      let ts =
        Harness.seconds_per_run ~name:(Printf.sprintf "seq-%d" n)
          (fun () -> Executor.map_array Executor.sequential f arr)
      in
      let tp =
        Harness.seconds_per_run ~name:(Printf.sprintf "pool-%d" n)
          (fun () -> Executor.map_array !exec f arr)
      in
      Harness.row "%8d %12.4fms %12.4fms %7.2fx" n (ms ts) (ms tp) (tp /. ts))
    sizes;
  Harness.json_param "pool_width" (Json.Int (Executor.pool_width ()));
  (* Park-and-join: idle pool domains still take part in every GC
     stop-the-world handshake, which on a host with few spare cores taxes
     the *sequential* sections that run after this one. Joining here keeps
     each record's timings attributable to its own section. *)
  Executor.shutdown ();
  Harness.note
    "exec.domains_spawned in this record must stay below the pool width (workers are reused)"

(* ------------------ ablation: incremental updates ------------------ *)

let abl_update () =
  Harness.section "abl_update"
    "ABLATION: single-component re-score, incremental update vs full rebuild (h=100)";
  Harness.json_param "h" (Json.Int 100);
  Harness.row "%-4s %5s %10s %12s %12s %9s" "ID" "comps" "reranked" "full" "incr" "speedup";
  List.iter
    (fun (d : Dataset.t) ->
      let u = matching d in
      let src = Matching.source u and tgt = Matching.target u in
      let comps = Partition.components (Matching.to_bipartite u) in
      (* A single-component delta: re-score the first edge of the median
         component in merge order, nudged by 0.25 so the new score stays
         in (0, 1]. The median is the representative placement — the
         cached merge levels replay the fold up to the touched component,
         so earlier placements re-merge more and later ones less. *)
      let x, y, w =
        match List.nth_opt comps (List.length comps / 2) with
        | Some { Partition.edges = e :: _; _ } -> e
        | _ -> failwith "dataset with no correspondences"
      in
      let delta =
        {
          Matching.set_scores =
            [
              ( Schema.path_string src x,
                Schema.path_string tgt y,
                if w > 0.5 then w -. 0.25 else w +. 0.25 );
            ];
          remove_corrs = [];
          add_source = [];
          add_target = [];
        }
      in
      let u' =
        match Matching.apply_delta delta u with
        | Ok u' -> u'
        | Error e -> failwith e
      in
      let mset = Mapping_set.generate ~h:100 u in
      (* How much of the ranking one incremental pass actually redoes. *)
      let reranked_c = Uxsm_obs.Obs.counter "partition.components_reranked" in
      let r0 = Uxsm_obs.Obs.value reranked_c in
      ignore (Mapping_set.update u' mset);
      let reranked = Uxsm_obs.Obs.value reranked_c - r0 in
      let t_full =
        Harness.seconds_per_run ~quota:0.5 ~name:(d.id ^ "-full") (fun () ->
            Mapping_set.generate ~h:100 u')
      in
      let t_incr =
        Harness.seconds_per_run ~quota:0.5 ~name:(d.id ^ "-incr") (fun () ->
            Mapping_set.update u' mset)
      in
      Harness.json_param (d.id ^ "_components") (Json.Int (List.length comps));
      Harness.json_param (d.id ^ "_reranked") (Json.Int reranked);
      Harness.row "%-4s %5d %10d %10.2fms %10.2fms %8.1fx" d.id (List.length comps) reranked
        (ms t_full) (ms t_incr) (t_full /. t_incr))
    Dataset.all;
  Harness.note
    "a delta confined to one connected component re-ranks only that component; a served \
     update builds no block tree (one is built when a forced Algorithm 4 plan reads it)";
  Harness.note
    "the <ID>_reranked params must stay below <ID>_components (checked by the record validator)"

(* ------------------- ablation: concurrent serving ------------------ *)

let abl_serve () =
  let module Server = Uxsm_server.Server in
  let module Client = Uxsm_server.Client in
  Harness.section "abl_serve"
    "ABLATION: concurrent TCP service vs sequential dispatch of the same load";
  let n_clients = 4 and per_client = 50 in
  Harness.json_param "clients" (Json.Int n_clients);
  Harness.json_param "requests_per_client" (Json.Int per_client);
  let srv = Server.create ~cache_entries:32 ~exec:!exec () in
  (match
     Catalog.register (Server.catalog srv) ~name:"demo" ~doc_seed:Gen_doc.default_seed
       (Protocol.From_dataset (Dataset.d7, Dataset.default_seed))
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let requests ci =
    List.init per_client (fun j ->
        let req =
          match j mod 3 with
          | 0 -> Protocol.Ping
          | 1 ->
            Protocol.Query
              { corpus = "demo"; pattern = "Order/POLine[./LineNo]//UnitPrice"; h = 20;
                tau = Protocol.default_tau; k = None; evaluator = `Auto }
          | _ -> Protocol.Mappings { corpus = "demo"; h = 20 }
        in
        let id = Json.String (Printf.sprintf "b%d-%d" ci j) in
        Json.to_string (Protocol.to_json { Protocol.id = Some id; req }))
  in
  (* Sequential floor first: the same request stream through dispatch
     alone. This also warms the artifact cache, so both measurements see
     the steady serving state rather than one paying the block-tree
     build. *)
  let all = List.concat_map requests (List.init n_clients Fun.id) in
  let t0 = Uxsm_util.Timing.now_mono () in
  List.iter (fun l -> ignore (Server.handle_line srv l)) all;
  let seq = Uxsm_util.Timing.now_mono () -. t0 in
  Harness.record_measurement "sequential-dispatch" seq;
  (* The same load as a real service: N pipelining TCP clients over the
     shared bounded queue and the dispatcher's pool fan-out. *)
  let bound = ref [] in
  let m = Uxsm_util.Locks.create ~name:"bench.ready" ~rank:Uxsm_util.Locks.rank_latch in
  let c = Uxsm_util.Locks.cond () in
  let th =
    Thread.create
      (fun () ->
        Server.serve
          ~ready:(fun eps ->
            Uxsm_util.Locks.lock m;
            bound := eps;
            Uxsm_util.Locks.signal c;
            Uxsm_util.Locks.unlock m)
          srv [ Client.Tcp ("127.0.0.1", 0) ])
      ()
  in
  Uxsm_util.Locks.lock m;
  while !bound = [] do
    Uxsm_util.Locks.wait c m
  done;
  Uxsm_util.Locks.unlock m;
  let endpoint = List.hd !bound in
  let burst () =
    let clients =
      List.init n_clients (fun ci ->
          Thread.create
            (fun () ->
              let conn =
                match Client.connect endpoint with
                | Ok conn -> conn
                | Error e -> failwith e
              in
              let reqs = requests ci in
              ignore (Client.send conn reqs);
              List.iter (fun _ -> ignore (Client.recv conn)) reqs;
              Client.close conn)
            ())
    in
    List.iter Thread.join clients
  in
  let t0 = Uxsm_util.Timing.now_mono () in
  burst ();
  let conc = Uxsm_util.Timing.now_mono () -. t0 in
  Harness.record_measurement "concurrent-tcp" conc;
  Server.request_stop srv;
  Thread.join th;
  let total = n_clients * per_client in
  Harness.json_param "total_requests" (Json.Int total);
  Harness.row "%-20s %10.0f req/s  (%8.3fms total)" "sequential" (float_of_int total /. seq)
    (ms seq);
  Harness.row "%-20s %10.0f req/s  (%8.3fms total)" "concurrent-tcp"
    (float_of_int total /. conc) (ms conc);
  Harness.note "this record's histograms carry server.<op>.latency p50/p95/p99 per op";
  Harness.note
    "the concurrent path adds transport + admission queue; at --jobs 1 parity with \
     sequential dispatch is the bar, at --jobs >1 pure requests overlap"

(* ------------------------------ main ------------------------------ *)

let experiments =
  [
    ("table2", table2);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("fig9c", fig9c);
    ("fig9d", fig9d);
    ("fig9e", fig9e);
    ("fig9f", fig9f);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("fig10c", fig10c);
    ("fig10d", fig10d);
    ("fig10e", fig10e);
    ("fig10f", fig10f);
    ("abl_compress", abl_compress);
    ("abl_relational", abl_relational);
    ("abl_exec_pool", abl_exec_pool);
    ("abl_update", abl_update);
    ("abl_serve", abl_serve);
  ]

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let json_path = ref None in
  let jobs = ref 1 in
  let ids = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | [ "--json" ] ->
      prerr_endline "--json requires a path";
      exit 2
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse rest
      | _ ->
        prerr_endline "--jobs requires an integer >= 1";
        exit 2)
    | [ "--jobs" ] ->
      prerr_endline "--jobs requires an integer >= 1";
      exit 2
    | id :: rest ->
      ids := id :: !ids;
      parse rest
  in
  parse argv;
  exec := Executor.of_jobs !jobs;
  let selected =
    match List.rev !ids with
    | [] -> List.map fst experiments
    | ids -> ids
  in
  (* Reject unknown ids before anything runs, so a typo appends no run. *)
  (match List.filter (fun id -> not (List.mem_assoc id experiments)) selected with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown experiment %s (available: %s)\n" (String.concat ", " unknown)
      (String.concat ", " (List.map fst experiments));
    exit 2);
  (* Every run appends one machine-readable record; default file keyed by
     the measured revision so baselines of different commits never mix. *)
  let path =
    match !json_path with
    | Some p -> p
    | None -> Printf.sprintf "BENCH_%s.json" (Uxsm_obs.Bench_json.git_rev ())
  in
  Harness.start_recording path;
  Printf.printf "uxsm benchmark harness -- reproduction of Cheng/Gong/Cheung, ICDE 2010\n";
  Printf.printf
    "defaults: |M|=100, tau=0.2, MAX_B=500, MAX_F=500, dataset D7, source doc 3473 nodes\n";
  Printf.printf "executor: %s (--jobs %d)\n%!" (Executor.backend_name !exec) !jobs;
  let t0 = Uxsm_util.Timing.now_mono () in
  List.iter (fun id -> List.assoc id experiments ()) selected;
  Harness.finalize ~argv ~jobs:!jobs ~executor:(Executor.backend_name !exec) ();
  Printf.printf "\ntotal bench wall time: %.1fs\n" (Uxsm_util.Timing.now_mono () -. t0)
