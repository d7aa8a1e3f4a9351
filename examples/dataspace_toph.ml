(* Dataspace-style mapping generation: Section V at scale.

   Systems like Dataspace or GoogleBase maintain mappings for many user
   schemas, so deriving the top-h mappings from a matching must be fast.
   This example runs both generators — Murty's ranking over the whole
   bipartite graph, and the paper's divide-and-conquer partitioning — over
   all ten Table II matchings and reports timings and the number of
   partitions, then prints the top mappings of the smallest dataset.

   Run with: dune exec examples/dataspace_toph.exe *)

module Schema = Uxsm_schema.Schema
module Matching = Uxsm_mapping.Matching
module Mapping = Uxsm_mapping.Mapping
module Mapping_set = Uxsm_mapping.Mapping_set
module Partition = Uxsm_assignment.Partition
module Murty = Uxsm_assignment.Murty
module Dataset = Uxsm_workload.Dataset

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let () =
  Printf.printf "%-5s %12s %12s %12s %10s\n" "ID" "murty" "partition" "#partitions" "speedup";
  List.iter
    (fun (d : Dataset.t) ->
      let g = Matching.to_bipartite (Dataset.matching d) in
      let comps = Partition.components g in
      let _, tm = time (fun () -> Murty.top ~h:100 g) in
      let _, tp = time (fun () -> Partition.top ~h:100 g) in
      Printf.printf "%-5s %10.1fms %10.1fms %12d %9.1fx\n%!" d.id (tm *. 1000.0) (tp *. 1000.0)
        (List.length comps)
        (tm /. tp))
    Dataset.all;

  (* Show what the generated uncertainty actually looks like on D1. *)
  let d1 = Option.get (Dataset.find "D1") in
  let mset = Mapping_set.generate ~h:5 (Dataset.matching d1) in
  let source = Mapping_set.source mset and target = Mapping_set.target mset in
  Printf.printf "\ntop-5 mappings of %s (Excel -> Noris):\n" d1.id;
  List.iteri
    (fun i (m, p) ->
      Printf.printf "  m%d: probability %.3f, %d correspondences\n" (i + 1) p (Mapping.size m);
      List.iteri
        (fun j (x, y) ->
          if j < 4 then
            Printf.printf "      %s ~ %s\n" (Schema.path_string source x)
              (Schema.path_string target y))
        (Mapping.pairs m);
      if Mapping.size m > 4 then Printf.printf "      ...\n")
    (Mapping_set.mappings mset)
