(* Query rewriting under uncertainty: how one target query becomes many
   source queries.

   A twig query posed on the Apertum-style target schema is rewritten
   through each possible mapping into a query over the XCBL-style source
   schema; different mappings yield different source queries (or none, when
   the mapped elements are structurally unrelated). This is the machinery
   behind Algorithm 3's rewrite step.

   Run with: dune exec examples/query_rewriting.exe *)

module Schema = Uxsm_schema.Schema
module Mapping = Uxsm_mapping.Mapping
module Mapping_set = Uxsm_mapping.Mapping_set
module Pattern = Uxsm_twig.Pattern
module Dataset = Uxsm_workload.Dataset
module Queries = Uxsm_workload.Queries
module Resolve = Uxsm_ptq.Resolve
module Rewrite = Uxsm_ptq.Rewrite

let () =
  let mset = Mapping_set.generate ~h:8 (Dataset.matching Dataset.d7) in
  let source = Mapping_set.source mset and target = Mapping_set.target mset in
  let q = Queries.q 1 in
  Printf.printf "target query (on Apertum): %s\n\n" (Pattern.to_string q);
  let resolutions = Resolve.against q target in
  Printf.printf "%d resolution(s) against the target schema\n" (List.length resolutions);
  List.iter
    (fun resolution ->
      Printf.printf "\nresolution: %s\n"
        (String.concat ", "
           (Array.to_list (Array.map (Schema.path_string target) resolution)));
      List.iteri
        (fun i (m, p) ->
          let rewritten =
            Rewrite.through ~source ~pattern:q ~resolution ~at_top:true
              ~lookup:(Mapping.source_of m)
          in
          match rewritten with
          | Some q_s ->
            Printf.printf "  m%d (p=%.3f) -> %s\n" (i + 1) p (Pattern.to_string q_s)
          | None ->
            Printf.printf "  m%d (p=%.3f) -> (not rewritable: missing or unrelated elements)\n"
              (i + 1) p)
        (Mapping_set.mappings mset))
    resolutions
