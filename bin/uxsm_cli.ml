(* uxsm: command-line front end for the library.

   Subcommands cover the whole pipeline: generate standard schemas and
   documents, run the matcher, derive top-h possible mappings, build block
   trees, and answer probabilistic twig queries. *)

open Cmdliner
module Executor = Uxsm_exec.Executor
module Schema = Uxsm_schema.Schema
module Doc = Uxsm_xml.Doc
module Matching = Uxsm_mapping.Matching
module Mapping = Uxsm_mapping.Mapping
module Mapping_set = Uxsm_mapping.Mapping_set
module Block_tree = Uxsm_blocktree.Block_tree
module Ptq = Uxsm_ptq.Ptq
module Dataset = Uxsm_workload.Dataset
module Standards = Uxsm_workload.Standards
module Gen_doc = Uxsm_workload.Gen_doc
module Queries = Uxsm_workload.Queries
module Protocol = Uxsm_server.Protocol
module Catalog = Uxsm_server.Catalog
module Client = Uxsm_server.Client
module Loadgen = Uxsm_server.Loadgen

let style_conv =
  let parse s =
    match Standards.by_name s with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown style %S (try XCBL, Apertum, OT, Excel, Noris, Paragon, CIDX)" s))
  in
  Arg.conv (parse, fun fmt st -> Format.pp_print_string fmt (Standards.style_name st))

let dataset_conv =
  let parse s =
    match Dataset.find s with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown dataset %S (D1..D10)" s))
  in
  Arg.conv (parse, fun fmt (d : Dataset.t) -> Format.pp_print_string fmt d.id)

let dataset_pos =
  Arg.(required & pos 0 (some dataset_conv) None & info [] ~docv:"DATASET" ~doc:"D1..D10.")

let seed_arg =
  Arg.(value & opt int Dataset.default_seed
       & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic generation seed.")

let h_arg =
  Arg.(value & opt int Protocol.default_h
       & info [ "h"; "top-h" ] ~docv:"H" ~doc:"Number of possible mappings to derive.")

let tau_arg =
  let tau_conv =
    let parse s =
      match float_of_string_opt s with
      | Some tau when Block_tree.valid_tau tau -> Ok tau
      | _ -> Error (`Msg "expected a number in (0, 1]")
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  Arg.(value & opt tau_conv Protocol.default_tau
       & info [ "tau" ] ~docv:"TAU" ~doc:"c-block confidence threshold.")

let jobs_arg =
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg "expected an integer >= 1")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt jobs_conv 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the matcher's name-table rows and, under $(b,serve), \
               runs of pure requests (1 = sequential; results are identical for every \
               N).")

(* ------------------------------- schema --------------------------- *)

let schema_cmd =
  let run style seed xsd =
    let s = Standards.generate ~seed style in
    if xsd then print_string (Uxsm_schema.Xsd.to_xsd_string s)
    else print_string (Schema.to_string s)
  in
  let style =
    Arg.(required & pos 0 (some style_conv) None & info [] ~docv:"STYLE" ~doc:"Standard name.")
  in
  let xsd = Arg.(value & flag & info [ "xsd" ] ~doc:"Print as an XML Schema document.") in
  Cmd.v
    (Cmd.info "schema"
       ~doc:"Generate a standard's schema and print it (indented text or --xsd).")
    Term.(const run $ style $ seed_arg $ xsd)

(* ------------------------------ datasets -------------------------- *)

let datasets_cmd =
  let run () =
    Printf.printf "%-4s %-8s %-8s %-4s %5s %8s\n" "ID" "source" "target" "opt" "Cap." "o-ratio*";
    List.iter
      (fun (d : Dataset.t) ->
        Printf.printf "%-4s %-8s %-8s %-4s %5d %8.2f\n" d.id
          (Standards.style_name d.source)
          (Standards.style_name d.target)
          (match d.strategy with
          | Uxsm_matcher.Coma.Context -> "c"
          | Uxsm_matcher.Coma.Fragment -> "f")
          d.capacity d.paper_o_ratio)
      Dataset.all;
    print_endline "(*paper-reported o-ratio; run the bench to measure this build's)"
  in
  Cmd.v (Cmd.info "datasets" ~doc:"List the Table II matching datasets.") Term.(const run $ const ())

(* ------------------------ catalog-backed corpora ------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Every dataset command assembles its corpus the way the server does: an
   in-process catalog with the dataset (or a saved mapping set) registered
   under one name, from which it takes matching, mapping set, block tree,
   document and plan. A catalog error (an unreadable mapping file, a
   malformed pattern) ends the command with one line on stderr and exit
   code 1. *)
let cli_corpus = "cli"

let die msg =
  Printf.eprintf "uxsm: %s\n" msg;
  exit 1

let or_die = function Ok x -> x | Error e -> die e

let open_corpus ?mappings ~exec ~seed d =
  let spec =
    match mappings with
    | None -> Protocol.From_dataset (d, seed)
    | Some path -> (
      match read_file path with
      | text -> Protocol.From_mapping_set_text text
      | exception Sys_error e -> die e)
  in
  let cat = Catalog.create ~exec () in
  ignore (or_die (Catalog.register cat ~name:cli_corpus ~doc_seed:Gen_doc.default_seed spec));
  cat

(* ------------------------------- match ---------------------------- *)

let match_cmd =
  let run d seed jobs =
    let cat = open_corpus ~exec:(Executor.of_jobs jobs) ~seed d in
    let m = or_die (Catalog.matching cat cli_corpus) in
    let source = Matching.source m and target = Matching.target m in
    List.iter
      (fun (c : Matching.corr) ->
        Printf.printf "%.2f  %s ~ %s\n" c.score
          (Schema.path_string source c.source)
          (Schema.path_string target c.target))
      (Matching.correspondences m)
  in
  Cmd.v
    (Cmd.info "match" ~doc:"Run the matcher on a dataset and print the scored correspondences.")
    Term.(const run $ dataset_pos $ seed_arg $ jobs_arg)

(* ------------------------------ mappings -------------------------- *)

let mappings_cmd =
  let run d seed h jobs verbose save =
    let cat = open_corpus ~exec:(Executor.of_jobs jobs) ~seed d in
    let t0 = Uxsm_util.Timing.now_mono () in
    let mset = or_die (Catalog.mapping_set cat cli_corpus ~h) in
    (* Read the clock before printing: [printf] evaluates its arguments
       right to left, so an inline reading would time the o-ratio too. *)
    let elapsed = Uxsm_util.Timing.now_mono () -. t0 in
    Printf.printf "derived %d mappings in %.3fs; average o-ratio %.3f\n"
      (Mapping_set.size mset) elapsed
      (Mapping_set.average_o_ratio mset);
    (match save with
    | Some path ->
      write_file path (Uxsm_mapping.Serialize.mapping_set_to_string mset);
      Printf.printf "saved to %s\n" path
    | None -> ());
    let source = Mapping_set.source mset and target = Mapping_set.target mset in
    List.iteri
      (fun i (m, p) ->
        Printf.printf "m%-3d p=%.4f score=%.2f size=%d\n" (i + 1) p (Mapping.score m)
          (Mapping.size m);
        if verbose then
          List.iter
            (fun (x, y) ->
              Printf.printf "      %s ~ %s\n" (Schema.path_string source x)
                (Schema.path_string target y))
            (Mapping.pairs m))
      (Mapping_set.mappings mset)
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every correspondence of every mapping.")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Also write the mapping set to FILE (uxsm-mappings v1 format).")
  in
  Cmd.v
    (Cmd.info "mappings" ~doc:"Derive the top-h possible mappings of a dataset.")
    Term.(const run $ dataset_pos $ seed_arg $ h_arg $ jobs_arg $ verbose $ save)

(* ------------------------------ blocktree ------------------------- *)

let blocktree_cmd =
  let run d seed h tau max_b max_f verbose =
    let cat = open_corpus ~exec:Executor.sequential ~seed d in
    let mset = or_die (Catalog.mapping_set cat cli_corpus ~h) in
    (* Built by hand rather than through the catalog, which builds only
       with the default MAX_B and MAX_F. *)
    let t0 = Uxsm_util.Timing.now_mono () in
    let tree = Block_tree.build ~params:{ Block_tree.tau; max_b; max_f } mset in
    Printf.printf "built in %.3fs\n%s\n" (Uxsm_util.Timing.now_mono () -. t0)
      (Format.asprintf "%a" Block_tree.pp_stats tree);
    (match Block_tree.validate tree with
    | Ok () -> print_endline "validation: ok"
    | Error e -> Printf.printf "validation FAILED: %s\n" e);
    if verbose then begin
      let source = Mapping_set.source mset and target = Mapping_set.target mset in
      List.iter
        (fun b -> Format.printf "%a@." (Uxsm_blocktree.Block.pp ~source ~target) b)
        (Block_tree.all_blocks tree)
    end
  in
  let max_b =
    Arg.(value & opt int Block_tree.default_params.max_b
         & info [ "max-b" ] ~docv:"N" ~doc:"MAX_B: cap on non-leaf c-blocks.")
  in
  let max_f =
    Arg.(value & opt int Block_tree.default_params.max_f
         & info [ "max-f" ] ~docv:"N" ~doc:"MAX_F: cap on failed attempts.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every c-block.") in
  Cmd.v
    (Cmd.info "blocktree" ~doc:"Build and validate the block tree of a dataset's mapping set.")
    Term.(const run $ dataset_pos $ seed_arg $ h_arg $ tau_arg $ max_b $ max_f $ verbose)

(* ---------------------------- query / stats ------------------------ *)

let evaluator_arg =
  let ev_conv = Arg.enum [ ("basic", `Basic); ("tree", `Tree); ("auto", `Auto) ] in
  Arg.(value & opt ev_conv `Auto
       & info [ "evaluator" ] ~docv:"EV"
           ~doc:"Physical evaluator: $(b,basic) (Algorithm 3), $(b,tree) (Algorithm 4), or \
                 $(b,auto) (the default: Algorithm 3 once per evaluation unit, the mappings \
                 that rewrite the query alike).")

(* One term, two reports: [query] prints the consolidated answers, [stats]
   the metrics-layer snapshot of the whole run. *)
let ptq_cmd name ~doc report =
  let run d seed h tau k evaluator show_plan mappings jobs query_str =
    let exec = Executor.of_jobs jobs in
    if report = `Stats then Uxsm_obs.Obs.reset ();
    let pattern =
      Option.value query_str ~default:(Uxsm_twig.Pattern.to_string Queries.q7)
    in
    let cat = open_corpus ?mappings ~exec ~seed d in
    (* Build what the plan reads first (the block tree only for forced
       Algorithm 4), so the timed window covers plan compilation and
       execution only. *)
    if evaluator = `Tree then ignore (or_die (Catalog.prepared cat cli_corpus ~h ~tau))
    else ignore (or_die (Catalog.mapping_set cat cli_corpus ~h));
    let t0 = Uxsm_util.Timing.now_mono () in
    let plan = or_die (Catalog.plan cat cli_corpus ~pattern ~h ~tau ~k ~force:evaluator) in
    let answers = Ptq.execute plan in
    let dt = Uxsm_util.Timing.now_mono () -. t0 in
    Printf.printf "query: %s\n"
      (Uxsm_twig.Pattern.to_string (Uxsm_twig.Pattern_parser.parse_exn pattern));
    if show_plan then print_endline (Uxsm_plan.Plan.describe (Ptq.physical plan));
    match report with
    | `Answers ->
      Printf.printf "%d relevant mappings; evaluated in %.4fs\n" (List.length answers) dt;
      List.iter
        (fun (bindings, p) ->
          Printf.printf "p=%.3f  %s\n" p
            (match bindings with
            | [] -> "(no match)"
            | _ -> Printf.sprintf "%d matches" (List.length bindings)))
        (Ptq.consolidate answers)
    | `Stats ->
      let module Obs = Uxsm_obs.Obs in
      Printf.printf "%d relevant mappings\n\n" (List.length answers);
      Format.printf "%a@." Obs.pp_snapshot (Obs.nonzero (Obs.snapshot ()))
  in
  let query_str =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Twig query (Table III syntax); defaults to Q7.")
  in
  let k =
    Arg.(value & opt (some int) None & info [ "k" ] ~docv:"K" ~doc:"Evaluate as a top-k PTQ.")
  in
  let show_plan =
    Arg.(value & flag & info [ "plan" ] ~doc:"Print the compiled query plan before the answers.")
  in
  let mappings =
    Arg.(value & opt (some string) None & info [ "mappings" ] ~docv:"FILE"
           ~doc:"Take the matching from a saved mapping set (see $(b,mappings --save)) \
                 instead of running the matcher; the top-$(b,h) mappings are derived \
                 from it.")
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ dataset_pos $ seed_arg $ h_arg $ tau_arg $ k $ evaluator_arg $ show_plan
          $ mappings $ jobs_arg $ query_str)

let query_cmd = ptq_cmd "query" ~doc:"Answer a probabilistic twig query on a dataset." `Answers

let stats_cmd =
  ptq_cmd "stats"
    ~doc:"Answer a query like $(b,query), then print the metrics-layer snapshot (counters and \
          spans of mapping generation, block-tree construction and PTQ evaluation)."
    `Stats

(* --------------------------------- doc ---------------------------- *)

let doc_cmd =
  let run style seed nodes xml =
    let schema = Standards.generate ~seed style in
    let doc = Gen_doc.generate ~seed ~target_nodes:nodes schema in
    if xml then
      print_string
        (Uxsm_xml.Printer.to_string ~indent:2 (Doc.subtree doc (Doc.root doc)))
    else
      Printf.printf "document: %d element nodes, %d distinct labels, depth %d\n" (Doc.size doc)
        (List.length (Doc.labels doc))
        (List.fold_left (fun acc n -> max acc (Doc.level doc n)) 0
           (List.init (Doc.size doc) Fun.id))
  in
  let style =
    Arg.(required & pos 0 (some style_conv) None & info [] ~docv:"STYLE" ~doc:"Standard name.")
  in
  let nodes =
    Arg.(value & opt int 3473 & info [ "nodes" ] ~docv:"N" ~doc:"Target element-node count.")
  in
  let xml = Arg.(value & flag & info [ "xml" ] ~doc:"Print the document as XML.") in
  Cmd.v
    (Cmd.info "doc" ~doc:"Generate an instance document for a standard's schema.")
    Term.(const run $ style $ seed_arg $ nodes $ xml)

(* ------------------------------ xsd-match ------------------------- *)

let xsd_match_cmd =
  let run source_path target_path h jobs query_str =
    let exec = Executor.of_jobs jobs in
    let load path =
      match Uxsm_schema.Xsd.of_xsd_string (read_file path) with
      | Ok s -> s
      | Error e ->
        Printf.eprintf "cannot load %s: %s\n" path e;
        exit 1
    in
    let source = load source_path and target = load target_path in
    let matching = Uxsm_matcher.Coma.run ~exec ~source ~target () in
    Printf.printf "%d correspondences between %d and %d elements\n"
      (Matching.capacity matching) (Schema.size source) (Schema.size target);
    List.iter
      (fun (c : Matching.corr) ->
        Printf.printf "%.2f  %s ~ %s\n" c.score
          (Schema.path_string source c.source)
          (Schema.path_string target c.target))
      (Matching.correspondences matching);
    let mset = Mapping_set.generate ~h matching in
    Printf.printf "\ntop-%d mappings, o-ratio %.2f\n" (Mapping_set.size mset)
      (Mapping_set.average_o_ratio mset);
    match query_str with
    | None -> ()
    | Some qs ->
      let q = Uxsm_twig.Pattern_parser.parse_exn qs in
      let doc = Gen_doc.generate ~target_nodes:(4 * Schema.size source) source in
      let tree = Block_tree.build mset in
      let ctx = Ptq.context ~tree ~mset ~doc () in
      Printf.printf "\nPTQ %s over a generated %d-node instance:\n" qs
        (Uxsm_xml.Doc.size doc);
      List.iter
        (fun (bindings, p) ->
          Printf.printf "  p=%.3f  %s\n" p
            (match bindings with
            | [] -> "(no match)"
            | _ -> Printf.sprintf "%d matches" (List.length bindings)))
        (Ptq.consolidate (Ptq.query_tree ctx q))
  in
  let source_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE.xsd" ~doc:"Source schema file.")
  in
  let target_path =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"TARGET.xsd" ~doc:"Target schema file.")
  in
  let query_str =
    Arg.(value & pos 2 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Optional twig query on the target schema.")
  in
  Cmd.v
    (Cmd.info "xsd-match"
       ~doc:"Match two XSD files, derive possible mappings, optionally answer a PTQ.")
    Term.(const run $ source_path $ target_path $ h_arg $ jobs_arg $ query_str)

(* ------------------------------- analyze -------------------------- *)

let analyze_cmd =
  let run d seed h tau query_str =
    let cat = open_corpus ~exec:Executor.sequential ~seed d in
    let mset, tree = or_die (Catalog.prepared cat cli_corpus ~h ~tau) in
    let module Metrics = Uxsm_mapping.Metrics in
    Printf.printf "mapping set: |M|=%d, o-ratio=%.3f\n" (Mapping_set.size mset)
      (Mapping_set.average_o_ratio mset);
    Printf.printf "entropy: %.2f bits (normalized %.2f), expected mapping size %.1f\n"
      (Metrics.entropy mset)
      (Metrics.normalized_entropy mset)
      (Metrics.expected_mapping_size mset);
    Printf.printf "target-element ambiguity histogram (choices -> #elements):\n";
    List.iter
      (fun (a, c) -> Printf.printf "  %d -> %d\n" a c)
      (Metrics.ambiguity_histogram mset);
    Printf.printf "block tree: %s\n" (Format.asprintf "%a" Block_tree.pp_stats tree);
    match query_str with
    | None -> ()
    | Some qs ->
      let plan = or_die (Catalog.plan cat cli_corpus ~pattern:qs ~h ~tau ~k:None ~force:`Auto) in
      let stats, answers = Ptq.explain_plan plan in
      Printf.printf "query %s:\n" qs;
      print_endline (Uxsm_plan.Plan.describe stats.Ptq.plan);
      Printf.printf
        "  resolutions=%d relevant=%d blocks_used=%d shared_evals=%d direct_evals=%d decompositions=%d joins=%d\n"
        stats.Ptq.resolutions stats.Ptq.relevant_mappings stats.Ptq.blocks_used
        stats.Ptq.shared_evaluations stats.Ptq.direct_evaluations stats.Ptq.decompositions
        stats.Ptq.joins;
      Printf.printf "  distinct answer sets: %d\n" (List.length (Ptq.consolidate answers))
  in
  let query_str =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Optional twig query to EXPLAIN.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Report uncertainty metrics of a dataset's mapping set, and optionally EXPLAIN a query.")
    Term.(const run $ dataset_pos $ seed_arg $ h_arg $ tau_arg $ query_str)

(* ------------------------------- keyword -------------------------- *)

let keyword_cmd =
  let run d seed h jobs terms =
    let cat = open_corpus ~exec:(Executor.of_jobs jobs) ~seed d in
    let mset = or_die (Catalog.mapping_set cat cli_corpus ~h) in
    let doc = or_die (Catalog.doc cat cli_corpus) in
    (* Keyword interpretations run auto plans, which read no block tree. *)
    let ctx = Ptq.context ~mset ~doc () in
    let hits = Uxsm_ptq.Keyword.search ctx terms in
    if hits = [] then print_endline "no interpretation has answers"
    else
      List.iter
        (fun (hit : Uxsm_ptq.Keyword.hit) ->
          Printf.printf "interpretation: %s\n"
            (Uxsm_twig.Pattern.to_string hit.Uxsm_ptq.Keyword.pattern);
          List.iteri
            (fun i (bindings, p) ->
              if i < 3 then
                Printf.printf "  p=%.3f  %s\n" p
                  (match bindings with
                  | [] -> "(no match)"
                  | _ -> Printf.sprintf "%d matches" (List.length bindings)))
            hit.Uxsm_ptq.Keyword.answers)
        hits
  in
  let terms =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"TERM" ~doc:"Keywords.")
  in
  Cmd.v
    (Cmd.info "keyword" ~doc:"Keyword search over a dataset's uncertain matching.")
    Term.(const run $ dataset_pos $ seed_arg $ h_arg $ jobs_arg $ terms)

(* ------------------------------- serve ---------------------------- *)

(* [HOST:]PORT — plain PORT listens on 127.0.0.1. *)
let tcp_endpoint_of_string s =
  let host, port_s =
    match String.rindex_opt s ':' with
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> ("127.0.0.1", s)
  in
  match int_of_string_opt port_s with
  | Some p when p >= 0 && p < 65536 && host <> "" -> Ok (host, p)
  | _ -> Error (`Msg (Printf.sprintf "expected [HOST:]PORT, got %S" s))

let tcp_conv =
  Arg.conv
    (tcp_endpoint_of_string, fun fmt (h, p) -> Format.fprintf fmt "%s:%d" h p)

let serve_cmd =
  let run socket tcp stdio max_queue jobs cache_entries corpora seed =
    let module Server = Uxsm_server.Server in
    let srv = Server.create ~cache_entries ~exec:(Executor.of_jobs jobs) () in
    let register (name, d) =
      match
        Catalog.register (Server.catalog srv) ~name ~doc_seed:Gen_doc.default_seed
          (Protocol.From_dataset (d, seed))
      with
      | Ok _ -> Printf.eprintf "registered corpus %s from dataset %s\n%!" name d.Dataset.id
      | Error e ->
        Printf.eprintf "cannot register %s: %s\n" name e;
        exit 1
    in
    List.iter register corpora;
    if stdio then Server.serve_channels srv stdin stdout
    else
      let endpoints =
        (match socket with None -> [] | Some p -> [ Client.Unix_socket p ])
        @ match tcp with None -> [] | Some (h, p) -> [ Client.Tcp (h, p) ]
      in
      match endpoints with
      | [] ->
        prerr_endline "serve: need --socket PATH and/or --tcp [HOST:]PORT (or --stdio)";
        exit 2
      | _ ->
        let ready =
          List.iter (fun ep ->
              Printf.eprintf "uxsm serve: listening on %s (--jobs %d)\n%!"
                (Client.endpoint_to_string ep) jobs)
        in
        Server.serve ~max_queue ~ready srv endpoints;
        Printf.eprintf "uxsm serve: drained, shutting down\n%!"
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix domain socket to listen on (created; removed on shutdown).")
  in
  let tcp =
    Arg.(value & opt (some tcp_conv) None & info [ "tcp" ] ~docv:"[HOST:]PORT"
           ~doc:"TCP endpoint to listen on (default host 127.0.0.1; port 0 picks an \
                 ephemeral port, printed on stderr). May be combined with \
                 $(b,--socket) to serve both transports.")
  in
  let max_queue =
    Arg.(value & opt int 256 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Admission-queue bound shared by all connections; a request arriving \
                 when the queue is full is rejected immediately with a structured \
                 'overloaded' error instead of being executed.")
  in
  let stdio =
    Arg.(value & flag & info [ "stdio" ]
           ~doc:"Serve one request line per stdin line on stdout instead of a socket \
                 (scripting and tests).")
  in
  let cache_entries =
    Arg.(value & opt int 64 & info [ "cache-entries" ] ~docv:"K"
           ~doc:"Capacity of the prepared-artifact LRU cache.")
  in
  let corpora =
    let corpus_conv =
      let parse s =
        match String.index_opt s '=' with
        | Some i -> (
          let name = String.sub s 0 i
          and id = String.sub s (i + 1) (String.length s - i - 1) in
          match Dataset.find id with
          | Some d when name <> "" -> Ok (name, d)
          | Some _ -> Error (`Msg "empty corpus name")
          | None -> Error (`Msg (Printf.sprintf "unknown dataset %S (D1..D10)" id)))
        | None -> Error (`Msg "expected NAME=DATASET")
      in
      Arg.conv (parse, fun fmt (n, (d : Dataset.t)) -> Format.fprintf fmt "%s=%s" n d.id)
    in
    Arg.(value & opt_all corpus_conv [] & info [ "corpus" ] ~docv:"NAME=DATASET"
           ~doc:"Register a corpus from a Table II dataset at startup (repeatable); more \
                 can be registered later via the $(b,register) request.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the long-lived query service: line-delimited JSON requests over a Unix \
             domain socket and/or TCP (or stdio), serving many connections \
             concurrently over one bounded dispatch queue and the warm domain pool, \
             with a per-corpus LRU cache of prepared artifacts so repeated queries \
             skip matching, ranking and block-tree construction. See DESIGN.md \
             sections 10 and 13 for the protocol and the connection model.")
    Term.(const run $ socket $ tcp $ stdio $ max_queue $ jobs_arg $ cache_entries
          $ corpora $ seed_arg)

(* ------------------------------- client --------------------------- *)

(* The server `client`, `update` and `loadgen` talk to: exactly one of
   --socket/--tcp, or [None], which each command reports (with
   [endpoint_or_exit]) after checking its own arguments. *)
let endpoint_arg =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix domain socket of a running $(b,uxsm serve).")
  in
  let tcp =
    Arg.(value & opt (some tcp_conv) None & info [ "tcp" ] ~docv:"[HOST:]PORT"
           ~doc:"TCP endpoint of a running $(b,uxsm serve) (default host 127.0.0.1; \
                 alternative to $(b,--socket)).")
  in
  let endpoint socket tcp =
    match (socket, tcp) with
    | Some path, None -> Some (Client.Unix_socket path)
    | None, Some (host, port) -> Some (Client.Tcp (host, port))
    | _ -> None
  in
  Term.(const endpoint $ socket $ tcp)

let endpoint_or_exit usage = function
  | Some endpoint -> endpoint
  | None ->
    prerr_endline usage;
    exit 2

(* Send [requests] and print one reply line per request. Returns the
   number of error replies, or [None] when the exchange broke off. A
   failed connect exits 1. *)
let exchange ~cmd endpoint requests =
  let module Json = Uxsm_util.Json in
  let conn =
    match Client.connect endpoint with
    | Ok conn -> conn
    | Error e ->
      prerr_endline e;
      exit 1
  in
  let broken msg =
    Printf.eprintf "%s: %s\n" cmd msg;
    None
  in
  let rec replies failures = function
    | [] -> Some failures
    | _ :: rest -> (
      match Client.recv conn with
      | Client.Line reply ->
        print_endline reply;
        let ok =
          match Json.of_string reply with
          | Ok j -> Json.member "ok" j = Some (Json.Bool true)
          | Error _ -> false
        in
        replies (if ok then failures else failures + 1) rest
      | Client.Closed | Client.Timeout -> broken "server closed the connection early"
      | Client.Failed e -> broken e)
  in
  let result =
    match Client.send conn requests with
    | Ok () -> replies 0 requests
    | Error e -> broken e
  in
  Client.close conn;
  result

let client_cmd =
  let run endpoint requests =
    let requests =
      match requests with
      | [ "-" ] ->
        let rec slurp acc =
          match input_line stdin with
          | line -> slurp (if String.trim line = "" then acc else line :: acc)
          | exception End_of_file -> List.rev acc
        in
        slurp []
      | rs -> rs
    in
    if requests = [] then begin
      prerr_endline "client: no requests";
      exit 2
    end;
    let endpoint =
      endpoint_or_exit "client: need exactly one of --socket PATH or --tcp HOST:PORT" endpoint
    in
    match exchange ~cmd:"client" endpoint requests with
    | None -> exit 1
    | Some 0 -> ()
    | Some _ -> exit 3
  in
  let requests =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"REQUEST"
           ~doc:"JSON request objects, one per argument (or a single $(b,-) to read one \
                 request per stdin line).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send requests to a running $(b,uxsm serve) and print one JSON reply per \
             line. Exits non-zero if any reply is an error.")
    Term.(const run $ endpoint_arg $ requests)

(* ------------------------------- update --------------------------- *)

let update_cmd =
  let run endpoint corpus set remove add_source add_target =
    let delta =
      {
        Matching.set_scores = set;
        remove_corrs = remove;
        add_source;
        add_target;
      }
    in
    if Matching.delta_is_empty delta then begin
      prerr_endline
        "update: need at least one of --set, --remove, --add-source, --add-target";
      exit 2
    end;
    let endpoint =
      endpoint_or_exit "update: need exactly one of --socket PATH or --tcp HOST:PORT" endpoint
    in
    let req = Protocol.to_json { Protocol.id = None; req = Protocol.Update { corpus; delta } } in
    match exchange ~cmd:"update" endpoint [ Uxsm_util.Json.to_string req ] with
    | Some 0 -> ()
    | Some _ | None -> exit 3
  in
  let corpus =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CORPUS"
           ~doc:"Name of the registered corpus to update.")
  in
  let set_conv =
    let parse s =
      match String.split_on_char '=' s with
      | [ src; tgt; score ] when src <> "" && tgt <> "" -> (
        match float_of_string_opt score with
        | Some w -> Ok (src, tgt, w)
        | None -> Error (`Msg (Printf.sprintf "bad score %S" score)))
      | _ -> Error (`Msg "expected SOURCE=TARGET=SCORE")
    in
    Arg.conv (parse, fun fmt (s, t, w) -> Format.fprintf fmt "%s=%s=%g" s t w)
  in
  let pair_conv what =
    let parse s =
      match String.split_on_char '=' s with
      | [ a; b ] when a <> "" && b <> "" -> Ok (a, b)
      | _ -> Error (`Msg (Printf.sprintf "expected %s" what))
    in
    Arg.conv (parse, fun fmt (a, b) -> Format.fprintf fmt "%s=%s" a b)
  in
  let set =
    Arg.(value & opt_all set_conv [] & info [ "set" ] ~docv:"SRC=TGT=SCORE"
           ~doc:"Re-score (or add) the correspondence between the '.'-joined source \
                 path $(i,SRC) and target path $(i,TGT); score in (0, 1]. Repeatable.")
  in
  let remove =
    Arg.(value & opt_all (pair_conv "SOURCE=TARGET") [] & info [ "remove" ]
           ~docv:"SRC=TGT" ~doc:"Remove an existing correspondence. Repeatable.")
  in
  let add_source =
    Arg.(value & opt_all (pair_conv "PARENT=NAME") [] & info [ "add-source" ]
           ~docv:"PARENT=NAME"
           ~doc:"Append an element named $(i,NAME) under the source-schema element at \
                 path $(i,PARENT) (append-only: the parent must lie on the rightmost \
                 root-to-leaf spine). Repeatable.")
  in
  let add_target =
    Arg.(value & opt_all (pair_conv "PARENT=NAME") [] & info [ "add-target" ]
           ~docv:"PARENT=NAME"
           ~doc:"Append an element to the target schema (same rules as \
                 $(b,--add-source)). Repeatable.")
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Apply an incremental delta to a corpus on a running $(b,uxsm serve): \
             re-score, add or remove correspondences, or append schema elements. The \
             server re-ranks each cached mapping set from its cached components \
             instead of rebuilding the corpus, and builds a block tree again only \
             when a plan reads one. Prints the server's JSON reply; exits non-zero \
             on error.")
    Term.(const run $ endpoint_arg $ corpus $ set $ remove $ add_source $ add_target)

(* ------------------------------ loadgen --------------------------- *)

let loadgen_cmd =
  let run profile endpoint json_out seed duration clients quiet =
    match Loadgen.Profile.load profile with
    | Error e ->
      Printf.eprintf "%s: %s\n" profile e;
      exit 2
    | Ok p ->
      (* Command-line overrides keep one committed profile reusable for
         quick variations (a different seed, a shorter smoke window). *)
      let p = match seed with None -> p | Some s -> { p with Loadgen.Profile.p_seed = s } in
      let p =
        match duration with
        | None -> p
        | Some d when d > 0.0 -> { p with Loadgen.Profile.p_duration_s = d }
        | Some _ ->
          prerr_endline "loadgen: --duration must be positive";
          exit 2
      in
      let p =
        match clients with
        | None -> p
        | Some n when n >= 1 ->
          {
            p with
            Loadgen.Profile.p_arrival =
              (match p.Loadgen.Profile.p_arrival with
              | Loadgen.Profile.Closed _ -> Loadgen.Profile.Closed { clients = n }
              | Loadgen.Profile.Open o -> Loadgen.Profile.Open { o with clients = n });
          }
        | Some _ ->
          prerr_endline "loadgen: --clients must be >= 1";
          exit 2
      in
      let log = if quiet then fun _ -> () else prerr_endline in
      let endpoint =
        endpoint_or_exit "loadgen: need exactly one of --socket PATH or --tcp [HOST:]PORT"
          endpoint
      in
      (match Loadgen.Runner.run ~log p endpoint with
      | Error e ->
        Printf.eprintf "loadgen: %s\n" e;
        exit 1
      | Ok lg ->
        List.iter print_endline (Loadgen.Runner.summary_lines lg);
        (match json_out with
        | None -> ()
        | Some path ->
          let run = Loadgen.Runner.record ~argv:(List.tl (Array.to_list Sys.argv)) lg in
          Uxsm_obs.Bench_json.append_to_file ~path run;
          Printf.printf "appended loadgen record to %s\n" path))
  in
  let profile =
    Arg.(required & opt (some string) None & info [ "profile" ] ~docv:"FILE.json"
           ~doc:"Workload profile (see bench/profiles/ for committed examples and \
                 DESIGN.md section 14 for the schema).")
  in
  let json_out =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Append the run record (kind \"loadgen\") to FILE; $(b,uxsm ab) and \
                 bench/validate.exe read these.")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N"
           ~doc:"Override the profile's sampler seed.")
  in
  let duration =
    Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Override the profile's measurement-window length.")
  in
  let clients =
    Arg.(value & opt (some int) None & info [ "clients" ] ~docv:"N"
           ~doc:"Override the profile's client-connection count.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress phase progress on stderr.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Replay a workload profile against a running $(b,uxsm serve): seeded \
             deterministic request sampling (zipfian corpus popularity, weighted query \
             templates), closed- or open-loop arrivals, warmup then a stats_reset \
             measurement window, client-side latency histograms. Prints a summary and \
             optionally appends a \"loadgen\" record to a BENCH_*.json trajectory.")
    Term.(const run $ profile $ endpoint_arg $ json_out $ seed $ duration $ clients $ quiet)

(* -------------------------------- ab ------------------------------ *)

let ab_cmd =
  let run file_a file_b tolerance profile =
    let pick label path =
      let runs =
        match open_in path with
        | exception Sys_error e ->
          Printf.eprintf "ab: %s\n" e;
          exit 2
        | ic ->
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          (match Uxsm_obs.Bench_json.runs_of_lines s with
          | Ok runs -> runs
          | Error e ->
            Printf.eprintf "ab: %s: %s\n" path e;
            exit 2)
      in
      match Loadgen.Ab.pick ?profile runs with
      | Ok lg -> lg
      | Error e ->
        Printf.eprintf "ab: %s (%s): %s\n" path label e;
        exit 2
    in
    let a = pick "baseline" file_a in
    let b = pick "candidate" file_b in
    match Loadgen.Ab.compare_loadgen ~tolerance a b with
    | Error e ->
      Printf.eprintf "ab: %s\n" e;
      exit 2
    | Ok report ->
      List.iter print_endline (Loadgen.Ab.report_lines report);
      if Loadgen.Ab.regressed report then begin
        prerr_endline "ab: REGRESSION beyond tolerance";
        exit 1
      end
  in
  let file_a =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE.json"
           ~doc:"Trajectory file holding the baseline loadgen record (the last \
                 matching record is used).")
  in
  let file_b =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CANDIDATE.json"
           ~doc:"Trajectory file holding the candidate loadgen record.")
  in
  let tolerance =
    Arg.(value & opt float 0.10 & info [ "tolerance" ] ~docv:"FRACTION"
           ~doc:"Noise tolerance as a fraction (0.10 = 10%). Throughput may drop and \
                 latency quantiles may rise by up to this much without tripping the \
                 gate; the error rate may grow by this fraction of requests.")
  in
  let profile =
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"ID"
           ~doc:"Only compare records of this profile id (default: the last loadgen \
                 record in each file, whatever its profile).")
  in
  Cmd.v
    (Cmd.info "ab"
       ~doc:"Compare two loadgen records (same profile) and exit non-zero when the \
             candidate regresses beyond the tolerance: lower achieved throughput, \
             higher p50/p95/p99 latency, or a higher error rate. CI runs this as a \
             smoke gate.")
    Term.(const run $ file_a $ file_b $ tolerance $ profile)

let () =
  let info =
    Cmd.info "uxsm" ~version:"1.0.0"
      ~doc:"Managing uncertainty of XML schema matching (ICDE 2010 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ schema_cmd; datasets_cmd; match_cmd; mappings_cmd; blocktree_cmd; query_cmd; stats_cmd; keyword_cmd; analyze_cmd; xsd_match_cmd; doc_cmd; serve_cmd; client_cmd; update_cmd; loadgen_cmd; ab_cmd ]))
