(* In-process replay of one perfbench request sequence against a fresh
   Catalog, with a span around every layer call.

   Usage: perf_trace.exe OUTPUT.jsonl < COMMANDS

   The commands carry the exact request lines the end-to-end run sent to
   `uxsm serve`. Each line is parsed with
   Protocol.parse_line and answered by calling the layers the server's
   dispatch would call, in the order parse -> (matcher -> register) ->
   mapping_set -> prepared -> plan -> execute / update / o-ratio, so that
   every artifact build lands in the span of its own layer. The reply
   fields are the ones the server puts on the wire, so the benchmark can
   compare the two replies request by request.

   OUTPUT is JSON Lines: per request, the reply fields, the deltas of every
   Obs counter and program span across the request and GC deltas; then one
   last line with the benchmark's own spans (name, start, end, parent,
   request index), which are kept in memory and written once at the end. *)

module Json = Uxsm_util.Json
module Timing = Uxsm_util.Timing
module Obs = Uxsm_obs.Obs
module Executor = Uxsm_exec.Executor
module Protocol = Uxsm_server.Protocol
module Catalog = Uxsm_server.Catalog
module Dataset = Uxsm_workload.Dataset
module Schema = Uxsm_schema.Schema
module Doc = Uxsm_xml.Doc
module Matching = Uxsm_mapping.Matching
module Mapping = Uxsm_mapping.Mapping
module Mapping_set = Uxsm_mapping.Mapping_set
module Plan = Uxsm_plan.Plan
module Ptq = Uxsm_ptq.Ptq

exception Replay_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Replay_error s)) fmt

(* ------------------------------ spans ------------------------------ *)

type span = {
  sp_id : int;
  sp_req : int;
  sp_name : string;
  sp_parent : int;  (** -1 for a request's root span *)
  mutable sp_start : int;  (** ns, CLOCK_MONOTONIC *)
  mutable sp_end : int;
  mutable sp_words : float;  (** minor-heap words allocated inside the span *)
}

let spans : span list ref = ref []
let next_id = ref 0
let now_ns () = Int64.to_int (Int64.of_float (Timing.now_mono () *. 1e9))

let open_span ~req ~parent name =
  let s =
    { sp_id = !next_id; sp_req = req; sp_name = name; sp_parent = parent; sp_start = 0;
      sp_end = 0; sp_words = Gc.minor_words () }
  in
  incr next_id;
  spans := s :: !spans;
  s.sp_start <- now_ns ();
  s

let close_span s =
  s.sp_end <- now_ns ();
  s.sp_words <- Gc.minor_words () -. s.sp_words

let timed ~req ~parent name f =
  let s = open_span ~req ~parent name in
  Fun.protect ~finally:(fun () -> close_span s) f

let span_json s =
  Json.List
    [ Json.Int s.sp_id; Json.Int s.sp_req; Json.String s.sp_name; Json.Int s.sp_parent;
      Json.Int s.sp_start; Json.Int s.sp_end; Json.Float s.sp_words ]

(* ------------------------------ replay ----------------------------- *)

let ok = function
  | Ok v -> v
  | Error msg -> fail "%s" msg

let consolidated_json answers =
  Json.List
    (List.map
       (fun (bindings, p) ->
         Json.Assoc
           [ ("probability", Json.Float p); ("matches", Json.Int (List.length bindings)) ])
       (Ptq.consolidate answers))

(* The catalog counts a hit or a miss on every artifact lookup, including
   the nested ones a build makes. Calling mapping_set and prepared ahead of
   plan re-looks-up what they just built, so each such pre-call adds
   exactly one hit that the server's single plan call does not make; the
   count is reported so the server's window counters can be predicted. *)
let extra_hits = ref 0

let cached cat key = List.mem key (Catalog.cache_keys cat)

let query_fields cat ~req ~root ~corpus ~pattern ~h ~tau ~k ~evaluator =
  let plan_key =
    Catalog.K_plan
      { Catalog.pk_corpus = corpus; pk_pattern = pattern; pk_h = h; pk_tau = tau; pk_k = k;
        pk_force = evaluator }
  in
  let plan_hit = cached cat plan_key in
  if not plan_hit then begin
    if not (cached cat (Catalog.K_tree (corpus, h, tau))) then begin
      if not (cached cat (Catalog.K_mset (corpus, h))) then begin
        ignore
          (ok (timed ~req ~parent:root "assignment.top_h" (fun () ->
                   Catalog.mapping_set cat corpus ~h)));
        incr extra_hits
      end;
      ignore
        (ok (timed ~req ~parent:root "blocktree.build" (fun () ->
                 Catalog.prepared cat corpus ~h ~tau)));
      incr extra_hits
    end
  end;
  let plan =
    ok
      (timed ~req ~parent:root (if plan_hit then "catalog.lookup" else "ptq.compile")
         (fun () -> Catalog.plan cat corpus ~pattern ~h ~tau ~k ~force:evaluator))
  in
  let answers = timed ~req ~parent:root "ptq.execute" (fun () -> Ptq.execute plan) in
  [ ("corpus", Json.String corpus); ("query", Json.String pattern); ("h", Json.Int h);
    ("tau", Json.Float tau) ]
  @ (match k with None -> [] | Some k -> [ ("k", Json.Int k) ])
  @ [
      ("evaluator", Json.String (Plan.evaluator_wire (Ptq.physical plan).Plan.evaluator));
      ("relevant", Json.Int (List.length answers));
      ("answers", consolidated_json answers);
    ]

let dispatch cat ~exec ~req ~root (r : Protocol.request) =
  match r with
  | Protocol.Register { name; spec; doc_seed; doc_nodes } ->
    (match spec with
    | Protocol.From_dataset (d, seed) ->
      ignore (timed ~req ~parent:root "matcher.match" (fun () -> Dataset.matching ~seed ~exec d))
    | Protocol.From_matching_text _ | Protocol.From_mapping_set_text _ -> ());
    let m, d =
      ok
        (timed ~req ~parent:root "catalog.register" (fun () ->
             Catalog.register cat ~name ~doc_seed ?doc_nodes spec))
    in
    [ ("corpus", Json.String name);
      ("source_elements", Json.Int (Schema.size (Matching.source m)));
      ("target_elements", Json.Int (Schema.size (Matching.target m)));
      ("capacity", Json.Int (Matching.capacity m)); ("doc_nodes", Json.Int (Doc.size d)) ]
  | Protocol.Match { corpus } ->
    let m = ok (timed ~req ~parent:root "catalog.matching" (fun () -> Catalog.matching cat corpus)) in
    let source = Matching.source m and target = Matching.target m in
    [ ("corpus", Json.String corpus); ("capacity", Json.Int (Matching.capacity m));
      ( "correspondences",
        Json.List
          (List.map
             (fun (c : Matching.corr) ->
               Json.Assoc
                 [ ("score", Json.Float c.score);
                   ("source", Json.String (Schema.path_string source c.source));
                   ("target", Json.String (Schema.path_string target c.target)) ])
             (Matching.correspondences m)) ) ]
  | Protocol.Mappings { corpus; h } ->
    let name =
      if cached cat (Catalog.K_mset (corpus, h)) then "catalog.mset_lookup" else "assignment.top_h"
    in
    let mset = ok (timed ~req ~parent:root name (fun () -> Catalog.mapping_set cat corpus ~h)) in
    let o_ratio =
      timed ~req ~parent:root "mapping.o_ratio" (fun () -> Mapping_set.average_o_ratio mset)
    in
    [ ("corpus", Json.String corpus); ("h", Json.Int h);
      ("count", Json.Int (Mapping_set.size mset)); ("o_ratio", Json.Float o_ratio);
      ( "mappings",
        Json.List
          (List.map
             (fun (m, p) ->
               Json.Assoc
                 [ ("probability", Json.Float p); ("score", Json.Float (Mapping.score m));
                   ("size", Json.Int (Mapping.size m)) ])
             (Mapping_set.mappings mset)) ) ]
  | Protocol.Query { corpus; pattern; h; tau; k; evaluator } ->
    query_fields cat ~req ~root ~corpus ~pattern ~h ~tau ~k ~evaluator
  | Protocol.Update { corpus; delta } ->
    let st =
      ok (timed ~req ~parent:root "catalog.update" (fun () -> Catalog.update cat ~name:corpus delta))
    in
    [ ("corpus", Json.String corpus); ("capacity", Json.Int st.Catalog.u_capacity);
      ("source_elements", Json.Int st.Catalog.u_source_elements);
      ("target_elements", Json.Int st.Catalog.u_target_elements);
      ("msets_patched", Json.Int st.Catalog.u_msets_patched);
      ("trees_patched", Json.Int st.Catalog.u_trees_patched);
      ("plans_invalidated", Json.Int st.Catalog.u_plans_invalidated);
      ("doc_rebuilt", Json.Bool st.Catalog.u_doc_rebuilt) ]
  | r -> fail "op %S is not replayed" (Protocol.op_name r)

(* Deltas of the program's own Obs counters and spans across one request;
   only the entries that moved are kept. *)
let counter_delta before after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt name before) in
      if v <> v0 then Some (name, Json.Int (v - v0)) else None)
    after

let span_delta before after =
  List.filter_map
    (fun (name, (n, s)) ->
      let n0, s0 = Option.value ~default:(0, 0.0) (List.assoc_opt name before) in
      if n <> n0 then Some (name, Json.List [ Json.Int (n - n0); Json.Float (s -. s0) ])
      else None)
    after

let replay_one cat ~exec ~phase ~req line =
  let c0 = Obs.counters () and s0 = Obs.spans () in
  let g0 = Gc.quick_stat () in
  let hits0 = !extra_hits in
  let root = open_span ~req ~parent:(-1) "request" in
  let env =
    match timed ~req ~parent:root.sp_id "protocol.parse" (fun () -> Protocol.parse_line line) with
    | Error e -> fail "request %d: %s" req e.Protocol.message
    | Ok env -> env
  in
  let fields = dispatch cat ~exec ~req ~root:root.sp_id env.Protocol.req in
  close_span root;
  let g1 = Gc.quick_stat () in
  let c1 = Obs.counters () and s1 = Obs.spans () in
  Json.Assoc
    [ ("i", Json.Int req); ("phase", Json.String phase);
      ("op", Json.String (Protocol.op_name env.Protocol.req)); ("reply", Json.Assoc fields);
      ("counters", Json.Assoc (counter_delta c0 c1)); ("spans", Json.Assoc (span_delta s0 s1));
      ("extra_hits", Json.Int (!extra_hits - hits0));
      ( "gc",
        Json.Assoc
          [ ("minor_words", Json.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
            ("minor_collections", Json.Int (g1.Gc.minor_collections - g0.Gc.minor_collections));
            ("major_collections", Json.Int (g1.Gc.major_collections - g0.Gc.major_collections))
          ] ) ]

let strings_of j field =
  match Json.member field j with
  | Some (Json.List l) ->
    List.map (function Json.String s -> s | _ -> fail "%s: expected strings" field) l
  | _ -> fail "command: missing array %S" field

(* Commands arrive one per stdin line, {"phase": "setup"|"window",
   "lines": [...]}, so the benchmark can interleave chunks of the replay
   with chunks of its end-to-end window; each is acknowledged with "done".
   End of input writes the spans line and closes the output. *)
let () =
  let output =
    match Sys.argv with
    | [| _; output |] -> output
    | _ ->
      prerr_endline "usage: perf_trace.exe OUTPUT.jsonl < COMMANDS";
      exit 2
  in
  let exec = Executor.sequential in
  let cat = Catalog.create ~exec () in
  (* Each request's record is written as soon as it is answered, so the
     replay's heap holds no more than the server's does. *)
  let oc = open_out_bin output in
  let next_req = ref 0 in
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some cmd ->
      let j = match Json.of_string cmd with Ok j -> j | Error e -> fail "command: %s" e in
      let phase =
        match Json.member "phase" j with
        | Some (Json.String ("setup" | "window" as p)) -> p
        | _ -> fail "command: phase must be \"setup\" or \"window\""
      in
      List.iter
        (fun line ->
          output_string oc (Json.to_string (replay_one cat ~exec ~phase ~req:!next_req line));
          output_char oc '\n';
          incr next_req)
        (strings_of j "lines");
      print_endline "done";
      loop ()
  in
  loop ();
  output_string oc (Json.to_string (Json.Assoc [ ("spans", Json.List (List.rev_map span_json !spans)) ]));
  output_char oc '\n';
  close_out oc
