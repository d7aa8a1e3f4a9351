(* Server subsystem tests: the LRU cache as a standalone structure, the
   wire protocol codecs, dispatch against an in-process server (no
   transport), batching through the executor, and the end-to-end
   amortization property the subsystem exists for — the second identical
   query is served from the prepared-artifact cache, and a block tree is
   built once, when a forced Algorithm 4 plan first reads it. *)

module Json = Uxsm_util.Json
module Locks = Uxsm_util.Locks
module Executor = Uxsm_exec.Executor
module Obs = Uxsm_obs.Obs
module Serialize = Uxsm_mapping.Serialize
module Mapping_set = Uxsm_mapping.Mapping_set
module Plan = Uxsm_plan.Plan
module Lru = Uxsm_server.Lru
module Protocol = Uxsm_server.Protocol
module Catalog = Uxsm_server.Catalog
module Server = Uxsm_server.Server
module Client = Uxsm_server.Client

(* ------------------------------- LRU ------------------------------ *)

let test_lru_capacity_bounds () =
  (match Lru.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected");
  let c = Lru.create ~capacity:3 in
  Alcotest.(check int) "capacity recorded" 3 (Lru.capacity c);
  for i = 1 to 10 do
    Lru.put c i (i * i)
  done;
  Alcotest.(check int) "population bounded" 3 (Lru.length c);
  Alcotest.(check (list int)) "newest three survive, MRU first" [ 10; 9; 8 ] (Lru.keys c);
  Alcotest.(check int) "seven evictions" 7 (Lru.stats c).Lru.evictions

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:3 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "c" 3;
  (* Touch "a": it becomes MRU, so the next eviction takes "b". *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find c "a");
  Lru.put c "d" 4;
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check (list string)) "recency order" [ "d"; "a"; "c" ] (Lru.keys c);
  (* Replacing a key promotes it without growing the population. *)
  Lru.put c "c" 33;
  Alcotest.(check (list string)) "replace promotes" [ "c"; "d"; "a" ] (Lru.keys c);
  Alcotest.(check int) "no growth on replace" 3 (Lru.length c);
  Alcotest.(check (option int)) "replaced value visible" (Some 33) (Lru.find c "c");
  (* remove is not an eviction. *)
  let evs = (Lru.stats c).Lru.evictions in
  Lru.remove c "d";
  Alcotest.(check int) "removed" 2 (Lru.length c);
  Alcotest.(check int) "remove not counted" evs (Lru.stats c).Lru.evictions

(* Regression for the counter-atomicity contract: the structure is
   single-owner (one lock per catalog shard), but [Lru.stats] is read
   lock-free by the stats endpoint while the owner mutates. The counters
   must stay exact and monotone under that race. *)
let test_lru_concurrent_stats () =
  let c = Lru.create ~capacity:8 in
  let lock = Locks.create ~name:"test.lru.owner" ~rank:Locks.rank_latch in
  let ops = 5_000 in
  let n_workers = 4 in
  let worker seed () =
    for i = 1 to ops do
      let k = (i * 7 + seed) mod 32 in
      Locks.lock lock;
      (match Lru.find c k with
      | None -> Lru.put c k (k * k)
      | Some _ -> ());
      Locks.unlock lock
    done
  in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let observer =
    Domain.spawn (fun () ->
        let last = ref Lru.zero_stats in
        while not (Atomic.get stop) do
          let s = Lru.stats c in
          if
            s.Lru.hits < !last.Lru.hits
            || s.Lru.misses < !last.Lru.misses
            || s.Lru.evictions < !last.Lru.evictions
          then Atomic.incr violations;
          last := s
        done)
  in
  let workers = List.init n_workers (fun s -> Domain.spawn (worker s)) in
  List.iter Domain.join workers;
  Atomic.set stop true;
  Domain.join observer;
  Alcotest.(check int) "lock-free reads never saw counters go backwards" 0
    (Atomic.get violations);
  let s = Lru.stats c in
  Alcotest.(check int) "every find accounted exactly once" (n_workers * ops)
    (s.Lru.hits + s.Lru.misses);
  (* Aggregation across shards is plain addition. *)
  let doubled = Lru.add_stats s s in
  Alcotest.(check int) "add_stats sums" (2 * (s.Lru.hits + s.Lru.misses))
    (doubled.Lru.hits + doubled.Lru.misses);
  Alcotest.(check int) "zero_stats is the identity" s.Lru.hits
    (Lru.add_stats Lru.zero_stats s).Lru.hits

let test_lru_counters () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check (option int)) "miss on empty" None (Lru.find c 1);
  Lru.put c 1 10;
  ignore (Lru.find c 1);
  ignore (Lru.find c 1);
  ignore (Lru.find c 2);
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 2 s.Lru.hits;
  Alcotest.(check int) "misses" 2 s.Lru.misses;
  Alcotest.(check bool) "mem is silent" true (Lru.mem c 1 && not (Lru.mem c 2));
  Alcotest.(check int) "mem did not count" 2 (Lru.stats c).Lru.hits;
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check int) "counters survive clear" 2 (Lru.stats c).Lru.hits

(* ----------------------------- protocol --------------------------- *)

let parse_ok line =
  match Protocol.parse_line line with
  | Ok env -> env
  | Error e -> Alcotest.failf "unexpected parse error on %s: %s" line e.Protocol.message

let parse_err line =
  match Protocol.parse_line line with
  | Ok _ -> Alcotest.failf "expected a parse error on %s" line
  | Error e -> e.Protocol.message

let contains ~needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_protocol_parse () =
  let env = parse_ok {|{"op":"ping","id":7}|} in
  Alcotest.(check string) "op" "ping" (Protocol.op_name env.Protocol.req);
  Alcotest.(check bool) "id echoed" true (env.Protocol.id = Some (Json.Int 7));
  (match (parse_ok {|{"op":"query","corpus":"c","query":"a/b"}|}).Protocol.req with
  | Protocol.Query { corpus; pattern; h; tau; k; evaluator } ->
    Alcotest.(check string) "corpus" "c" corpus;
    Alcotest.(check string) "pattern" "a/b" pattern;
    Alcotest.(check int) "default h" Protocol.default_h h;
    Alcotest.(check (float 0.0)) "default tau" Protocol.default_tau tau;
    Alcotest.(check bool) "no k" true (k = None);
    Alcotest.(check string) "default evaluator" "auto" (Plan.force_to_string evaluator)
  | _ -> Alcotest.fail "expected Query");
  (match (parse_ok {|{"op":"query_topk","corpus":"c","query":"a","k":3,"h":7,"tau":0.5}|}).Protocol.req with
  | Protocol.Query { h = 7; tau = 0.5; k = Some 3; _ } -> ()
  | _ -> Alcotest.fail "expected parameterized Query");
  (match (parse_ok {|{"op":"register","name":"d","dataset":"D1","seed":9}|}).Protocol.req with
  | Protocol.Register { name = "d"; spec = Protocol.From_dataset (d, 9); _ } ->
    Alcotest.(check string) "dataset resolved" "D1" d.Uxsm_workload.Dataset.id
  | _ -> Alcotest.fail "expected Register from dataset");
  (* Pure/barrier classification drives batching. *)
  Alcotest.(check bool) "query is pure" true
    (Protocol.is_pure (parse_ok {|{"op":"stats"}|}).Protocol.req);
  Alcotest.(check bool) "register is a barrier" false
    (Protocol.is_pure (parse_ok {|{"op":"register","name":"x","dataset":"D1"}|}).Protocol.req);
  Alcotest.(check bool) "shutdown is a barrier" false
    (Protocol.is_pure (parse_ok {|{"op":"shutdown"}|}).Protocol.req);
  Alcotest.(check bool) "explain is a barrier" false
    (Protocol.is_pure (parse_ok {|{"op":"explain","corpus":"c","query":"a"}|}).Protocol.req)

let test_protocol_errors () =
  Alcotest.(check bool) "names missing field" true
    (contains ~needle:{|"corpus"|} (parse_err {|{"op":"match"}|}));
  Alcotest.(check bool) "names unknown op" true
    (contains ~needle:"unknown op" (parse_err {|{"op":"frobnicate"}|}));
  Alcotest.(check bool) "rejects non-objects" true
    (contains ~needle:"not a JSON object" (parse_err {|[1,2]|}));
  Alcotest.(check bool) "rejects bad JSON" true
    (contains ~needle:"malformed JSON" (parse_err "{"));
  Alcotest.(check bool) "rejects bad tau" true
    (contains ~needle:"tau" (parse_err {|{"op":"query","corpus":"c","query":"a","tau":1.5}|}));
  Alcotest.(check bool) "rejects unknown dataset" true
    (contains ~needle:"unknown dataset"
       (parse_err {|{"op":"register","name":"x","dataset":"D99"}|}));
  Alcotest.(check bool) "rejects missing k" true
    (contains ~needle:{|"k"|} (parse_err {|{"op":"query_topk","corpus":"c","query":"a"}|}))

let test_protocol_round_trip () =
  List.iter
    (fun line ->
      let env = parse_ok line in
      let env' =
        match Protocol.parse (Protocol.to_json env) with
        | Ok e -> e
        | Error e -> Alcotest.failf "re-parse failed: %s" e.Protocol.message
      in
      Alcotest.(check string) "op survives" (Protocol.op_name env.Protocol.req)
        (Protocol.op_name env'.Protocol.req);
      Alcotest.(check bool) "request survives" true (env.Protocol.req = env'.Protocol.req);
      Alcotest.(check bool) "id survives" true (env.Protocol.id = env'.Protocol.id))
    [
      {|{"op":"ping"}|};
      {|{"op":"register","name":"x","dataset":"D2","seed":3,"doc_nodes":50,"id":"r1"}|};
      {|{"op":"match","corpus":"x"}|};
      {|{"op":"mappings","corpus":"x","h":12}|};
      {|{"op":"query","corpus":"x","query":"a//b","h":5,"tau":0.3,"id":[1,2]}|};
      {|{"op":"query_topk","corpus":"x","query":"a","k":2}|};
      {|{"op":"query","corpus":"x","query":"a","k":4,"evaluator":"tree"}|};
      {|{"op":"explain","corpus":"x","query":"a/b"}|};
      {|{"op":"explain","corpus":"x","query":"a/b","h":7,"k":3,"evaluator":"basic"}|};
      {|{"op":"save","corpus":"x","h":9}|};
      {|{"op":"save","corpus":"x","h":9,"path":"ignored"}|};
      {|{"op":"stats"}|};
      {|{"op":"shutdown","id":null}|};
    ]

(* --------------------- update codec (deltas) ----------------------- *)

module Matching = Uxsm_mapping.Matching
module Schema = Uxsm_schema.Schema

let test_protocol_update_parse () =
  (match
     (parse_ok
        {|{"op":"update","corpus":"c","set":[{"source":"a.b","target":"x.y","score":0.5}],"remove":[{"source":"a.c","target":"x.z"}],"add_source_elements":[{"parent":"a","name":"n"}],"add_target_elements":[{"parent":"x","name":"m"}]}|})
       .Protocol.req
   with
  | Protocol.Update { corpus = "c"; delta } ->
    Alcotest.(check bool) "set entry" true
      (delta.Matching.set_scores = [ ("a.b", "x.y", 0.5) ]);
    Alcotest.(check bool) "remove entry" true (delta.Matching.remove_corrs = [ ("a.c", "x.z") ]);
    Alcotest.(check bool) "source growth" true (delta.Matching.add_source = [ ("a", "n") ]);
    Alcotest.(check bool) "target growth" true (delta.Matching.add_target = [ ("x", "m") ])
  | _ -> Alcotest.fail "expected Update");
  (* Omitted arrays mean empty; a delta with nothing at all is an error. *)
  (match (parse_ok {|{"op":"update","corpus":"c","remove":[{"source":"a","target":"b"}]}|}).Protocol.req with
  | Protocol.Update { delta; _ } ->
    Alcotest.(check bool) "only remove populated" true
      (delta.Matching.set_scores = [] && delta.Matching.add_source = []
      && delta.Matching.add_target = [])
  | _ -> Alcotest.fail "expected Update");
  Alcotest.(check bool) "update is a barrier" false
    (Protocol.is_pure (parse_ok {|{"op":"update","corpus":"c","set":[{"source":"a","target":"b","score":0.1}]}|}).Protocol.req);
  (* Field-naming parse errors, same style as the other ops. *)
  Alcotest.(check bool) "empty delta named" true
    (contains ~needle:{|need at least one of "set"|}
       (parse_err {|{"op":"update","corpus":"c"}|}));
  Alcotest.(check bool) "missing score named" true
    (contains ~needle:{|field "set" entries: missing field "score"|}
       (parse_err {|{"op":"update","corpus":"c","set":[{"source":"a","target":"b"}]}|}));
  Alcotest.(check bool) "non-string source named" true
    (contains ~needle:{|field "remove" entries: field "source" is not a string|}
       (parse_err {|{"op":"update","corpus":"c","remove":[{"source":7,"target":"b"}]}|}));
  Alcotest.(check bool) "non-array set named" true
    (contains ~needle:{|field "set" is not an array|}
       (parse_err {|{"op":"update","corpus":"c","set":{"source":"a"}}|}));
  Alcotest.(check bool) "missing corpus named" true
    (contains ~needle:{|"corpus"|}
       (parse_err {|{"op":"update","set":[{"source":"a","target":"b","score":0.1}]}|}))

(* Random deltas encode and decode to the same request — including the
   empty-arrays-as-absence convention. *)
let gen_update_env =
  let open QCheck.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let path = map2 (fun a b -> a ^ "." ^ b) name name in
  let score = map (fun k -> float_of_int k /. 1000.0) (int_range 1 1000) in
  let* corpus = name in
  let* set = list_size (int_range 0 3) (triple path path score) in
  let* remove = list_size (int_range 0 3) (pair path path) in
  let* add_source = list_size (int_range 0 2) (pair path name) in
  let* add_target = list_size (int_range 0 2) (pair path name) in
  return
    {
      Protocol.id = None;
      req =
        Protocol.Update
          {
            corpus;
            delta = { Matching.set_scores = set; remove_corrs = remove; add_source; add_target };
          };
    }

let prop_update_round_trip =
  QCheck.Test.make ~count:300 ~name:"update codec: parse (to_json env) = env"
    (QCheck.make gen_update_env ~print:(fun env -> Json.to_string (Protocol.to_json env)))
    (fun env ->
      match env.Protocol.req with
      | Protocol.Update { delta; _ } when Matching.delta_is_empty delta ->
        true (* an empty delta does not encode to a parseable update; skip *)
      | req -> (
        match Protocol.parse (Protocol.to_json env) with
        | Error _ -> false
        | Ok env' -> env'.Protocol.req = req && env'.Protocol.id = None))

let test_overloaded_response_shape () =
  let r = Protocol.overloaded_response ~id:(Json.Int 9) () in
  (match (Json.member "ok" r, Json.member "error" r) with
  | Some (Json.Bool false), Some (Json.String e) ->
    Alcotest.(check bool) "error text says overloaded" true (contains ~needle:"overloaded" e)
  | _ -> Alcotest.failf "not an error response: %s" (Json.to_string r));
  Alcotest.(check bool) "id echoed" true (Json.member "id" r = Some (Json.Int 9));
  Alcotest.(check bool) "structurally recognizable" true (Protocol.is_overloaded_response r);
  Alcotest.(check bool) "plain errors are not overloads" false
    (Protocol.is_overloaded_response (Protocol.error_response "overloaded-looking text"));
  Alcotest.(check bool) "id is optional" true
    (Protocol.is_overloaded_response (Protocol.overloaded_response ()))

(* ------------------------- dispatch helpers ----------------------- *)

(* A small corpus registered from serialized mapping-set text: the paper's
   Figure 3 running example, which exercises the Serialize path of
   register. *)
let fig3_text = Serialize.mapping_set_to_string Fixtures.fig3_mset

let register_line name =
  Printf.sprintf {|{"op":"register","name":%s,"mapping_set":%s}|}
    (Json.to_string (Json.String name))
    (Json.to_string (Json.String fig3_text))

let response_of_line srv line =
  match Json.of_string (Server.handle_line srv line) with
  | Ok j -> j
  | Error e -> Alcotest.failf "response is not JSON: %s" e

let assert_ok what j =
  match Json.member "ok" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.failf "%s: expected ok response, got %s" what (Json.to_string j)

let assert_error what j =
  match (Json.member "ok" j, Json.member "error" j) with
  | Some (Json.Bool false), Some (Json.String _) -> ()
  | _ -> Alcotest.failf "%s: expected error response, got %s" what (Json.to_string j)

let int_member name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some v -> v
  | None -> Alcotest.failf "missing int field %S in %s" name (Json.to_string j)

let counter_value stats_resp name =
  match Option.bind (Json.member "counters" stats_resp) (Json.member name) with
  | Some (Json.Int v) -> v
  | _ -> 0

let test_dispatch_basic () =
  let srv = Server.create ~cache_entries:16 () in
  assert_ok "register" (response_of_line srv (register_line "fig3"));
  let ping = response_of_line srv {|{"op":"ping","id":"p1"}|} in
  assert_ok "ping" ping;
  Alcotest.(check bool) "ping echoes id" true (Json.member "id" ping = Some (Json.String "p1"));
  let m = response_of_line srv {|{"op":"match","corpus":"fig3"}|} in
  assert_ok "match" m;
  Alcotest.(check int) "fig1 capacity" 10 (int_member "capacity" m);
  let maps = response_of_line srv {|{"op":"mappings","corpus":"fig3","h":5}|} in
  assert_ok "mappings" maps;
  Alcotest.(check int) "five mappings" 5 (int_member "count" maps);
  let ex = response_of_line srv {|{"op":"explain","corpus":"fig3","query":"ORDER//ICN","h":5}|} in
  assert_ok "explain" ex;
  Alcotest.(check bool) "explain reports relevant mappings" true
    (int_member "relevant_mappings" ex > 0);
  (* save returns text the Serialize module can load back. *)
  let save = response_of_line srv {|{"op":"save","corpus":"fig3","h":5}|} in
  assert_ok "save" save;
  (match Option.bind (Json.member "text" save) Json.to_string_opt with
  | None -> Alcotest.fail "save carries no text"
  | Some text -> (
    match Serialize.mapping_set_of_string text with
    | Error e -> Alcotest.failf "saved text does not load: %s" e
    | Ok mset -> Alcotest.(check int) "saved set size" 5 (Mapping_set.size mset)))

(* stats_reset: zeroes the Obs window so a load generator can open a
   clean measurement window; it is a barrier (not pure), so in a
   pipelined batch everything sent before it is counted before the
   reset and everything after lands in the fresh window. *)
let test_stats_reset () =
  Obs.reset ();
  let srv = Server.create ~cache_entries:16 () in
  assert_ok "register" (response_of_line srv (register_line "rst"));
  for _ = 1 to 3 do
    assert_ok "ping" (response_of_line srv {|{"op":"ping"}|})
  done;
  assert_ok "mappings" (response_of_line srv {|{"op":"mappings","corpus":"rst","h":5}|});
  let before = response_of_line srv {|{"op":"stats"}|} in
  Alcotest.(check bool) "window populated before reset" true
    (counter_value before "server.requests" >= 5);
  let reset = response_of_line srv {|{"op":"stats_reset","id":"w0"}|} in
  assert_ok "stats_reset" reset;
  Alcotest.(check bool) "reset reply says so" true
    (Json.member "reset" reset = Some (Json.Bool true));
  Alcotest.(check bool) "reset echoes id" true
    (Json.member "id" reset = Some (Json.String "w0"));
  let after = response_of_line srv {|{"op":"stats"}|} in
  (* Only the reset itself and this stats request can be in the new
     window, however the wrapper orders its counting. *)
  Alcotest.(check bool) "window cleared" true (counter_value after "server.requests" <= 2);
  Alcotest.(check bool) "reset is a pipeline barrier" false
    (Protocol.is_pure Protocol.Stats_reset);
  (* The op round-trips through the codec like any other. *)
  match Protocol.parse_line {|{"op":"stats_reset"}|} with
  | Error e -> Alcotest.failf "stats_reset does not parse: %s" e.Protocol.message
  | Ok env ->
    Alcotest.(check string) "op name" "stats_reset" (Protocol.op_name env.Protocol.req);
    (match Protocol.parse (Protocol.to_json env) with
    | Ok env' ->
      Alcotest.(check bool) "codec round-trip" true (env'.Protocol.req = Protocol.Stats_reset)
    | Error e -> Alcotest.failf "stats_reset does not re-parse: %s" e.Protocol.message)

let test_dispatch_errors_never_crash () =
  let srv = Server.create () in
  assert_error "garbage" (response_of_line srv "this is not json");
  assert_error "non-object" (response_of_line srv "[1,2,3]");
  assert_error "unknown op" (response_of_line srv {|{"op":"nope"}|});
  assert_error "unknown corpus" (response_of_line srv {|{"op":"match","corpus":"ghost"}|});
  assert_error "bad register text"
    (response_of_line srv {|{"op":"register","name":"x","mapping_set":"garbage"}|});
  (* A failed registration must not create the corpus. *)
  assert_error "corpus not half-created" (response_of_line srv {|{"op":"match","corpus":"x"}|});
  assert_ok "register still works" (response_of_line srv (register_line "x"));
  assert_error "bad query pattern"
    (response_of_line srv {|{"op":"query","corpus":"x","query":"[[["}|});
  let id_err = response_of_line srv {|{"op":"match","id":42}|} in
  assert_error "missing corpus" id_err;
  Alcotest.(check bool) "error echoes id" true (Json.member "id" id_err = Some (Json.Int 42))

(* Request sizes past the protocol's bounds are parse errors naming the
   field, and the server answers the next request as usual. *)
let test_request_size_bounds () =
  ignore (parse_ok {|{"op":"mappings","corpus":"c","h":1000}|});
  ignore (parse_ok {|{"op":"query_topk","corpus":"c","query":"a","k":1000}|});
  ignore (parse_ok {|{"op":"register","name":"r","dataset":"D1","doc_nodes":100000}|});
  let srv = Server.create ~cache_entries:16 () in
  assert_ok "register" (response_of_line srv (register_line "fig3"));
  List.iter
    (fun (field, line) ->
      let r = response_of_line srv line in
      assert_error line r;
      (match Json.member "error" r with
      | Some (Json.String msg) ->
        Alcotest.(check bool) (line ^ ": error names the field") true
          (contains ~needle:(Printf.sprintf "field %S must be <=" field) msg)
      | _ -> ());
      assert_ok (line ^ ": next request served")
        (response_of_line srv {|{"op":"mappings","corpus":"fig3","h":5}|}))
    [
      ("h", {|{"op":"mappings","corpus":"fig3","h":100000000}|});
      ("h", {|{"op":"query","corpus":"fig3","query":"ORDER//ICN","h":1001}|});
      ("k", {|{"op":"query_topk","corpus":"fig3","query":"ORDER//ICN","k":1001}|});
      ("doc_nodes", {|{"op":"register","name":"big","dataset":"D1","doc_nodes":100001}|});
    ]

(* -------------------- end-to-end amortization --------------------- *)

let test_query_amortization () =
  Obs.reset ();
  let srv = Server.create ~cache_entries:16 () in
  assert_ok "register" (response_of_line srv (register_line "fig3"));
  let q = {|{"op":"query","corpus":"fig3","query":"ORDER//ICN","h":5,"tau":0.3}|} in
  let r1 = Server.handle_line srv q in
  let stats1 = response_of_line srv {|{"op":"stats"}|} in
  let r2 = Server.handle_line srv q in
  let stats2 = response_of_line srv {|{"op":"stats"}|} in
  assert_ok "first query" (Option.get (Result.to_option (Json.of_string r1)));
  (* Identical requests produce byte-identical answers... *)
  Alcotest.(check string) "identical responses" r1 r2;
  let relevant = int_member "relevant" (response_of_line srv q) in
  Alcotest.(check bool) "query matched some mappings" true (relevant > 0);
  (* ...and the second one is served from the prepared-artifact cache.
     An auto plan reads no block tree, so neither query built one. *)
  Alcotest.(check int) "no block-tree build after first query" 0
    (counter_value stats1 "blocktree.builds");
  Alcotest.(check int) "still none after second query" 0
    (counter_value stats2 "blocktree.builds");
  Alcotest.(check bool) "second query hit the cache" true
    (counter_value stats2 "server.cache.hits" > counter_value stats1 "server.cache.hits");
  (* A forced Algorithm 4 query builds the tree once; its repeat runs the
     cached plan. Both answer as the auto plan does. *)
  let qt = {|{"op":"query","corpus":"fig3","query":"ORDER//ICN","h":5,"tau":0.3,"evaluator":"tree"}|} in
  let t1 = response_of_line srv qt in
  let t2 = response_of_line srv qt in
  Alcotest.(check int) "a repeated forced tree query builds one tree" 1
    (counter_value (response_of_line srv {|{"op":"stats"}|}) "blocktree.builds");
  List.iter
    (fun t ->
      Alcotest.(check bool) "forced tree answers = auto answers" true
        (Json.member "answers" t
        = Option.bind (Result.to_option (Json.of_string r1)) (Json.member "answers")))
    [ t1; t2 ];
  (* The cache view in stats agrees. *)
  (match Json.member "cache" stats2 with
  | Some cache ->
    Alcotest.(check bool) "cache hits visible" true (int_member "hits" cache > 0);
    Alcotest.(check bool) "tree artifact cached" true
      (match Option.bind (Json.member "keys" cache) Json.to_list with
      | Some keys ->
        List.exists
          (function Json.String s -> contains ~needle:"tree/fig3" s | _ -> false)
          keys
      | None -> false)
  | None -> Alcotest.fail "stats carries no cache section")

let test_cache_eviction_rebuilds () =
  (* A capacity-1 cache cannot hold mset + tree + plan at once (matching
     and document live in the corpus entry, outside the LRU), so artifacts
     are rebuilt after eviction — answers stay identical, only the work
     repeats. A repeated identical query executes its cached plan (which
     pins its own context), so a *different* plan key is what forces the
     evicted artifacts to rebuild. *)
  Obs.reset ();
  let srv = Server.create ~cache_entries:1 () in
  assert_ok "register" (response_of_line srv (register_line "fig3"));
  let q = {|{"op":"query","corpus":"fig3","query":"ORDER//ICN","h":5}|} in
  let r1 = Server.handle_line srv q in
  let r2 = Server.handle_line srv q in
  Alcotest.(check string) "answers survive eviction" r1 r2;
  (* The cached plan pins its context: the repeat misses nothing. The
     first query missed its plan, tree entry and mapping set. *)
  let stats_before = response_of_line srv {|{"op":"stats"}|} in
  let misses0 = counter_value stats_before "server.cache.misses" in
  Alcotest.(check int) "repeat executed the cached plan" 3 misses0;
  (* A forced evaluator is a different plan key; compiling it must rebuild
     the evicted tree entry and mapping set. *)
  let answers_agree what r =
    Alcotest.(check bool) (what ^ " answers agree") true
      (Json.member "answers" r
      = Option.bind (Result.to_option (Json.of_string r1)) (Json.member "answers"))
  in
  let qb = {|{"op":"query","corpus":"fig3","query":"ORDER//ICN","h":5,"evaluator":"basic"}|} in
  answers_agree "forced basic" (response_of_line srv qb);
  let stats = response_of_line srv {|{"op":"stats"}|} in
  (match Json.member "cache" stats with
  | Some cache ->
    Alcotest.(check int) "population bounded" 1 (int_member "entries" cache);
    Alcotest.(check bool) "evictions happened" true (int_member "evictions" cache > 0)
  | None -> Alcotest.fail "stats carries no cache section");
  Alcotest.(check int) "plan, tree entry and mapping set rebuilt after eviction" (misses0 + 3)
    (counter_value stats "server.cache.misses");
  (* A forced Algorithm 4 plan rebuilds them too, and builds the tree. *)
  let qt = {|{"op":"query","corpus":"fig3","query":"ORDER//ICN","h":5,"evaluator":"tree"}|} in
  answers_agree "forced tree" (response_of_line srv qt);
  Alcotest.(check int) "the forced tree plan built the tree" 1
    (counter_value (response_of_line srv {|{"op":"stats"}|}) "blocktree.builds")

(* ---------------------- incremental updates ----------------------- *)

(* The fig3 corpus exposes known paths: re-score Order.BP ~ ORDER.IP. *)
let update_line =
  {|{"op":"update","corpus":"u","set":[{"source":"Order.BP","target":"ORDER.IP","score":0.9}]}|}

let test_update_dispatch () =
  Obs.reset ();
  let srv = Server.create ~cache_entries:16 () in
  assert_ok "register" (response_of_line srv (register_line "u"));
  let q = {|{"op":"query","corpus":"u","query":"ORDER//ICN","h":5,"tau":0.3}|} in
  assert_ok "warm query" (response_of_line srv q);
  let r = response_of_line srv update_line in
  assert_ok "update" r;
  (* The warm query cached an mset, a tree and a plan; the update patches
     the first two in place and drops only the plan. *)
  Alcotest.(check int) "mset patched" 1 (int_member "msets_patched" r);
  Alcotest.(check int) "tree patched" 1 (int_member "trees_patched" r);
  Alcotest.(check int) "plan invalidated" 1 (int_member "plans_invalidated" r);
  Alcotest.(check bool) "doc untouched without schema growth" true
    (Json.member "doc_rebuilt" r = Some (Json.Bool false));
  Alcotest.(check int) "capacity unchanged by a re-score" 10 (int_member "capacity" r);
  let r_incr = Server.handle_line srv q in
  (* The update is visible in the stats counters, and the patch re-ranked
     only the touched component (fig1's graph has three). *)
  let stats = response_of_line srv {|{"op":"stats"}|} in
  Alcotest.(check int) "catalog.updates" 1 (counter_value stats "catalog.updates");
  Alcotest.(check bool) "some components re-ranked" true
    (counter_value stats "partition.components_reranked" > 0);
  Alcotest.(check bool) "untouched components reused" true
    (counter_value stats "partition.components_reused"
    > counter_value stats "partition.components_reranked");
  (* A second server applies the same delta cold — no cached artifacts to
     patch — and must produce byte-identical answers from scratch. *)
  let srv2 = Server.create ~cache_entries:16 () in
  assert_ok "register2" (response_of_line srv2 (register_line "u"));
  let r2 = response_of_line srv2 update_line in
  assert_ok "update cold" r2;
  Alcotest.(check int) "nothing cached to patch" 0 (int_member "msets_patched" r2);
  Alcotest.(check string) "incremental = from-scratch answers" (Server.handle_line srv2 q) r_incr;
  (* Updating an unknown corpus or an empty delta is a clean error. *)
  assert_error "unknown corpus"
    (response_of_line srv
       {|{"op":"update","corpus":"ghost","set":[{"source":"a","target":"b","score":0.1}]}|});
  assert_error "bad path"
    (response_of_line srv
       {|{"op":"update","corpus":"u","set":[{"source":"No.Such","target":"ORDER.IP","score":0.1}]}|})

let test_update_with_schema_growth () =
  let srv = Server.create ~cache_entries:16 () in
  assert_ok "register" (response_of_line srv (register_line "u"));
  let q = {|{"op":"query","corpus":"u","query":"ORDER//ICN","h":5}|} in
  assert_ok "warm (builds the doc)" (response_of_line srv q);
  (* Grow the source schema (Order.SP is the rightmost spine) and attach a
     correspondence to the new element in the same delta. *)
  let grow =
    {|{"op":"update","corpus":"u","add_source_elements":[{"parent":"Order.SP","name":"SCN"}],"set":[{"source":"Order.SP.SCN","target":"ORDER.SP.SCN","score":0.7}]}|}
  in
  let r = response_of_line srv grow in
  assert_ok "growing update" r;
  Alcotest.(check int) "source grew" 10 (int_member "source_elements" r);
  Alcotest.(check bool) "doc rebuilt for the grown schema" true
    (Json.member "doc_rebuilt" r = Some (Json.Bool true));
  Alcotest.(check int) "capacity grew" 11 (int_member "capacity" r);
  (* Same growth applied cold gives byte-identical answers. *)
  let srv2 = Server.create ~cache_entries:16 () in
  assert_ok "register2" (response_of_line srv2 (register_line "u"));
  assert_ok "grow cold" (response_of_line srv2 grow);
  Alcotest.(check string) "incremental = from-scratch answers"
    (Server.handle_line srv2 q) (Server.handle_line srv q)

(* The catalog pins its corpus's target schema indexed for resolution and
   re-indexes it only when an update grows that schema: after such an
   update, a query naming the new target element answers exactly like a
   cold register of the updated matching. *)
let test_update_grows_target_index () =
  let module Matching = Uxsm_mapping.Matching in
  let module Schema = Uxsm_schema.Schema in
  let module Ptq = Uxsm_ptq.Ptq in
  let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e in
  let answers cat pattern =
    Ptq.execute
      (ok pattern
         (Catalog.plan cat "w" ~pattern ~h:5 ~tau:Protocol.default_tau ~k:None ~force:`Auto))
  in
  let cat = Catalog.create ~exec:Executor.sequential () in
  ignore (ok "register" (Catalog.register cat ~name:"w" ~doc_seed:3
                           (Protocol.From_mapping_set_text fig3_text)));
  ignore (answers cat "ORDER//ICN");
  let m = ok "matching" (Catalog.matching cat "w") in
  let root_path s = Schema.path_string s (Schema.root s) in
  let sroot = root_path (Matching.source m) and troot = root_path (Matching.target m) in
  let delta =
    {
      Matching.empty_delta with
      add_source = [ (sroot, "NewSrc") ];
      add_target = [ (troot, "NewTgt") ];
      set_scores = [ (sroot ^ ".NewSrc", troot ^ ".NewTgt", 0.9) ];
    }
  in
  ignore (ok "update" (Catalog.update cat ~name:"w" delta));
  let q = Schema.label (Matching.target m) (Schema.root (Matching.target m)) ^ "/NewTgt" in
  let warm = answers cat q in
  let cold_cat = Catalog.create ~exec:Executor.sequential () in
  let m_new = ok "updated matching" (Catalog.matching cat "w") in
  ignore
    (ok "cold register"
       (Catalog.register cold_cat ~name:"w" ~doc_seed:3
          (Protocol.From_matching_text (Serialize.matching_to_string m_new))));
  let cold = answers cold_cat q in
  let render (a : Ptq.answer) =
    Printf.sprintf "%d %Lx %s" a.mapping_id (Int64.bits_of_float a.probability)
      (String.concat " " (List.map (Format.asprintf "%a" Uxsm_twig.Binding.pp) a.bindings))
  in
  Alcotest.(check bool) "the new element resolves" true (cold <> []);
  Alcotest.(check (list string)) "warm update = cold register" (List.map render cold)
    (List.map render warm)

let test_update_survives_eviction () =
  (* A capacity-2 cache evicts the patched artifacts; the rebuild starts
     from the corpus entry's updated matching, so answers keep matching a
     server that never evicted anything. *)
  let srv = Server.create ~cache_entries:2 () in
  let big = Server.create ~cache_entries:16 () in
  List.iter
    (fun s ->
      assert_ok "register" (response_of_line s (register_line "u"));
      assert_ok "update" (response_of_line s update_line))
    [ srv; big ];
  let q = {|{"op":"query","corpus":"u","query":"ORDER//ICN","h":5}|} in
  let want = Server.handle_line big q in
  Alcotest.(check string) "post-update answers" want (Server.handle_line srv q);
  (* Thrash the small cache with other plan keys, then re-ask. *)
  assert_ok "other plan"
    (response_of_line srv {|{"op":"query","corpus":"u","query":"ORDER//SCN","h":5}|});
  assert_ok "forced plan"
    (response_of_line srv
       {|{"op":"query","corpus":"u","query":"ORDER//ICN","h":5,"evaluator":"basic"}|});
  Alcotest.(check string) "answers survive eviction + replay" want (Server.handle_line srv q);
  (* The update also survives a save/load round-trip of the mapping set. *)
  let save = response_of_line srv {|{"op":"save","corpus":"u","h":5}|} in
  assert_ok "save" save;
  match Option.bind (Json.member "text" save) Json.to_string_opt with
  | None -> Alcotest.fail "save carries no text"
  | Some text -> (
    match Serialize.mapping_set_of_string text with
    | Error e -> Alcotest.failf "saved text does not load: %s" e
    | Ok mset -> (
      let m = Mapping_set.matching mset in
      match
        Matching.score m
          (Option.get (Schema.find_by_path (Matching.source m) "Order.BP"))
          (Option.get (Schema.find_by_path (Matching.target m) "ORDER.IP"))
      with
      | Some s -> Alcotest.(check (float 1e-9)) "re-scored corr saved" 0.9 s
      | None -> Alcotest.fail "re-scored correspondence missing from saved set"))

(* ---------------------- evaluator selection ----------------------- *)

let test_query_evaluator_field () =
  let srv = Server.create ~cache_entries:16 () in
  assert_ok "register" (response_of_line srv (register_line "fig3"));
  let reply ev =
    response_of_line srv
      (Printf.sprintf
         {|{"op":"query","corpus":"fig3","query":"ORDER//ICN","h":5%s}|}
         (match ev with None -> "" | Some e -> Printf.sprintf {|,"evaluator":%S|} e))
  in
  let echoed j =
    match Option.bind (Json.member "evaluator" j) Json.to_string_opt with
    | Some s -> s
    | None -> Alcotest.failf "query reply carries no evaluator: %s" (Json.to_string j)
  in
  (* Forced evaluators echo back and answers do not depend on the choice. *)
  let rb = reply (Some "basic") and rt = reply (Some "tree") and ra = reply None in
  Alcotest.(check string) "forced basic echoed" "basic" (echoed rb);
  Alcotest.(check string) "forced tree echoed" "tree" (echoed rt);
  Alcotest.(check string) "auto echoes basic" "basic" (echoed ra);
  Alcotest.(check bool) "answers agree across evaluators" true
    (Json.member "answers" rb = Json.member "answers" rt
    && Json.member "answers" rb = Json.member "answers" ra);
  (* Unknown values get the structured field error, naming the field. *)
  let bad =
    response_of_line srv
      {|{"op":"query","corpus":"fig3","query":"ORDER//ICN","h":5,"evaluator":"fast"}|}
  in
  assert_error "unknown evaluator" bad;
  (match Json.member "error" bad with
  | Some (Json.String e) ->
    Alcotest.(check bool) "error names the evaluator field" true (contains ~needle:"evaluator" e)
  | _ -> Alcotest.fail "no error text");
  (* query_topk takes the field too. *)
  let topk =
    response_of_line srv
      {|{"op":"query_topk","corpus":"fig3","query":"ORDER//ICN","h":5,"k":2,"evaluator":"basic"}|}
  in
  assert_ok "query_topk with evaluator" topk;
  Alcotest.(check string) "topk echoes the forced word" "basic" (echoed topk);
  (* Compiled plans are visible in the cache keys. *)
  (match Option.bind (Json.member "cache" (response_of_line srv {|{"op":"stats"}|}))
           (Json.member "keys")
   with
  | Some (Json.List keys) ->
    Alcotest.(check bool) "plan keys cached" true
      (List.exists
         (function Json.String s -> contains ~needle:"plan/fig3" s | _ -> false)
         keys)
  | _ -> Alcotest.fail "stats carries no cache keys")

let test_explain_carries_plan () =
  let srv = Server.create ~cache_entries:16 () in
  assert_ok "register" (response_of_line srv (register_line "fig3"));
  (* explain reads k and evaluator as query_topk does: the forced top-k
     plan is the one explained, and a bad evaluator is refused. *)
  let forced =
    response_of_line srv
      {|{"op":"explain","corpus":"fig3","query":"//IP//ICN","h":5,"evaluator":"basic","k":2}|}
  in
  assert_ok "forced top-k explain" forced;
  (match Json.member "plan" forced with
  | Some plan ->
    let field name = Option.bind (Json.member name plan) Json.to_string_opt in
    Alcotest.(check (option string)) "forced evaluator" (Some "per_mapping") (field "evaluator");
    Alcotest.(check (option string)) "forced reason" (Some "forced") (field "reason");
    Alcotest.(check bool) "top-k pruning planned" true
      (match Json.member "ops" plan with
      | Some (Json.List ops) -> List.mem (Json.String "topk_prune(2)") ops
      | _ -> false)
  | None -> Alcotest.failf "explain reply carries no plan: %s" (Json.to_string forced));
  let bogus =
    response_of_line srv
      {|{"op":"explain","corpus":"fig3","query":"//IP//ICN","h":5,"evaluator":"bogus"}|}
  in
  assert_error "unknown evaluator" bogus;
  Alcotest.(check bool) "error names the evaluator field" true
    (match Json.member "error" bogus with
    | Some (Json.String e) -> contains ~needle:{|explain: field "evaluator"|} e
    | _ -> false);
  let ex = response_of_line srv {|{"op":"explain","corpus":"fig3","query":"//IP//ICN","h":5}|} in
  assert_ok "explain" ex;
  match Json.member "plan" ex with
  | Some plan ->
    (match Option.bind (Json.member "evaluator" plan) Json.to_string_opt with
    | Some ev -> Alcotest.(check bool) "plan names its evaluator" true
                   (List.mem ev [ "per_mapping"; "per_block" ])
    | None -> Alcotest.fail "plan carries no evaluator");
    (match Json.member "ops" plan with
    | Some (Json.List ops) -> Alcotest.(check bool) "plan lists its ops" true (List.length ops >= 5)
    | _ -> Alcotest.fail "plan carries no ops")
  | None -> Alcotest.failf "explain reply carries no plan: %s" (Json.to_string ex)

(* A save answers with the mapping-set text and writes no file, whatever
   path a request names. *)
let test_save_writes_no_file () =
  let srv = Server.create ~cache_entries:16 () in
  assert_ok "register" (response_of_line srv (register_line "fig3"));
  let path = Filename.temp_file "uxsm_save" ".mappings" in
  Sys.remove path;
  let save =
    response_of_line srv
      (Printf.sprintf {|{"op":"save","corpus":"fig3","h":5,"path":%s}|}
         (Json.to_string (Json.String path)))
  in
  assert_ok "save" save;
  Alcotest.(check bool) "the named path stays absent" false (Sys.file_exists path);
  Alcotest.(check bool) "the reply carries the text" true
    (Option.bind (Json.member "text" save) Json.to_string_opt <> None)

(* --------------------------- batching ----------------------------- *)

let test_handle_lines_batching () =
  let lines srv =
    [
      register_line "fig3";
      {|{"op":"ping","id":1}|};
      {|{"op":"query","corpus":"fig3","query":"ORDER//ICN","h":5,"id":2}|};
      {|{"op":"mappings","corpus":"fig3","h":5,"id":3}|};
      "not json";
      {|{"op":"query_topk","corpus":"fig3","query":"ORDER//ICN","h":5,"k":2,"id":4}|};
      {|{"op":"stats","id":5}|};
    ]
    |> Server.handle_lines srv
  in
  let seq = lines (Server.create ~cache_entries:16 ()) in
  Alcotest.(check int) "one response per line" 7 (List.length seq);
  (* The same batch through a domain pool: responses arrive in request
     order with identical payloads (stats differs: it reads live global
     counters, which other suites and the pool itself perturb). *)
  let par = lines (Server.create ~cache_entries:16 ~exec:(Executor.domains 3) ()) in
  List.iteri
    (fun i (a, b) ->
      if i <> 6 then Alcotest.(check string) (Printf.sprintf "line %d identical" i) a b)
    (List.combine seq par);
  (* D7 at full scale: one pipelined run of pure requests, so on the pool
     several domains compile, cache and execute plans over one shared
     mapping set, block tree and document at once. The ten Table III
     queries go in cold and then warm, then forced onto Algorithms 3 and 4,
     whose one-mapping units make each evaluation long enough to overlap. *)
  let queries evaluator =
    List.map
      (fun (_, q) ->
        Printf.sprintf {|{"op":"query","corpus":"d7","query":%s,"evaluator":"%s"}|}
          (Json.to_string (Json.String (Uxsm_twig.Pattern.to_string q)))
          evaluator)
      Uxsm_workload.Queries.table3
  in
  let batch =
    queries "auto" @ queries "auto" @ queries "basic" @ queries "tree"
    @ [
        {|{"op":"query_topk","corpus":"d7","query":"Order/POLine[./LineNo]//UnitPrice","k":3}|};
        {|{"op":"mappings","corpus":"d7"}|};
        {|{"op":"save","corpus":"d7"}|};
        {|{"op":"match","corpus":"d7"}|};
      ]
  in
  let d7_lines srv =
    assert_ok "register d7"
      (response_of_line srv {|{"op":"register","name":"d7","dataset":"D7"}|});
    Server.handle_lines srv batch
  in
  let seq = d7_lines (Server.create ~cache_entries:64 ()) in
  let par = d7_lines (Server.create ~cache_entries:64 ~exec:(Executor.domains 3) ()) in
  Alcotest.(check int) "one D7 response per line" 44 (List.length par);
  List.iteri
    (fun i (a, b) ->
      (match Json.of_string a with
      | Ok j -> assert_ok (Printf.sprintf "D7 line %d" i) j
      | Error e -> Alcotest.failf "D7 line %d: bad reply: %s" i e);
      Alcotest.(check string) (Printf.sprintf "D7 line %d identical" i) a b)
    (List.combine seq par);
  (* Shutdown inside a batch still answers everything (drain). *)
  let srv = Server.create () in
  let resps = Server.handle_lines srv [ {|{"op":"shutdown"}|}; {|{"op":"ping"}|} ] in
  Alcotest.(check int) "drained batch" 2 (List.length resps);
  Alcotest.(check bool) "server stopping" true (Server.stopping srv)

(* EXPLAIN reports deltas of process-global counters, so it is a barrier:
   placed among eight D7 queries in a pipelined batch on a two-domain
   server, it reports exactly what it reports alone, batch after batch. *)
let test_explain_counts_only_itself () =
  let srv = Server.create ~exec:(Executor.domains 2) () in
  assert_ok "register"
    (response_of_line srv {|{"op":"register","name":"d7","dataset":"D7"}|});
  let explain =
    {|{"op":"explain","corpus":"d7","query":"//POLine[.//UnitPrice]//Quantity"}|}
  in
  let solo = Server.handle_line srv explain in
  let queries =
    List.filteri (fun i _ -> i < 8) Uxsm_workload.Queries.table3
    |> List.map (fun (_, q) ->
           Printf.sprintf {|{"op":"query","corpus":"d7","query":%s}|}
             (Json.to_string (Json.String (Uxsm_twig.Pattern.to_string q))))
  in
  let batch =
    List.filteri (fun i _ -> i < 4) queries @ (explain :: List.filteri (fun i _ -> i >= 4) queries)
  in
  for i = 1 to 20 do
    Alcotest.(check string)
      (Printf.sprintf "batch %d: the explain reply equals the solo one" i)
      solo
      (List.nth (Server.handle_lines srv batch) 4)
  done

(* ------------------------- stdio transport ------------------------ *)

let test_serve_channels () =
  let script =
    String.concat "\n"
      [ register_line "fig3"; {|{"op":"ping"}|}; {|{"op":"query","corpus":"fig3","query":"ORDER//ICN","h":5}|}; {|{"op":"shutdown"}|}; {|{"op":"ping"}|} ]
    ^ "\n"
  in
  let in_path = Filename.temp_file "uxsm_srv" ".in" in
  let out_path = Filename.temp_file "uxsm_srv" ".out" in
  let oc = open_out in_path in
  output_string oc script;
  close_out oc;
  let ic = open_in in_path and oc = open_out out_path in
  let srv = Server.create () in
  Server.serve_channels srv ic oc;
  close_in ic;
  close_out oc;
  let ic = open_in out_path in
  let rec slurp acc =
    match input_line ic with
    | l -> slurp (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let replies = slurp [] in
  close_in ic;
  Sys.remove in_path;
  Sys.remove out_path;
  (* The ping after shutdown is not served: the transport drained and
     stopped. *)
  Alcotest.(check int) "four replies" 4 (List.length replies);
  List.iter
    (fun r ->
      match Json.of_string r with
      | Ok j -> assert_ok "scripted reply" j
      | Error e -> Alcotest.failf "bad reply %s: %s" r e)
    replies;
  Alcotest.(check bool) "stopped" true (Server.stopping srv)

(* ---------------------- catalog shard safety ---------------------- *)

let mixed_requests ~corpus ~tag n =
  List.init n (fun j ->
      let id = Printf.sprintf {|"%s-%d"|} tag j in
      match j mod 4 with
      | 0 -> Printf.sprintf {|{"op":"ping","id":%s}|} id
      | 1 ->
        Printf.sprintf {|{"op":"query","corpus":"%s","query":"ORDER//ICN","h":5,"id":%s}|}
          corpus id
      | 2 -> Printf.sprintf {|{"op":"mappings","corpus":"%s","h":5,"id":%s}|} corpus id
      | _ -> Printf.sprintf {|{"op":"match","corpus":"%s","id":%s}|} corpus id)

let test_catalog_concurrent_shards () =
  let srv = Server.create ~cache_entries:8 () in
  assert_ok "register A" (response_of_line srv (register_line "corpA"));
  assert_ok "register B" (response_of_line srv (register_line "corpB"));
  Alcotest.(check int) "one shard per corpus" 2 (Catalog.shard_count (Server.catalog srv));
  let reqs corpus = mixed_requests ~corpus ~tag:corpus 20 in
  (* Sequential replay first; concurrent domains must reproduce it
     byte-for-byte (artifact caches only change who does the work). *)
  let expected corpus = List.map (Server.handle_line srv) (reqs corpus) in
  let exp_a = expected "corpA" and exp_b = expected "corpB" in
  let run corpus = Domain.spawn (fun () -> List.map (Server.handle_line srv) (reqs corpus)) in
  let spawned = [ run "corpA"; run "corpB"; run "corpA"; run "corpB" ] in
  let got = List.map Domain.join spawned in
  List.iteri
    (fun di replies ->
      let exp = if di mod 2 = 0 then exp_a else exp_b in
      List.iteri
        (fun j (e, g) ->
          Alcotest.(check string) (Printf.sprintf "domain %d reply %d" di j) e g)
        (List.combine exp replies))
    got;
  (* The monitoring reads raced the traffic without a shard lock; totals
     must still be coherent afterwards. *)
  let s = Catalog.cache_stats (Server.catalog srv) in
  Alcotest.(check bool) "shard-summed stats coherent" true
    (s.Lru.hits >= 0 && s.Lru.misses > 0 && Catalog.cache_length (Server.catalog srv) <= 16)

(* -------------------- concurrent socket service ------------------- *)

let start_server ?(max_queue = 256) ?exec ?(corpora = [ "corpA"; "corpB" ]) endpoints =
  let srv = Server.create ~cache_entries:16 ?exec () in
  List.iter (fun c -> assert_ok ("register " ^ c) (response_of_line srv (register_line c))) corpora;
  let addrs = ref [] in
  let m = Locks.create ~name:"test.ready" ~rank:Locks.rank_latch in
  let cond = Locks.cond () and up = ref false in
  let th =
    Thread.create
      (fun () ->
        Server.serve ~max_queue
          ~ready:(fun a ->
            Locks.lock m;
            addrs := a;
            up := true;
            Locks.signal cond;
            Locks.unlock m)
          srv endpoints)
      ()
  in
  Locks.lock m;
  while not !up do
    Locks.wait cond m
  done;
  Locks.unlock m;
  (srv, !addrs, th)

let connect endpoint =
  match Client.connect endpoint with
  | Ok conn -> conn
  | Error e -> Alcotest.failf "connect: %s" e

let send_lines conn lines =
  match Client.send conn lines with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e

(* The next reply line; [None] once the server closed the connection. *)
let recv_line conn =
  match Client.recv conn with
  | Client.Line l -> Some l
  | Client.Closed -> None
  | Client.Timeout -> Alcotest.fail "recv timed out"
  | Client.Failed e -> Alcotest.failf "recv: %s" e

let exchange conn lines =
  send_lines conn lines;
  List.map
    (fun _ ->
      match recv_line conn with
      | Some l -> l
      | None -> Alcotest.fail "server closed the connection early")
    lines

let parse_reply what line =
  match Json.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: reply is not one JSON line (%s): %s" what e line

let id_of j =
  match Json.member "id" j with
  | Some v -> Json.to_string v
  | None -> Alcotest.failf "reply carries no id: %s" (Json.to_string j)

(* The tentpole acceptance test: N concurrent clients on mixed corpora,
   every reply routed to the requester in send order with payloads
   byte-identical to a sequential replay of the same requests. *)
let run_stress what ~exec endpoints =
  Obs.reset ();
  let srv, addrs, th = start_server ~exec endpoints in
  let addr = List.hd addrs in
  let n_clients = 4 and per_client = 16 in
  let requests ci =
    mixed_requests
      ~corpus:(if ci mod 2 = 0 then "corpA" else "corpB")
      ~tag:(Printf.sprintf "c%d" ci) per_client
  in
  let results = Array.make n_clients [] in
  let clients =
    List.init n_clients (fun ci ->
        Thread.create
          (fun () ->
            let conn = connect addr in
            results.(ci) <- exchange conn (requests ci);
            Client.close conn)
          ())
  in
  List.iter Thread.join clients;
  (* Live stats, taken while the service is still up. *)
  let conn = connect addr in
  let stats = parse_reply "stats" (List.hd (exchange conn [ {|{"op":"stats"}|} ])) in
  Client.close conn;
  Server.request_stop srv;
  Thread.join th;
  (* Differential: a fresh sequential server answering the same scripts. *)
  let ref_srv = Server.create ~cache_entries:16 () in
  assert_ok "register A" (response_of_line ref_srv (register_line "corpA"));
  assert_ok "register B" (response_of_line ref_srv (register_line "corpB"));
  Array.iteri
    (fun ci replies ->
      let expected = List.map (Server.handle_line ref_srv) (requests ci) in
      Alcotest.(check int)
        (Printf.sprintf "%s: client %d got every reply" what ci)
        per_client (List.length replies);
      List.iteri
        (fun j (e, g) ->
          Alcotest.(check string) (Printf.sprintf "%s: client %d reply %d" what ci j) e g)
        (List.combine expected replies))
    results;
  (* Latency histograms made it to the stats endpoint with quantiles. *)
  assert_ok "stats" stats;
  (match Json.member "histograms" stats with
  | Some (Json.Assoc hs) ->
    List.iter
      (fun op ->
        let name = Printf.sprintf "server.%s.latency" op in
        match List.assoc_opt name hs with
        | Some h ->
          Alcotest.(check bool) (name ^ " has quantiles") true
            (Json.member "p50" h <> None && Json.member "p95" h <> None
            && Json.member "p99" h <> None
            && int_member "count" h > 0)
        | None -> Alcotest.failf "%s: stats missing histogram %s" what name)
      [ "ping"; "query"; "mappings"; "match" ]
  | _ -> Alcotest.failf "%s: stats carries no histograms section" what);
  (* Service gauges. *)
  match Json.member "server" stats with
  | Some s ->
    Alcotest.(check bool) (what ^ ": connections counted") true
      (int_member "connections_opened" s >= n_clients);
    Alcotest.(check int) (what ^ ": queue capacity reported") 256
      (int_member "queue_capacity" s);
    Alcotest.(check int) (what ^ ": nothing rejected under default bound") 0
      (int_member "overloaded_rejections" s)
  | None -> Alcotest.failf "%s: stats carries no server section" what

let test_tcp_stress () =
  run_stress "tcp" ~exec:(Executor.domains 3) [ Client.Tcp ("127.0.0.1", 0) ]

let test_unix_stress () =
  let path = Filename.temp_file "uxsm_srv" ".sock" in
  Sys.remove path;
  run_stress "unix" ~exec:Executor.sequential [ Client.Unix_socket path ];
  Alcotest.(check bool) "socket file removed on drain" false (Sys.file_exists path)

(* Graceful drain under load: stop lands while clients are mid-flood.
   Every reply that arrives is a complete JSON line answering an admitted
   request, in send order per connection, and every connection ends in
   EOF with the server thread joining. *)
let test_drain_mid_load () =
  (* The queue must be able to hold every flooded request: an overload
     rejection here would be legitimate backpressure, not a drain bug,
     and it would (correctly) break the in-order-prefix property this
     test pins down. *)
  let n_clients = 3 and warmup = 5 and flood = 100 in
  let srv, addrs, th =
    start_server
      ~max_queue:(n_clients * (warmup + flood))
      ~corpora:[] [ Client.Tcp ("127.0.0.1", 0) ]
  in
  let addr = List.hd addrs in
  let warmed = Atomic.make 0 in
  let results = Array.make n_clients [] in
  let clients =
    List.init n_clients (fun ci ->
        Thread.create
          (fun () ->
            let conn = connect addr in
            let ping j = Printf.sprintf {|{"op":"ping","id":"d%d-%d"}|} ci j in
            let first = exchange conn (List.init warmup ping) in
            List.iter (fun r -> assert_ok "warmup ping" (parse_reply "warmup" r)) first;
            Atomic.incr warmed;
            send_lines conn (List.init flood (fun j -> ping (warmup + j)));
            let rec drain acc =
              match recv_line conn with
              | Some l -> drain (l :: acc)
              | None -> List.rev acc
            in
            results.(ci) <- drain [];
            Client.close conn)
          ())
  in
  while Atomic.get warmed < n_clients do
    Thread.yield ()
  done;
  Server.request_stop srv;
  List.iter Thread.join clients;
  Thread.join th;
  Array.iteri
    (fun ci replies ->
      (* Replies to the flood are a prefix of what was sent: the reader
         admits in order and stops between lines, never inside one. *)
      List.iteri
        (fun j r ->
          let json = parse_reply "drain reply" r in
          assert_ok "drained reply" json;
          Alcotest.(check string)
            (Printf.sprintf "client %d drained reply %d routed in order" ci j)
            (Printf.sprintf {|"d%d-%d"|} ci (warmup + j))
            (id_of json))
        replies;
      Alcotest.(check bool) "no reply invented" true (List.length replies <= flood))
    results

(* Backpressure: a queue of one and a register barrier hogging the
   dispatcher force overload rejections; every line still gets exactly
   one reply, correlated by id. *)
let test_admission_overload () =
  Obs.reset ();
  let srv, addrs, th = start_server ~max_queue:1 ~corpora:[] [ Client.Tcp ("127.0.0.1", 0) ] in
  let addr = List.hd addrs in
  let flood = 200 in
  let lines =
    Printf.sprintf {|{"op":"register","name":"corpA","mapping_set":%s,"id":"reg"}|}
      (Json.to_string (Json.String fig3_text))
    :: List.init flood (fun j -> Printf.sprintf {|{"op":"ping","id":"f-%d"}|} j)
  in
  let conn = connect addr in
  let replies = List.map (parse_reply "overload reply") (exchange conn lines) in
  Client.close conn;
  let reg, pings = List.partition (fun j -> id_of j = {|"reg"|}) replies in
  (match reg with
  | [ r ] -> assert_ok "the admitted register" r
  | _ -> Alcotest.fail "register answered exactly once");
  Alcotest.(check int) "one reply per ping" flood (List.length pings);
  let rejected = List.filter Protocol.is_overloaded_response pings in
  Alcotest.(check bool) "the full queue rejected some pings" true (rejected <> []);
  List.iter
    (fun j ->
      if not (Protocol.is_overloaded_response j) then assert_ok "admitted ping" j)
    pings;
  let ids = List.sort_uniq String.compare (List.map id_of pings) in
  Alcotest.(check int) "ids all distinct and echoed" flood (List.length ids);
  (* The service recovers once the queue drains. *)
  let conn = connect addr in
  let after = parse_reply "after" (List.hd (exchange conn [ {|{"op":"ping","id":"after"}|} ])) in
  assert_ok "post-overload ping served" after;
  Client.close conn;
  Server.request_stop srv;
  Thread.join th;
  Alcotest.(check bool) "rejections counted" true
    (Obs.value (Obs.counter "server.overloaded") > 0)

(* An over-long line is answered with one error and dropped through its
   newline; the connection stays open, blank lines stay unanswered, and
   the next request is served. *)
let test_overlong_line () =
  let srv, addrs, th = start_server ~corpora:[] [ Client.Tcp ("127.0.0.1", 0) ] in
  let conn = connect (List.hd addrs) in
  let err, pong =
    match
      exchange conn [ String.make (Server.max_line_bytes + 1) 'x' ^ "\n"; {|{"op":"ping","id":"after"}|} ]
    with
    | [ err; pong ] -> (err, pong)
    | _ -> Alcotest.fail "expected two replies"
  in
  let err = parse_reply "over-long line" err in
  assert_error "over-long line" err;
  (match Json.member "error" err with
  | Some (Json.String msg) ->
    Alcotest.(check bool) "error says the line is too long" true (contains ~needle:"exceeds" msg)
  | _ -> ());
  let pong = parse_reply "ping" pong in
  assert_ok "ping after the over-long line" pong;
  Alcotest.(check string) "the ping's own reply" {|"after"|} (id_of pong);
  Client.close conn;
  Server.request_stop srv;
  Thread.join th

(* A peer that sends more than the line limit without a newline: the
   client reports the over-long reply once its partial line would pass
   the limit, holds no more than that, drops the rest of the line and
   reads the next one. *)
let test_client_overlong_reply () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, port) -> port
    | Unix.ADDR_UNIX _ -> Alcotest.fail "not a TCP listener"
  in
  let flagged = Atomic.make false and finished = Atomic.make false in
  let await flag =
    while not (Atomic.get flag) do
      Thread.delay 0.005
    done
  in
  let peer =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        Client.write_all fd (String.make (Protocol.max_line_bytes + 1) 'x');
        await flagged;
        Client.write_all fd "tail\n{\"ok\":true}\n";
        await finished;
        Unix.close fd)
      ()
  in
  let conn = connect (Client.Tcp ("127.0.0.1", port)) in
  (match Client.recv ~timeout:60.0 conn with
  | Client.Failed e -> Alcotest.(check bool) "error says the line is too long" true (contains ~needle:"exceeds" e)
  | Client.Line _ | Client.Timeout | Client.Closed -> Alcotest.fail "expected the over-long error");
  Alcotest.(check bool) "the connection holds less than the limit" true
    (Obj.reachable_words (Obj.repr conn) * (Sys.word_size / 8) < Protocol.max_line_bytes);
  Atomic.set flagged true;
  Alcotest.(check (option string)) "the next line is read" (Some {|{"ok":true}|}) (recv_line conn);
  Atomic.set finished true;
  Thread.join peer;
  Alcotest.(check (option string)) "then the close" None (recv_line conn);
  Client.close conn;
  Unix.close listener

(* The stdio transport frames lines like the socket reader: an over-long
   line gets one error and is dropped through its newline, the blank line
   after it is not answered, and the next request is served. *)
let test_serve_channels_overlong_line () =
  let in_path = Filename.temp_file "uxsm_srv" ".in" in
  let out_path = Filename.temp_file "uxsm_srv" ".out" in
  let oc = open_out_bin in_path in
  output_string oc (String.make (Server.max_line_bytes + 1) 'x');
  output_string oc "\n\n";
  output_string oc {|{"op":"ping","id":"after"}|};
  output_char oc '\n';
  close_out oc;
  let ic = open_in_bin in_path and oc = open_out_bin out_path in
  Server.serve_channels (Server.create ()) ic oc;
  close_in ic;
  close_out oc;
  let ic = open_in_bin out_path in
  let rec slurp acc =
    match input_line ic with
    | l -> slurp (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let replies = slurp [] in
  close_in ic;
  Sys.remove in_path;
  Sys.remove out_path;
  match replies with
  | [ err; pong ] ->
    let err = parse_reply "over-long line" err in
    assert_error "over-long line" err;
    (match Json.member "error" err with
    | Some (Json.String msg) ->
      Alcotest.(check bool) "error says the line is too long" true (contains ~needle:"exceeds" msg)
    | _ -> ());
    let pong = parse_reply "ping" pong in
    assert_ok "ping after the over-long line" pong;
    Alcotest.(check string) "the ping's own reply" {|"after"|} (id_of pong)
  | _ -> Alcotest.failf "expected two replies, got %d" (List.length replies)

(* ------------------- incremental ranking, pinned ------------------- *)

(* Per-step digests of [Serialize.mapping_set_to_string] for the D7 top-100
   set under 20 move/restore update pairs, the update pattern of the
   serving benchmark's update_mix workload: the k-th pair moves the
   (k * n / 20)-th correspondence 0.05 away from its registered score
   (rounded to 3 decimals), then restores it. Recorded before the
   partition fold kept back-pointer levels; each restore must give back
   the registered set. *)
let d7_registered = "82c04e4630053dd5d410766b7dc2a30e"

let d7_moved =
  [
    "014562d4d875af430616a67f2bfe942f"; "f06889c762f124435e08d6bfd4006584";
    "0448abf2632f3692330d36867773b94d"; "04b7754d84292b554d0c7fedb966193b";
    "1923b6e8939d2b128ceb716ca1fa959b"; "30b9047c580122fdabdd5ec1f2022570";
    "1a25d1450c27f00f4dc5dbd0d66fe701"; "2d28a49905af6ba8d87ba7ab27a7d179";
    "a25520ea6c8fbd21cd66e213f16b0947"; "f5fcf02f4eb872ca387b2cc40d3392b0";
    "24ddc2324c894e284922fef5f40fd27e"; "ed6f30958919b054c09020299a469c12";
    "7cab12eff0badcd50684cad1589841e7"; "f5738077d496e3406c0028405aad066a";
    "5e9ba8c5256847e282ef2c2ef46db27b"; "daa685d7461eea7d94600dee02d01dc7";
    "223049b37a15505c4862ec2655b52b5d"; "689efe54a3fc12ea0f88b25128872436";
    "1d6f7f208cd1b54082de43606e0e66b7"; "6800fb06ce2dedff85c99d0711ea4d76";
  ]

let test_d7_update_stream_pinned () =
  let module Matching = Uxsm_mapping.Matching in
  let module Schema = Uxsm_schema.Schema in
  let cat = Catalog.create ~exec:Executor.sequential () in
  (match
     Catalog.register cat ~name:"d7" ~doc_seed:1 ~doc_nodes:50
       (Protocol.From_dataset (Uxsm_workload.Dataset.d7, 42))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let digest () =
    match Catalog.mapping_set cat "d7" ~h:100 with
    | Ok m -> Digest.to_hex (Digest.string (Serialize.mapping_set_to_string m))
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "registered" d7_registered (digest ());
  let m = match Catalog.matching cat "d7" with Ok m -> m | Error e -> Alcotest.fail e in
  let corrs = Array.of_list (Matching.correspondences m) in
  let n = Array.length corrs in
  let round3 x = float_of_string (Printf.sprintf "%.3f" x) in
  List.iteri
    (fun k moved_digest ->
      let c = corrs.(k * n / 20) in
      let sp = Schema.path_string (Matching.source m) c.source
      and tp = Schema.path_string (Matching.target m) c.target in
      let step what score expect =
        match
          Catalog.update cat ~name:"d7" { Matching.empty_delta with set_scores = [ (sp, tp, score) ] }
        with
        | Ok u ->
          Alcotest.(check int) (Printf.sprintf "pair %d %s patched the set" k what) 1 u.u_msets_patched;
          Alcotest.(check string) (Printf.sprintf "pair %d %s" k what) expect (digest ())
        | Error e -> Alcotest.fail e
      in
      step "move" (if c.score >= 0.06 then round3 (c.score -. 0.05) else round3 (c.score +. 0.05))
        moved_digest;
      step "restore" c.score d7_registered)
    d7_moved

(* The median minor-heap words one warm D7 update may allocate. The stream
   below measured 113,006 words; a per-solution fresh array with a closure
   per level, a diffed second graph and set-based components allocated
   258,086, which this bound rejects. *)
let max_update_minor_words = 150_000.0

(* The D7 move/restore stream again, with the block tree warm too: each
   update builds or reuses every one of the 100 mappings, the stream as a
   whole reuses some (a move that changes a component's best solution can
   change all 100), the median update allocates at most
   [max_update_minor_words], and the patched tree validates — on-demand
   compression included — and accounts the same storage as a fresh build
   of the patched set. *)
let test_d7_update_stream_reuses_mappings () =
  let module Matching = Uxsm_mapping.Matching in
  let module Schema = Uxsm_schema.Schema in
  let module Block_tree = Uxsm_blocktree.Block_tree in
  let cat = Catalog.create ~exec:Executor.sequential () in
  (match
     Catalog.register cat ~name:"d7" ~doc_seed:1 ~doc_nodes:50
       (Protocol.From_dataset (Uxsm_workload.Dataset.d7, 42))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let prepared () =
    match Catalog.prepared cat "d7" ~h:100 ~tau:Block_tree.default_params.tau with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  ignore (prepared ());
  let reused = Obs.counter "mapping_set.mappings_reused"
  and built = Obs.counter "mapping_set.mappings_built" in
  let m = match Catalog.matching cat "d7" with Ok m -> m | Error e -> Alcotest.fail e in
  let corrs = Array.of_list (Matching.correspondences m) in
  let n = Array.length corrs in
  let round3 x = float_of_string (Printf.sprintf "%.3f" x) in
  let total_reused = ref 0 and words = ref [] in
  for k = 0 to 19 do
    let c = corrs.(k * n / 20) in
    let sp = Schema.path_string (Matching.source m) c.source
    and tp = Schema.path_string (Matching.target m) c.target in
    let step what score =
      let r0 = Obs.value reused and b0 = Obs.value built in
      let w0 = Gc.minor_words () in
      let result =
        Catalog.update cat ~name:"d7" { Matching.empty_delta with set_scores = [ (sp, tp, score) ] }
      in
      words := (Gc.minor_words () -. w0) :: !words;
      (match result with
      | Ok u -> Alcotest.(check int) (Printf.sprintf "pair %d %s patched the tree" k what) 1 u.u_trees_patched
      | Error e -> Alcotest.fail e);
      let r = Obs.value reused - r0 and b = Obs.value built - b0 in
      Alcotest.(check int) (Printf.sprintf "pair %d %s: reused + built" k what) 100 (r + b);
      total_reused := !total_reused + r
    in
    step "move" (if c.score >= 0.06 then round3 (c.score -. 0.05) else round3 (c.score +. 0.05));
    step "restore" c.score
  done;
  Alcotest.(check bool) "the stream reused mappings" true (!total_reused > 0);
  let median = List.nth (List.sort Float.compare !words) (List.length !words / 2) in
  if median > max_update_minor_words then
    Alcotest.failf "the median update allocated %.0f minor words, above %.0f" median
      max_update_minor_words;
  let mset, tree = prepared () in
  (match Block_tree.validate tree with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "storage of the patched tree = a fresh build's"
    (Block_tree.storage_bytes (Block_tree.build mset))
    (Block_tree.storage_bytes tree)

(* perfbench attributes a served update to layers by the Obs names it
   reads around the request: the deltas of [Obs.counters] and [Obs.spans].
   A warm D7 update must move every one of them, so renaming a counter or
   span fails here rather than leaving a per-layer metric reading 0. *)
let test_d7_update_moves_layer_names () =
  let module Matching = Uxsm_mapping.Matching in
  let module Schema = Uxsm_schema.Schema in
  let module Block_tree = Uxsm_blocktree.Block_tree in
  let cat = Catalog.create ~exec:Executor.sequential () in
  (match
     Catalog.register cat ~name:"d7" ~doc_seed:1 ~doc_nodes:50
       (Protocol.From_dataset (Uxsm_workload.Dataset.d7, 42))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Catalog.prepared cat "d7" ~h:100 ~tau:Block_tree.default_params.tau with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let m = match Catalog.matching cat "d7" with Ok m -> m | Error e -> Alcotest.fail e in
  (* The stream's first move, one that keeps most of the top-100. *)
  let c = List.hd (Matching.correspondences m) in
  let delta =
    {
      Matching.empty_delta with
      set_scores =
        [
          ( Schema.path_string (Matching.source m) c.source,
            Schema.path_string (Matching.target m) c.target,
            if c.score >= 0.06 then c.score -. 0.05 else c.score +. 0.05 );
        ];
    }
  in
  let c0 = Obs.counters () and s0 = Obs.spans () in
  (match Catalog.update cat ~name:"d7" delta with Ok _ -> () | Error e -> Alcotest.fail e);
  let c1 = Obs.counters () and s1 = Obs.spans () in
  let moved before after name =
    let v0 = Option.value ~default:0 (List.assoc_opt name before) in
    match List.assoc_opt name after with Some v -> v > v0 | None -> false
  in
  List.iter
    (fun name -> Alcotest.(check bool) ("counter " ^ name ^ " moved") true (moved c0 c1 name))
    [
      "partition.components_reranked"; "partition.components_reused"; "partition.merges";
      "murty.solves"; "murty.expansions"; "mapping_set.mappings_reused";
    ];
  let count spans = List.map (fun (name, (n, _)) -> (name, n)) spans in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("span " ^ name ^ " moved") true (moved (count s0) (count s1) name))
    [ "partition.apply_delta" ]

(* ------------------------- lazy block trees ------------------------ *)

let blocktree_builds = Obs.counter "blocktree.builds"
let delta_applies = Obs.counter "partition.delta_applies"

let catalog_ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e

let d7_catalog ?cache_entries ?(spec = Protocol.From_dataset (Uxsm_workload.Dataset.d7, 42)) () =
  let cat = Catalog.create ?cache_entries ~exec:Executor.sequential () in
  ignore
    (catalog_ok "register d7"
       (Catalog.register cat ~name:"d7" ~doc_seed:Uxsm_workload.Gen_doc.default_seed spec));
  cat

(* The answers of Table III query [i] on "d7" at h = 100 and tau = 0.2. *)
let d7_answers cat ?k ~force i =
  let pattern = Uxsm_twig.Pattern.to_string (Uxsm_workload.Queries.q i) in
  Uxsm_ptq.Ptq.execute
    (catalog_ok pattern (Catalog.plan cat "d7" ~pattern ~h:100 ~tau:0.2 ~k ~force))

(* The stream's first move: one correspondence re-scored by 0.05. *)
let d7_first_move cat =
  let module Matching = Uxsm_mapping.Matching in
  let module Schema = Uxsm_schema.Schema in
  let m = catalog_ok "matching" (Catalog.matching cat "d7") in
  let c = List.hd (Matching.correspondences m) in
  {
    Matching.empty_delta with
    set_scores =
      [
        ( Schema.path_string (Matching.source m) c.source,
          Schema.path_string (Matching.target m) c.target,
          if c.score >= 0.06 then c.score -. 0.05 else c.score +. 0.05 );
      ];
  }

(* Only a forced Algorithm 4 plan reads the block tree, so only it builds
   one: auto plans leave the (h, tau) tree entry unbuilt, every forced
   [tree] plan of one (h, tau) shares one build, and after an update the
   next forced [tree] plan builds the tree of the patched set. *)
let test_tree_built_only_when_read () =
  let cat = d7_catalog () in
  let b0 = Obs.value blocktree_builds in
  List.iter
    (fun (i, k) -> ignore (d7_answers cat ?k ~force:`Auto i))
    (List.init 10 (fun i -> (i + 1, None)) @ List.init 6 (fun i -> (i + 4, Some 10)));
  Alcotest.(check int) "auto plans build no tree" 0 (Obs.value blocktree_builds - b0);
  Alcotest.(check bool) "the tree entry is cached" true
    (List.mem (Catalog.K_tree ("d7", 100, 0.2)) (Catalog.cache_keys cat));
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "Q%d: forced tree = forced basic" i) true
        (d7_answers cat ~force:`Tree i = d7_answers cat ~force:`Basic i))
    [ 4; 7 ];
  Alcotest.(check int) "two forced tree plans build one tree" 1 (Obs.value blocktree_builds - b0);
  let delta = d7_first_move cat in
  let u = catalog_ok "update" (Catalog.update cat ~name:"d7" delta) in
  Alcotest.(check int) "the tree entry was re-pointed" 1 u.Catalog.u_trees_patched;
  Alcotest.(check int) "the update built no tree" 1 (Obs.value blocktree_builds - b0);
  let tree = d7_answers cat ~force:`Tree 4 in
  Alcotest.(check int) "the next forced tree plan builds one" 2 (Obs.value blocktree_builds - b0);
  Alcotest.(check bool) "after the update, forced tree = forced basic" true
    (tree = d7_answers cat ~force:`Basic 4);
  let updated = catalog_ok "updated matching" (Catalog.matching cat "d7") in
  let fresh =
    d7_catalog ~spec:(Protocol.From_matching_text (Serialize.matching_to_string updated)) ()
  in
  Alcotest.(check bool) "after the update, forced tree = a fresh register's" true
    (tree = d7_answers fresh ~force:`Tree 4)

(* tau outside (0, 1], NaN included, fails every plan when its tree entry
   is created, although an auto plan never builds the tree. *)
let test_catalog_refuses_bad_tau () =
  let cat = Catalog.create ~exec:Executor.sequential () in
  ignore
    (catalog_ok "register"
       (Catalog.register cat ~name:"w" ~doc_seed:3 (Protocol.From_mapping_set_text fig3_text)));
  List.iter
    (fun tau ->
      List.iter
        (fun force ->
          match Catalog.plan cat "w" ~pattern:"ORDER//ICN" ~h:5 ~tau ~k:None ~force with
          | Error _ -> ()
          | Ok _ ->
            Alcotest.failf "a %s plan at tau %g was compiled" (Plan.force_to_string force) tau)
        [ `Auto; `Basic; `Tree ];
      match Catalog.prepared cat "w" ~h:5 ~tau with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "prepared at tau %g" tau)
    [ Float.nan; 0.0; -0.5; 1.5 ];
  Alcotest.(check int) "no entry was created" 0 (Catalog.cache_length cat)

(* An update re-ranks one mapping set per h, even when that h has no set
   entry left and two tree entries pin its set, and re-points both tree
   entries at that one set. *)
let test_update_reranks_once_per_h () =
  let cat = d7_catalog ~cache_entries:3 () in
  let prepared tau = catalog_ok "prepared" (Catalog.prepared cat "d7" ~h:100 ~tau) in
  List.iter (fun tau -> ignore (prepared tau)) [ 0.2; 0.3; 0.2; 0.3 ];
  (* The plan evicts the least recently used entry: the set entry. *)
  ignore (d7_answers cat ~force:`Auto 4);
  Alcotest.(check bool) "the set entry was evicted" false
    (List.mem (Catalog.K_mset ("d7", 100)) (Catalog.cache_keys cat));
  let a0 = Obs.value delta_applies in
  let u = catalog_ok "update" (Catalog.update cat ~name:"d7" (d7_first_move cat)) in
  Alcotest.(check int) "one re-rank" 1 (Obs.value delta_applies - a0);
  Alcotest.(check int) "both tree entries re-pointed" 2 u.Catalog.u_trees_patched;
  Alcotest.(check bool) "both tree entries hold one set" true
    (fst (prepared 0.2) == fst (prepared 0.3))

(* A register whose matching text carries a non-finite score is refused
   with a structured error, and the corpus already registered under that
   name keeps answering. *)
let test_register_rejects_non_finite_scores () =
  let module Matching = Uxsm_mapping.Matching in
  let cat = Catalog.create ~exec:Executor.sequential () in
  let good = Serialize.matching_to_string Fixtures.fig1_matching in
  (match Catalog.register cat ~name:"c" ~doc_seed:1 (Protocol.From_matching_text good) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let before = Catalog.mapping_set cat "c" ~h:5 |> Result.map Serialize.mapping_set_to_string in
  let c0 = List.hd (Matching.correspondences Fixtures.fig1_matching) in
  let first_line = Printf.sprintf "  %.17g %d %d" c0.score c0.source c0.target in
  List.iter
    (fun spelling ->
      let bad =
        String.concat "\n"
          (List.map
             (fun l -> if l = first_line then Printf.sprintf "  %s %d %d" spelling c0.source c0.target else l)
             (String.split_on_char '\n' good))
      in
      Alcotest.(check bool) ("rewrote the first score to " ^ spelling) false (bad = good);
      (match Catalog.register cat ~name:"c" ~doc_seed:1 (Protocol.From_matching_text bad) with
      | Error e ->
        Alcotest.(check bool) ("structured error: " ^ e) true (contains ~needle:"bad matching text" e)
      | Ok _ -> Alcotest.failf "register accepted score %s" spelling);
      Alcotest.(check (result string string))
        ("corpus still answers after " ^ spelling) before
        (Catalog.mapping_set cat "c" ~h:5 |> Result.map Serialize.mapping_set_to_string))
    [ "nan"; "-nan"; "inf" ]

(* ------------------------ o-ratio once per set --------------------- *)

let o_ratio_pairs = Obs.counter "mapping_set.o_ratio_pairs"

let register_d7 srv =
  assert_ok "register d7" (response_of_line srv {|{"op":"register","name":"d7","dataset":"D7"}|})

let o_ratio_of_reply what line =
  let j = parse_reply what line in
  assert_ok what j;
  match Json.member "o_ratio" j with
  | Some (Json.Float f) -> f
  | _ -> Alcotest.failf "%s: no float o_ratio in %s" what line

(* A served [mappings] reads the o-ratio its set keeps: a second request
   on one set evaluates no pair and is byte-identical to the first. An
   update makes a new set, so the next reply carries the o-ratio of a
   fresh [generate] on the updated matching. The chosen move changes the
   top-100 set's o-ratio, so an average kept across sets would fail. *)
let test_mappings_o_ratio_once_per_set () =
  let module Matching = Uxsm_mapping.Matching in
  let module Schema = Uxsm_schema.Schema in
  let srv = Server.create ~cache_entries:16 () in
  register_d7 srv;
  let line = {|{"op":"mappings","corpus":"d7","h":100}|} in
  let first = Server.handle_line srv line in
  let before = Obs.value o_ratio_pairs in
  let second = Server.handle_line srv line in
  Alcotest.(check int) "the second mappings evaluates no pair" 0
    (Obs.value o_ratio_pairs - before);
  Alcotest.(check string) "byte-identical replies" first second;
  let cat = Server.catalog srv in
  let matching () = match Catalog.matching cat "d7" with Ok m -> m | Error e -> Alcotest.fail e in
  let m = matching () in
  let corrs = Array.of_list (Matching.correspondences m) in
  let c = corrs.(Array.length corrs / 3) in
  let update =
    Json.to_string
      (Json.Assoc
         [
           ("op", Json.String "update");
           ("corpus", Json.String "d7");
           ( "set",
             Json.List
               [
                 Json.Assoc
                   [
                     ("source", Json.String (Schema.path_string (Matching.source m) c.source));
                     ("target", Json.String (Schema.path_string (Matching.target m) c.target));
                     ("score", Json.Float (c.score /. 2.0));
                   ];
               ] );
         ])
  in
  let r = response_of_line srv update in
  assert_ok "update" r;
  Alcotest.(check int) "the update patched the cached set" 1 (int_member "msets_patched" r);
  let after = o_ratio_of_reply "mappings after the update" (Server.handle_line srv line) in
  let fresh = Mapping_set.average_o_ratio (Mapping_set.generate ~h:100 (matching ())) in
  Alcotest.(check int64) "o-ratio of generate on the updated matching"
    (Int64.bits_of_float fresh) (Int64.bits_of_float after);
  Alcotest.(check bool) "the update moved the o-ratio" false
    (Float.equal after (o_ratio_of_reply "first mappings" first))

(* A pipelined batch of [mappings] on cold sets: on a three-domain pool
   several requests may read one set's empty o-ratio at once, and every
   reply must equal the sequential server's. *)
let test_mappings_batch_cold_set () =
  let batch =
    List.init 8 (fun i ->
        Printf.sprintf {|{"op":"mappings","corpus":"d7","h":%d,"id":%d}|}
          (if i mod 2 = 0 then 100 else 300)
          i)
  in
  let replies srv =
    register_d7 srv;
    Server.handle_lines srv batch
  in
  let seq = replies (Server.create ~cache_entries:16 ()) in
  let par = replies (Server.create ~cache_entries:16 ~exec:(Executor.domains 3) ()) in
  Alcotest.(check int) "one reply per request" 8 (List.length par);
  List.iteri
    (fun i (a, b) ->
      ignore (o_ratio_of_reply (Printf.sprintf "mappings %d" i) a);
      Alcotest.(check string) (Printf.sprintf "mappings %d identical" i) a b)
    (List.combine seq par)

let suite =
  [
    Alcotest.test_case "LRU capacity bounds" `Quick test_lru_capacity_bounds;
    Alcotest.test_case "LRU counters exact under concurrency" `Quick test_lru_concurrent_stats;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "LRU hit/miss counters" `Quick test_lru_counters;
    Alcotest.test_case "protocol parsing" `Quick test_protocol_parse;
    Alcotest.test_case "protocol errors name fields" `Quick test_protocol_errors;
    Alcotest.test_case "protocol round-trip" `Quick test_protocol_round_trip;
    Alcotest.test_case "update codec: parse + field-naming errors" `Quick
      test_protocol_update_parse;
    QCheck_alcotest.to_alcotest prop_update_round_trip;
    Alcotest.test_case "dispatch endpoints" `Quick test_dispatch_basic;
    Alcotest.test_case "update patches warm caches (e2e)" `Quick test_update_dispatch;
    Alcotest.test_case "update grows schemas, rebuilds the doc" `Quick
      test_update_with_schema_growth;
    Alcotest.test_case "update growing the target re-indexes it" `Quick
      test_update_grows_target_index;
    Alcotest.test_case "updates survive eviction via delta replay" `Quick
      test_update_survives_eviction;
    Alcotest.test_case "stats_reset opens a fresh window" `Quick test_stats_reset;
    Alcotest.test_case "malformed input never crashes" `Quick test_dispatch_errors_never_crash;
    Alcotest.test_case "request sizes bounded at parse time" `Quick test_request_size_bounds;
    Alcotest.test_case "identical queries amortize (e2e)" `Quick test_query_amortization;
    Alcotest.test_case "eviction rebuilds, answers unchanged" `Quick test_cache_eviction_rebuilds;
    Alcotest.test_case "evaluator field on query/query_topk" `Quick test_query_evaluator_field;
    Alcotest.test_case "explain replies carry the plan" `Quick test_explain_carries_plan;
    Alcotest.test_case "save writes no file a request names" `Quick test_save_writes_no_file;
    Alcotest.test_case "pipelined batches across backends" `Quick test_handle_lines_batching;
    Alcotest.test_case "explain in a batch counts only itself" `Quick
      test_explain_counts_only_itself;
    Alcotest.test_case "stdio transport drains on shutdown" `Quick test_serve_channels;
    Alcotest.test_case "stdio over-long line: one error, next served" `Quick
      test_serve_channels_overlong_line;
    Alcotest.test_case "overloaded response shape" `Quick test_overloaded_response_shape;
    Alcotest.test_case "catalog shards serve domains concurrently" `Quick
      test_catalog_concurrent_shards;
    Alcotest.test_case "TCP multi-client stress (differential)" `Quick test_tcp_stress;
    Alcotest.test_case "Unix-socket multi-client stress (differential)" `Quick
      test_unix_stress;
    Alcotest.test_case "graceful drain mid-load" `Quick test_drain_mid_load;
    Alcotest.test_case "bounded admission queue rejects with overloaded" `Quick
      test_admission_overload;
    Alcotest.test_case "over-long line: one error, connection kept" `Quick test_overlong_line;
    Alcotest.test_case "client: over-long reply is an error, bounded" `Quick
      test_client_overlong_reply;
    Alcotest.test_case "D7 move/restore update stream pinned" `Quick
      test_d7_update_stream_pinned;
    Alcotest.test_case "D7 move/restore: mappings reused, tree validates" `Quick
      test_d7_update_stream_reuses_mappings;
    Alcotest.test_case "D7 update moves the per-layer names perfbench reads" `Quick
      test_d7_update_moves_layer_names;
    Alcotest.test_case "block trees are built only when a plan reads them" `Quick
      test_tree_built_only_when_read;
    Alcotest.test_case "catalog refuses tau outside (0,1], NaN included" `Quick
      test_catalog_refuses_bad_tau;
    Alcotest.test_case "an update re-ranks one mapping set per h" `Quick
      test_update_reranks_once_per_h;
    Alcotest.test_case "register rejects NaN and infinite scores" `Quick
      test_register_rejects_non_finite_scores;
    Alcotest.test_case "mappings: o-ratio once per set, fresh after update" `Quick
      test_mappings_o_ratio_once_per_set;
    Alcotest.test_case "mappings batch on cold sets across backends" `Quick
      test_mappings_batch_cold_set;
  ]
