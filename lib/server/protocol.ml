module Json = Uxsm_util.Json
module Dataset = Uxsm_workload.Dataset

type source_spec =
  | From_dataset of Dataset.t * int
  | From_matching_text of string
  | From_mapping_set_text of string

type request =
  | Ping
  | Register of {
      name : string;
      spec : source_spec;
      doc_seed : int;
      doc_nodes : int option;
    }
  | Match of { corpus : string }
  | Mappings of { corpus : string; h : int }
  | Query of {
      corpus : string;
      pattern : string;
      h : int;
      tau : float;
      k : int option;
      evaluator : Uxsm_plan.Plan.force;
    }
  | Explain of {
      corpus : string;
      pattern : string;
      h : int;
      tau : float;
      k : int option;
      evaluator : Uxsm_plan.Plan.force;
    }
  | Save of { corpus : string; h : int }
  | Update of { corpus : string; delta : Uxsm_mapping.Matching.delta }
  | Stats
  | Stats_reset
  | Shutdown

type envelope = {
  id : Json.t option;
  req : request;
}

let default_h = 100
let default_tau = Uxsm_blocktree.Block_tree.default_params.tau

let op_name = function
  | Ping -> "ping"
  | Register _ -> "register"
  | Match _ -> "match"
  | Mappings _ -> "mappings"
  | Query { k = Some _; _ } -> "query_topk"
  | Query _ -> "query"
  | Explain _ -> "explain"
  | Save _ -> "save"
  | Update _ -> "update"
  | Stats -> "stats"
  | Stats_reset -> "stats_reset"
  | Shutdown -> "shutdown"

let is_pure = function
  | Register _ | Update _ | Explain _ | Stats_reset | Shutdown -> false
  | Ping | Match _ | Mappings _ | Query _ | Save _ | Stats -> true

(* ------------------------------ decoding -------------------------- *)

exception Fail of string

let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let opt_field conv what op name j =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> (
    match conv v with
    | Some x -> Some x
    | None -> failf "%s: field %S is not %s" op name what)

let req_field conv what op name j =
  match opt_field conv what op name j with
  | Some x -> x
  | None -> failf "%s: missing field %S" op name

let str_opt = opt_field Json.to_string_opt "a string"
let str = req_field Json.to_string_opt "a string"
let int_opt = opt_field Json.to_int "an integer"
let float_opt = opt_field Json.to_float "a number"

(* Request sizes are bounded at parse time, so one line cannot ask the
   dispatcher for unbounded work: h and k up to the largest h of the
   paper's experiments (Fig. 10(f)), a generated document up to ~29 times
   the default one. *)
let max_h = 1000
let max_k = 1000
let max_doc_nodes = 100_000

let bounded ~limit op name = function
  | Some n when n < 1 -> failf "%s: field %S must be >= 1" op name
  | Some n when n > limit -> failf "%s: field %S must be <= %d" op name limit
  | v -> v

let h_of op j = Option.value ~default:default_h (bounded ~limit:max_h op "h" (int_opt op "h" j))

let tau_of op j =
  match float_opt op "tau" j with
  | None -> default_tau
  | Some t when t > 0.0 && t <= 1.0 -> t
  | Some _ -> failf "%s: field \"tau\" must be in (0, 1]" op

let corpus_of op j = str op "corpus" j
let pattern_of op j = str op "query" j

(* [k] is optional for query and explain, and required by query_topk. *)
let k_of op j =
  match bounded ~limit:max_k op "k" (int_opt op "k" j) with
  | None when op = "query_topk" -> failf "%s: missing field \"k\"" op
  | k -> k

let evaluator_of op j =
  match str_opt op "evaluator" j with
  | None -> `Auto
  | Some s -> (
    match Uxsm_plan.Plan.force_of_string s with
    | Some f -> f
    | None -> failf "%s: field \"evaluator\" must be one of \"basic\", \"tree\", \"auto\"" op)

let register_of j =
  let op = "register" in
  let name = str op "name" j in
  let sources =
    List.filter_map Fun.id
      [
        Option.map
          (fun id ->
            match Dataset.find id with
            | Some d ->
              let seed = Option.value ~default:Dataset.default_seed (int_opt op "seed" j) in
              From_dataset (d, seed)
            | None -> failf "%s: unknown dataset %S (D1..D10)" op id)
          (str_opt op "dataset" j);
        Option.map (fun t -> From_matching_text t) (str_opt op "matching" j);
        Option.map (fun t -> From_mapping_set_text t) (str_opt op "mapping_set" j);
      ]
  in
  match sources with
  | [ spec ] ->
    Register
      {
        name;
        spec;
        doc_seed =
          Option.value ~default:Uxsm_workload.Gen_doc.default_seed (int_opt op "doc_seed" j);
        doc_nodes = bounded ~limit:max_doc_nodes op "doc_nodes" (int_opt op "doc_nodes" j);
      }
  | [] -> failf "%s: need one of \"dataset\", \"matching\", \"mapping_set\"" op
  | _ -> failf "%s: fields \"dataset\", \"matching\", \"mapping_set\" are exclusive" op

(* An update's delta arrives as four optional arrays of small objects:
   {"set":[{"source":PATH,"target":PATH,"score":X}...],
    "remove":[{"source":PATH,"target":PATH}...],
    "add_source_elements":[{"parent":PATH,"name":NAME}...],
    "add_target_elements":[...]}. Paths use the '.'-joined path_string
   format; an entirely empty delta is rejected rather than silently
   acknowledged. *)
let update_of j =
  let op = "update" in
  let corpus = corpus_of op j in
  let entries name =
    match Json.member name j with
    | None | Some Json.Null -> []
    | Some (Json.List items) -> items
    | Some _ -> failf "%s: field %S is not an array" op name
  in
  let entry_str name item field =
    match Json.member field item with
    | Some (Json.String s) -> s
    | Some _ -> failf "%s: field %S entries: field %S is not a string" op name field
    | None -> failf "%s: field %S entries: missing field %S" op name field
  in
  let set =
    List.map
      (fun item ->
        let score =
          match Json.member "score" item with
          | Some v -> (
            match Json.to_float v with
            | Some f -> f
            | None -> failf "%s: field \"set\" entries: field \"score\" is not a number" op)
          | None -> failf "%s: field \"set\" entries: missing field \"score\"" op
        in
        (entry_str "set" item "source", entry_str "set" item "target", score))
      (entries "set")
  in
  let remove =
    List.map
      (fun item -> (entry_str "remove" item "source", entry_str "remove" item "target"))
      (entries "remove")
  in
  let adds name =
    List.map
      (fun item -> (entry_str name item "parent", entry_str name item "name"))
      (entries name)
  in
  let delta =
    {
      Uxsm_mapping.Matching.set_scores = set;
      remove_corrs = remove;
      add_source = adds "add_source_elements";
      add_target = adds "add_target_elements";
    }
  in
  if Uxsm_mapping.Matching.delta_is_empty delta then
    failf
      "%s: need at least one of \"set\", \"remove\", \"add_source_elements\", \
       \"add_target_elements\""
      op;
  Update { corpus; delta }

let request_of op j =
  match op with
  | "ping" -> Ping
  | "register" -> register_of j
  | "match" -> Match { corpus = corpus_of "match" j }
  | "mappings" -> Mappings { corpus = corpus_of "mappings" j; h = h_of "mappings" j }
  | ("query" | "query_topk" | "explain") as op ->
    (* One reader for the three query-shaped ops; "query" with a "k" is a
       top-k query, as "query_topk" is. *)
    let k = k_of op j in
    let corpus, pattern, h, tau, evaluator =
      (corpus_of op j, pattern_of op j, h_of op j, tau_of op j, evaluator_of op j)
    in
    if op = "explain" then Explain { corpus; pattern; h; tau; k; evaluator }
    else Query { corpus; pattern; h; tau; k; evaluator }
  | "save" ->
    let op = "save" in
    Save { corpus = corpus_of op j; h = h_of op j }
  | "update" -> update_of j
  | "stats" -> Stats
  | "stats_reset" -> Stats_reset
  | "shutdown" -> Shutdown
  | op -> failf "unknown op %S" op

type parse_error = { err_id : Json.t option; message : string }

let not_an_object = "request is not a JSON object"

let parse j =
  match j with
  | Json.Assoc _ -> (
    let err_id = Json.member "id" j in
    try Ok { id = err_id; req = request_of (str "request" "op" j) j }
    with Fail msg -> Error { err_id; message = msg })
  | _ -> Error { err_id = None; message = not_an_object }

let parse_fields ~op j =
  match j with
  | Json.Assoc _ -> ( try Ok (request_of op j) with Fail msg -> Error msg)
  | _ -> Error not_an_object

let parse_line line =
  match Json.of_string line with
  | Error e -> Error { err_id = None; message = Printf.sprintf "malformed JSON: %s" e }
  | Ok j -> parse j

(* ------------------------------ encoding -------------------------- *)

let to_json { id; req } =
  let id_field = match id with None -> [] | Some v -> [ ("id", v) ] in
  let fields =
    match req with
    | Ping -> []
    | Register { name; spec; doc_seed; doc_nodes } ->
      [ ("name", Json.String name) ]
      @ (match spec with
        | From_dataset (d, seed) -> [ ("dataset", Json.String d.Dataset.id); ("seed", Json.Int seed) ]
        | From_matching_text t -> [ ("matching", Json.String t) ]
        | From_mapping_set_text t -> [ ("mapping_set", Json.String t) ])
      @ [ ("doc_seed", Json.Int doc_seed) ]
      @ (match doc_nodes with None -> [] | Some n -> [ ("doc_nodes", Json.Int n) ])
    | Match { corpus } -> [ ("corpus", Json.String corpus) ]
    | Mappings { corpus; h } -> [ ("corpus", Json.String corpus); ("h", Json.Int h) ]
    | Query { corpus; pattern; h; tau; k; evaluator }
    | Explain { corpus; pattern; h; tau; k; evaluator } ->
      [ ("corpus", Json.String corpus); ("query", Json.String pattern); ("h", Json.Int h);
        ("tau", Json.Float tau) ]
      @ (match k with None -> [] | Some k -> [ ("k", Json.Int k) ])
      @ (match evaluator with
        | `Auto -> []  (* the default round-trips as absence *)
        | (`Basic | `Tree) as f ->
          [ ("evaluator", Json.String (Uxsm_plan.Plan.force_to_string f)) ])
    | Save { corpus; h } -> [ ("corpus", Json.String corpus); ("h", Json.Int h) ]
    | Update { corpus; delta } ->
      let pair_entries f l =
        Json.List (List.map f l)
      in
      [ ("corpus", Json.String corpus) ]
      @ (match delta.Uxsm_mapping.Matching.set_scores with
        | [] -> []  (* empty arrays round-trip as absence *)
        | l ->
          [ ( "set",
              pair_entries
                (fun (s, t, w) ->
                  Json.Assoc
                    [ ("source", Json.String s); ("target", Json.String t);
                      ("score", Json.Float w) ])
                l ) ])
      @ (match delta.Uxsm_mapping.Matching.remove_corrs with
        | [] -> []
        | l ->
          [ ( "remove",
              pair_entries
                (fun (s, t) ->
                  Json.Assoc [ ("source", Json.String s); ("target", Json.String t) ])
                l ) ])
      @ (let adds name l =
           match l with
           | [] -> []
           | l ->
             [ ( name,
                 pair_entries
                   (fun (p, n) ->
                     Json.Assoc [ ("parent", Json.String p); ("name", Json.String n) ])
                   l ) ]
         in
         adds "add_source_elements" delta.Uxsm_mapping.Matching.add_source
         @ adds "add_target_elements" delta.Uxsm_mapping.Matching.add_target)
    | Stats | Stats_reset | Shutdown -> []
  in
  Json.Assoc (id_field @ (("op", Json.String (op_name req)) :: fields))

(* ------------------------------ framing --------------------------- *)

let max_line_bytes = 16 * 1024 * 1024

type framer = {
  partial : Buffer.t;  (* the line read so far *)
  mutable discarding : bool;  (* dropping the rest of an over-long line *)
}

let framer () = { partial = Buffer.create 4096; discarding = false }

(* Scan only the [n] bytes just read for '\n'. Blank lines are skipped. A
   line that outgrows [max_line_bytes] calls [overflow] once and is dropped
   through its newline, so the partial line never holds more than the
   limit. *)
let feed fr chunk n ~line ~overflow =
  let take lo hi =
    if not fr.discarding then
      if Buffer.length fr.partial + (hi - lo) > max_line_bytes then begin
        Buffer.reset fr.partial;
        fr.discarding <- true;
        overflow ()
      end
      else Buffer.add_subbytes fr.partial chunk lo (hi - lo)
  in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get chunk i = '\n' then begin
      take !start i;
      if fr.discarding then fr.discarding <- false
      else begin
        let l = Buffer.contents fr.partial in
        Buffer.clear fr.partial;
        if String.trim l <> "" then line l
      end;
      start := i + 1
    end
  done;
  take !start n

let ok_response ?id fields =
  let id_field = match id with None -> [] | Some v -> [ ("id", v) ] in
  Json.Assoc (id_field @ (("ok", Json.Bool true) :: fields))

let error_response ?id msg =
  let id_field = match id with None -> [] | Some v -> [ ("id", v) ] in
  Json.Assoc (id_field @ [ ("ok", Json.Bool false); ("error", Json.String msg) ])

let overloaded_response ?id () =
  let id_field = match id with None -> [] | Some v -> [ ("id", v) ] in
  Json.Assoc
    (id_field
    @ [
        ("ok", Json.Bool false);
        ("error", Json.String "overloaded: admission queue full, retry later");
        ("overloaded", Json.Bool true);
      ])

let is_overloaded_response j = Json.member "overloaded" j = Some (Json.Bool true)
