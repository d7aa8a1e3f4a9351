module Json = Uxsm_util.Json

type measurement = {
  m_name : string;
  m_seconds_per_run : float;
}

type experiment = {
  e_id : string;
  e_title : string;
  e_params : (string * Json.t) list;
  e_wall_seconds : float;
  e_measurements : measurement list;
  e_counters : (string * int) list;
  e_spans : (string * (int * float)) list;
  e_histograms : (string * Obs.hist_view) list;
}

type loadgen = {
  lg_profile : string;
  lg_mode : string;
  lg_clients : int;
  lg_target_rps : float option;
  lg_warmup_seconds : float;
  lg_window_seconds : float;
  lg_plan_cache : string;
  lg_seed : int;
  lg_sent : int;
  lg_completed : int;
  lg_errors : int;
  lg_overloaded : int;
  lg_late : int;
  lg_offered_rps : float;
  lg_achieved_rps : float;
  lg_latency : (string * Obs.hist_view) list;
  lg_server : (string * int) list;
}

type run = {
  r_git_rev : string;
  r_unix_time : float;
  r_argv : string list;
  r_jobs : int;
  r_executor : string;
  r_experiments : experiment list;
  r_kind : string;
  r_loadgen : loadgen option;
}

let experiment ?(params = []) ?(measurements = []) ?snapshot ~id ~title ~wall_seconds () =
  let snap =
    match snapshot with
    | Some s -> Obs.nonzero s
    | None -> { Obs.snap_counters = []; snap_spans = []; snap_histograms = [] }
  in
  {
    e_id = id;
    e_title = title;
    e_params = params;
    e_wall_seconds = wall_seconds;
    e_measurements = measurements;
    e_counters = snap.Obs.snap_counters;
    e_spans = snap.Obs.snap_spans;
    e_histograms = snap.Obs.snap_histograms;
  }

(* ------------------------------ to JSON --------------------------- *)

let measurement_to_json m =
  Json.Assoc [ ("name", Json.String m.m_name); ("seconds_per_run", Json.Float m.m_seconds_per_run) ]

let hist_view_to_json (v : Obs.hist_view) =
  Json.Assoc
    [
      ("count", Json.Int v.Obs.hv_count);
      ("sum", Json.Float v.Obs.hv_sum);
      ( "buckets",
        Json.List
          (List.map
             (fun (b, c) -> Json.List [ Json.Float b; Json.Int c ])
             v.Obs.hv_buckets) );
      ("overflow", Json.Int v.Obs.hv_overflow);
    ]

let experiment_to_json e =
  Json.Assoc
    ([
       ("id", Json.String e.e_id);
       ("title", Json.String e.e_title);
       ("params", Json.Assoc e.e_params);
       ("wall_seconds", Json.Float e.e_wall_seconds);
       ("measurements", Json.List (List.map measurement_to_json e.e_measurements));
       ("counters", Json.Assoc (List.map (fun (n, v) -> (n, Json.Int v)) e.e_counters));
       ( "spans",
         Json.Assoc
           (List.map
              (fun (n, (c, s)) ->
                (n, Json.Assoc [ ("count", Json.Int c); ("seconds", Json.Float s) ]))
              e.e_spans) );
     ]
    (* Absent when empty, so pre-histogram records and new ones with no
       histogram traffic stay byte-for-byte in the old shape. *)
    @
    match e.e_histograms with
    | [] -> []
    | hs -> [ ("histograms", Json.Assoc (List.map (fun (n, v) -> (n, hist_view_to_json v)) hs)) ])

let loadgen_to_json lg =
  Json.Assoc
    ([
       ("profile", Json.String lg.lg_profile);
       ("mode", Json.String lg.lg_mode);
       ("clients", Json.Int lg.lg_clients);
     ]
    @ (match lg.lg_target_rps with
      | None -> []
      | Some r -> [ ("target_rps", Json.Float r) ])
    @ [
        ("warmup_seconds", Json.Float lg.lg_warmup_seconds);
        ("window_seconds", Json.Float lg.lg_window_seconds);
        ("plan_cache", Json.String lg.lg_plan_cache);
        ("seed", Json.Int lg.lg_seed);
        ("sent", Json.Int lg.lg_sent);
        ("completed", Json.Int lg.lg_completed);
        ("errors", Json.Int lg.lg_errors);
        ("overloaded", Json.Int lg.lg_overloaded);
        ("late", Json.Int lg.lg_late);
        ("offered_rps", Json.Float lg.lg_offered_rps);
        ("achieved_rps", Json.Float lg.lg_achieved_rps);
        ( "latency",
          Json.Assoc (List.map (fun (n, v) -> (n, hist_view_to_json v)) lg.lg_latency) );
        ("server", Json.Assoc (List.map (fun (n, v) -> (n, Json.Int v)) lg.lg_server));
      ])

let run_to_json r =
  Json.Assoc
    ([
       ("git_rev", Json.String r.r_git_rev);
       ("unix_time", Json.Float r.r_unix_time);
       ("argv", Json.List (List.map (fun a -> Json.String a) r.r_argv));
       ("jobs", Json.Int r.r_jobs);
       ("executor", Json.String r.r_executor);
       ("experiments", Json.List (List.map experiment_to_json r.r_experiments));
     ]
    (* Kind and payload are omitted for plain bench records so pre-loadgen
       records round-trip byte-identically. *)
    @ (match r.r_kind with
      | "bench" -> []
      | k -> [ ("kind", Json.String k) ])
    @
    match r.r_loadgen with
    | None -> []
    | Some lg -> [ ("loadgen", loadgen_to_json lg) ])

let run_to_string r = Json.to_string (run_to_json r)

(* ----------------------------- from JSON -------------------------- *)

exception Fail of string

let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> failf "missing field %S" name

let get what conv name j =
  match conv (field name j) with
  | Some v -> v
  | None -> failf "field %S is not a %s" name what

let str = get "string" Json.to_string_opt
let num = get "number" Json.to_float
let items = get "array" Json.to_list
let fields = get "object" Json.to_assoc

let measurement_of_json j =
  { m_name = str "name" j; m_seconds_per_run = num "seconds_per_run" j }

let span_of_json name j =
  (name, (get "int" Json.to_int "count" j, num "seconds" j))

let hist_view_of_json name j =
  let bucket = function
    | Json.List [ b; c ] -> (
      match (Json.to_float b, Json.to_int c) with
      | Some b, Some c -> (b, c)
      | _ -> failf "histogram %S has a malformed bucket" name)
    | _ -> failf "histogram %S has a malformed bucket" name
  in
  {
    Obs.hv_count = get "int" Json.to_int "count" j;
    hv_sum = num "sum" j;
    hv_buckets = List.map bucket (items "buckets" j);
    hv_overflow = get "int" Json.to_int "overflow" j;
  }

let experiment_of_json j =
  {
    e_id = str "id" j;
    e_title = str "title" j;
    e_params = fields "params" j;
    e_wall_seconds = num "wall_seconds" j;
    e_measurements = List.map measurement_of_json (items "measurements" j);
    e_counters =
      List.map
        (fun (n, v) ->
          match Json.to_int v with
          | Some i -> (n, i)
          | None -> failf "counter %S is not an int" n)
        (fields "counters" j);
    e_spans = List.map (fun (n, v) -> span_of_json n v) (fields "spans" j);
    e_histograms =
      (* Optional: records written before histograms existed carry none. *)
      (match Json.member "histograms" j with
      | None -> []
      | Some h -> (
        match Json.to_assoc h with
        | Some hs -> List.map (fun (n, v) -> (n, hist_view_of_json n v)) hs
        | None -> failf "field \"histograms\" is not an object"));
  }

(* Executor fields are optional on parse: pre-executor records (PR 1's
   baseline among them) carry neither, and can only have run sequentially. *)
let opt_field ~default conv name j =
  match Json.member name j with
  | None -> default
  | Some v -> (
    match conv v with
    | Some x -> x
    | None -> failf "field %S has the wrong type" name)

let int_assoc what name j =
  List.map
    (fun (n, v) ->
      match Json.to_int v with
      | Some i -> (n, i)
      | None -> failf "%s %S is not an int" what n)
    (fields name j)

let loadgen_of_json j =
  {
    lg_profile = str "profile" j;
    lg_mode = str "mode" j;
    lg_clients = get "int" Json.to_int "clients" j;
    lg_target_rps =
      (match Json.member "target_rps" j with
      | None -> None
      | Some v -> (
        match Json.to_float v with
        | Some f -> Some f
        | None -> failf "field \"target_rps\" is not a number"));
    lg_warmup_seconds = num "warmup_seconds" j;
    lg_window_seconds = num "window_seconds" j;
    lg_plan_cache = str "plan_cache" j;
    lg_seed = get "int" Json.to_int "seed" j;
    lg_sent = get "int" Json.to_int "sent" j;
    lg_completed = get "int" Json.to_int "completed" j;
    lg_errors = get "int" Json.to_int "errors" j;
    lg_overloaded = get "int" Json.to_int "overloaded" j;
    lg_late = get "int" Json.to_int "late" j;
    lg_offered_rps = num "offered_rps" j;
    lg_achieved_rps = num "achieved_rps" j;
    lg_latency = List.map (fun (n, v) -> (n, hist_view_of_json n v)) (fields "latency" j);
    lg_server = int_assoc "server counter" "server" j;
  }

let run_of_json j =
  try
    Ok
      {
        r_git_rev = str "git_rev" j;
        r_unix_time = num "unix_time" j;
        r_jobs = opt_field ~default:1 Json.to_int "jobs" j;
        r_executor = opt_field ~default:"sequential" Json.to_string_opt "executor" j;
        r_argv =
          List.map
            (fun a ->
              match Json.to_string_opt a with
              | Some s -> s
              | None -> failf "argv entry is not a string")
            (items "argv" j);
        r_experiments = List.map experiment_of_json (items "experiments" j);
        r_kind = opt_field ~default:"bench" Json.to_string_opt "kind" j;
        r_loadgen =
          (match Json.member "loadgen" j with
          | None -> None
          | Some lj -> Some (loadgen_of_json lj));
      }
  with Fail msg -> Error msg

(* ---------------------------- invariants -------------------------- *)

(* The shared Obs histogram scale has 41 finite buckets; a view keeps only
   the nonzero ones, so any well-formed view has at most that many. *)
let max_hist_buckets = 41

let check_hist name (v : Obs.hist_view) =
  if v.Obs.hv_count < 0 then failf "histogram %S: negative count" name;
  if v.Obs.hv_overflow < 0 then failf "histogram %S: negative overflow" name;
  if List.length v.Obs.hv_buckets > max_hist_buckets then
    failf "histogram %S: %d buckets exceeds the %d-bucket scale" name
      (List.length v.Obs.hv_buckets) max_hist_buckets;
  let mass =
    List.fold_left
      (fun acc (bound, c) ->
        if c < 0 then failf "histogram %S: negative bucket count" name;
        if not (Float.is_finite bound) then failf "histogram %S: non-finite bucket bound" name;
        acc + c)
      0 v.Obs.hv_buckets
  in
  let rec ascending = function
    | (b1, _) :: ((b2, _) :: _ as rest) ->
      if b1 >= b2 then failf "histogram %S: bucket bounds not strictly ascending" name;
      ascending rest
    | _ -> ()
  in
  ascending v.Obs.hv_buckets;
  if mass + v.Obs.hv_overflow < v.Obs.hv_count then
    failf "histogram %S: bucket mass %d + overflow %d below count %d" name mass
      v.Obs.hv_overflow v.Obs.hv_count

let check_loadgen lg =
  if String.trim lg.lg_profile = "" then failf "loadgen: empty profile id";
  (match lg.lg_mode with
  | "closed" | "open" -> ()
  | m -> failf "loadgen: unknown mode %S" m);
  (match lg.lg_plan_cache with
  | "warm" | "cold" -> ()
  | p -> failf "loadgen: unknown plan_cache %S" p);
  if lg.lg_clients < 1 then failf "loadgen: clients must be >= 1";
  List.iter
    (fun (what, v) -> if v < 0 then failf "loadgen: negative %s" what)
    [
      ("sent", lg.lg_sent); ("completed", lg.lg_completed); ("errors", lg.lg_errors);
      ("overloaded", lg.lg_overloaded); ("late", lg.lg_late);
    ];
  List.iter
    (fun (what, v) ->
      if not (Float.is_finite v) || v < 0.0 then failf "loadgen: %s must be finite and >= 0" what)
    [
      ("warmup_seconds", lg.lg_warmup_seconds); ("offered_rps", lg.lg_offered_rps);
      ("achieved_rps", lg.lg_achieved_rps);
    ];
  if not (Float.is_finite lg.lg_window_seconds) || lg.lg_window_seconds <= 0.0 then
    failf "loadgen: window_seconds must be positive";
  (match lg.lg_target_rps with
  | Some r when (not (Float.is_finite r)) || r <= 0.0 -> failf "loadgen: target_rps must be positive"
  | _ -> ());
  if lg.lg_completed > lg.lg_sent then failf "loadgen: completed exceeds sent";
  List.iter (fun (n, v) -> check_hist n v) lg.lg_latency

(* Every measurement [<ID><fast>] of [e] must have a matching
   [<ID><slow>] and take less time per run than it. *)
let check_faster e ~fast ~slow ~what =
  let k = String.length fast in
  List.iter
    (fun meas ->
      let n = String.length meas.m_name in
      if n > k && String.sub meas.m_name (n - k) k = fast then begin
        let id = String.sub meas.m_name 0 (n - k) in
        match List.find_opt (fun m -> m.m_name = id ^ slow) e.e_measurements with
        | None -> failf "%s: %S has no matching %S" e.e_id meas.m_name (id ^ slow)
        | Some s ->
          if meas.m_seconds_per_run >= s.m_seconds_per_run then
            failf "%s: %s %S (%g s) not faster than %s (%g s)" e.e_id (fst what) id
              meas.m_seconds_per_run (snd what) s.m_seconds_per_run
      end)
    e.e_measurements

(* The incremental-maintenance ablation carries its own invariants: the
   whole point of the delta path is that it beats a full rebuild while
   re-ranking fewer components than exist, so a record claiming otherwise
   is evidence of a broken run (or a regression) and must not land as a
   baseline. *)
let check_abl_update e =
  check_faster e ~fast:"-incr" ~slow:"-full" ~what:("incremental", "full rebuild");
  List.iter
    (fun (name, v) ->
      match String.index_opt name '_' with
      | Some i when String.sub name i (String.length name - i) = "_reranked" -> (
        let id = String.sub name 0 i in
        let reranked =
          match v with
          | Json.Int n -> n
          | _ -> failf "abl_update: param %S is not an int" name
        in
        match List.assoc_opt (id ^ "_components") e.e_params with
        | Some (Json.Int total) ->
          if reranked >= total then
            failf "abl_update: %s re-ranked %d of %d components — not incremental" id reranked
              total
        | _ -> failf "abl_update: param %S has no matching %S" name (id ^ "_components"))
      | _ -> ())
    e.e_params

(* Figure 10(e)'s shape: the paper has the partitioned top-h win on every
   dataset, so a record where one loses to plain Murty is a regression. *)
let check_fig10e e = check_faster e ~fast:"-partition" ~slow:"-murty" ~what:("partition", "murty")

let check_run r =
  try
    (match (r.r_kind, r.r_loadgen) with
    | "loadgen", None -> failf "loadgen record without a \"loadgen\" payload"
    | "loadgen", Some lg -> check_loadgen lg
    | "bench", Some _ -> failf "bench record with a \"loadgen\" payload"
    | "bench", None ->
      List.iter
        (fun e ->
          match e.e_id with
          | "abl_update" -> check_abl_update e
          | "fig10e" -> check_fig10e e
          | _ -> ())
        r.r_experiments
    | k, _ -> failf "unknown record kind %S" k);
    Ok ()
  with Fail msg -> Error msg

let run_of_string text =
  match Json.of_string text with
  | Error e -> Error e
  | Ok j -> run_of_json j

let runs_of_lines text =
  (* Line numbers are 1-based over the raw file, blank lines included, so
     an error message points at the actual line of the JSONL file. *)
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> go acc (lineno + 1) rest
    | line :: rest -> (
      match run_of_string line with
      | Ok r -> go (r :: acc) (lineno + 1) rest
      | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go [] 1 lines

let append_to_file ~path r =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (run_to_string r);
  output_char oc '\n';
  close_out oc

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, rev) with
    | Unix.WEXITED 0, rev when rev <> "" -> rev
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"
