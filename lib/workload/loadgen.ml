module Json = Uxsm_util.Json
module Prng = Uxsm_util.Prng
module Timing = Uxsm_util.Timing
module Obs = Uxsm_obs.Obs
module Bench_json = Uxsm_obs.Bench_json

(* ------------------------------ profiles -------------------------- *)

module Profile = struct
  type arrival =
    | Closed of { clients : int }
    | Open of { rps : float; clients : int; max_lateness : float }

  type template = {
    t_op : string;
    t_pattern : string;
    t_h : int;
    t_tau : float;
    t_k : int option;
    t_evaluator : string;
    t_weight : float;
    t_corrs : int;
  }

  type corpus = {
    c_name : string;
    c_dataset : string;
    c_seed : int;
  }

  type plan_cache =
    | Warm
    | Cold

  type t = {
    p_id : string;
    p_description : string;
    p_corpora : corpus list;
    p_zipf_s : float;
    p_templates : template list;
    p_arrival : arrival;
    p_warmup_s : float;
    p_duration_s : float;
    p_plan_cache : plan_cache;
    p_seed : int;
  }

  exception Fail of string

  let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

  let field name j =
    match Json.member name j with
    | Some v -> v
    | None -> failf "missing field %S" name

  let get what conv name j =
    match conv (field name j) with
    | Some v -> v
    | None -> failf "field %S is not %s" name what

  let opt ~default conv what name j =
    match Json.member name j with
    | None -> default
    | Some v -> (
      match conv v with
      | Some x -> x
      | None -> failf "field %S is not %s" name what)

  let str = get "a string" Json.to_string_opt
  let num = get "a number" Json.to_float
  let items = get "an array" Json.to_list

  let template_of_json j =
    let k =
      match Json.member "k" j with
      | None | Some Json.Null -> None
      | Some v -> (
        match Json.to_int v with
        | Some k when k >= 1 -> Some k
        | _ -> failf "template field \"k\" must be an integer >= 1")
    in
    let op =
      match (opt ~default:"query" Json.to_string_opt "a string" "op" j, k) with
      | "query", Some _ -> "query_topk"
      | op, _ -> op
    in
    let t =
      {
        t_op = op;
        t_pattern = opt ~default:"" Json.to_string_opt "a string" "pattern" j;
        t_h = opt ~default:100 Json.to_int "an integer" "h" j;
        t_tau = opt ~default:0.2 Json.to_float "a number" "tau" j;
        t_k = k;
        t_evaluator = opt ~default:"auto" Json.to_string_opt "a string" "evaluator" j;
        t_weight = opt ~default:1.0 Json.to_float "a number" "weight" j;
        t_corrs = opt ~default:1 Json.to_int "an integer" "corrs" j;
      }
    in
    (match t.t_op with
    | "query" | "query_topk" | "mappings" | "ping" | "update" -> ()
    | op ->
      failf
        "template op %S is not one of \"query\", \"query_topk\", \"mappings\", \"ping\", \
         \"update\""
        op);
    (match t.t_op with
    | "query" | "query_topk" -> (
      (match Uxsm_twig.Pattern_parser.parse t.t_pattern with
      | Ok _ -> ()
      | Error e -> failf "template pattern %S does not parse: %s" t.t_pattern e);
      match (t.t_op, t.t_k) with
      | "query_topk", None -> failf "template op \"query_topk\" needs field \"k\""
      | _ -> ())
    | _ -> ());
    (match t.t_evaluator with
    | "auto" | "basic" | "tree" -> ()
    | e -> failf "template evaluator %S is not one of \"auto\", \"basic\", \"tree\"" e);
    if t.t_corrs < 1 then failf "template field \"corrs\" must be >= 1";
    if t.t_h < 1 then failf "template field \"h\" must be >= 1";
    if not (t.t_tau > 0.0 && t.t_tau <= 1.0) then failf "template field \"tau\" must be in (0, 1]";
    if (not (Float.is_finite t.t_weight)) || t.t_weight < 0.0 then
      failf "template field \"weight\" must be finite and >= 0";
    t

  let corpus_of_json j =
    let c =
      {
        c_name = str "name" j;
        c_dataset = str "dataset" j;
        c_seed = opt ~default:Dataset.default_seed Json.to_int "an integer" "seed" j;
      }
    in
    if String.trim c.c_name = "" then failf "corpus name must be non-empty";
    (match Dataset.find c.c_dataset with
    | Some _ -> ()
    | None -> failf "corpus %S: unknown dataset %S (D1..D10)" c.c_name c.c_dataset);
    c

  let arrival_of_json j =
    match str "mode" j with
    | "closed" ->
      let clients = get "an integer" Json.to_int "clients" j in
      if clients < 1 then failf "arrival field \"clients\" must be >= 1";
      Closed { clients }
    | "open" ->
      let rps = num "rps" j in
      let clients = opt ~default:1 Json.to_int "an integer" "clients" j in
      let max_lateness = opt ~default:1.0 Json.to_float "a number" "max_lateness_seconds" j in
      if (not (Float.is_finite rps)) || rps <= 0.0 then failf "arrival field \"rps\" must be positive";
      if clients < 1 then failf "arrival field \"clients\" must be >= 1";
      if (not (Float.is_finite max_lateness)) || max_lateness <= 0.0 then
        failf "arrival field \"max_lateness_seconds\" must be positive";
      Open { rps; clients; max_lateness }
    | m -> failf "arrival mode %S is not \"closed\" or \"open\"" m

  let of_json j =
    try
      let p =
        {
          p_id = str "id" j;
          p_description = opt ~default:"" Json.to_string_opt "a string" "description" j;
          p_corpora = List.map corpus_of_json (items "corpora" j);
          p_zipf_s = opt ~default:1.0 Json.to_float "a number" "zipf_s" j;
          p_templates = List.map template_of_json (items "templates" j);
          p_arrival = arrival_of_json (field "arrival" j);
          p_warmup_s = opt ~default:0.0 Json.to_float "a number" "warmup_seconds" j;
          p_duration_s = num "duration_seconds" j;
          p_plan_cache =
            (match opt ~default:"warm" Json.to_string_opt "a string" "plan_cache" j with
            | "warm" -> Warm
            | "cold" -> Cold
            | pc -> failf "field \"plan_cache\" %S is not \"warm\" or \"cold\"" pc);
          p_seed = opt ~default:42 Json.to_int "an integer" "seed" j;
        }
      in
      if String.trim p.p_id = "" then failf "field \"id\" must be non-empty";
      if p.p_corpora = [] then failf "field \"corpora\" must be non-empty";
      let names = List.map (fun c -> c.c_name) p.p_corpora in
      if List.length (List.sort_uniq String.compare names) <> List.length names then
        failf "corpus names must be distinct";
      if (not (Float.is_finite p.p_zipf_s)) || p.p_zipf_s < 0.0 then
        failf "field \"zipf_s\" must be finite and >= 0";
      if p.p_templates = [] then failf "field \"templates\" must be non-empty";
      if not (List.fold_left (fun acc t -> acc +. t.t_weight) 0.0 p.p_templates > 0.0) then
        failf "total template weight must be positive";
      if (not (Float.is_finite p.p_warmup_s)) || p.p_warmup_s < 0.0 then
        failf "field \"warmup_seconds\" must be finite and >= 0";
      if (not (Float.is_finite p.p_duration_s)) || p.p_duration_s <= 0.0 then
        failf "field \"duration_seconds\" must be positive";
      Ok p
    with Fail msg -> Error msg

  let template_to_json t =
    Json.Assoc
      ([ ("op", Json.String t.t_op) ]
      @ (match t.t_op with
        | "query" | "query_topk" -> [ ("pattern", Json.String t.t_pattern) ]
        | _ -> [])
      @ [ ("h", Json.Int t.t_h); ("tau", Json.Float t.t_tau) ]
      @ (match t.t_k with None -> [] | Some k -> [ ("k", Json.Int k) ])
      @ [ ("evaluator", Json.String t.t_evaluator); ("weight", Json.Float t.t_weight) ]
      (* only the update op reads "corrs"; omitting it elsewhere keeps the
         rendering of pre-existing profiles unchanged *)
      @ (match t.t_op with "update" -> [ ("corrs", Json.Int t.t_corrs) ] | _ -> []))

  let to_json p =
    Json.Assoc
      [
        ("id", Json.String p.p_id);
        ("description", Json.String p.p_description);
        ("seed", Json.Int p.p_seed);
        ("zipf_s", Json.Float p.p_zipf_s);
        ( "corpora",
          Json.List
            (List.map
               (fun c ->
                 Json.Assoc
                   [
                     ("name", Json.String c.c_name);
                     ("dataset", Json.String c.c_dataset);
                     ("seed", Json.Int c.c_seed);
                   ])
               p.p_corpora) );
        ("templates", Json.List (List.map template_to_json p.p_templates));
        ( "arrival",
          match p.p_arrival with
          | Closed { clients } ->
            Json.Assoc [ ("mode", Json.String "closed"); ("clients", Json.Int clients) ]
          | Open { rps; clients; max_lateness } ->
            Json.Assoc
              [
                ("mode", Json.String "open");
                ("rps", Json.Float rps);
                ("clients", Json.Int clients);
                ("max_lateness_seconds", Json.Float max_lateness);
              ] );
        ("warmup_seconds", Json.Float p.p_warmup_s);
        ("duration_seconds", Json.Float p.p_duration_s);
        ( "plan_cache",
          Json.String
            (match p.p_plan_cache with
            | Warm -> "warm"
            | Cold -> "cold") );
      ]

  let of_string s =
    match Json.of_string s with
    | Error e -> Error (Printf.sprintf "profile is not valid JSON: %s" e)
    | Ok j -> of_json j

  let load path =
    match open_in path with
    | exception Sys_error e -> Error e
    | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      of_string s

  let clients p =
    match p.p_arrival with
    | Closed { clients } | Open { clients; _ } -> clients

  let mode_name p =
    match p.p_arrival with
    | Closed _ -> "closed"
    | Open _ -> "open"

  let plan_cache_name p =
    match p.p_plan_cache with
    | Warm -> "warm"
    | Cold -> "cold"

  let target_rps p =
    match p.p_arrival with
    | Closed _ -> None
    | Open { rps; _ } -> Some rps

  let ops p = List.sort_uniq String.compare (List.map (fun t -> t.t_op) p.p_templates)
end

(* ------------------------------ sampling -------------------------- *)

module Sampler = struct
  type request = {
    rq_op : string;
    rq_corpus : string;
    rq_body : Json.t;
  }

  type t = {
    s_prng : Prng.t;
    s_corpora : string array;  (* popularity rank order *)
    s_corpus_cum : float array;  (* cumulative zipf weights *)
    s_templates : Profile.template array;
    s_template_cum : float array;
    s_corpus_spec : (string * (string * int)) list;  (* name -> (dataset id, seed) *)
    s_corr_paths : (string, (string * string) array) Hashtbl.t;
        (* corpus -> correspondence (source path, target path) pairs, built
           lazily on the first update draw for that corpus (Dataset.matching
           is memoized, so the matcher runs once per (dataset, seed) per
           process, not per sampler) *)
  }

  let cumulative weights =
    let acc = ref 0.0 in
    Array.map
      (fun w ->
        acc := !acc +. w;
        !acc)
      weights

  (* Smallest index whose cumulative weight exceeds [x]; [x] is drawn in
     [0, total), so the scan always lands. *)
  let pick_cum cum x =
    let n = Array.length cum in
    let rec go i = if i >= n - 1 || x < cum.(i) then i else go (i + 1) in
    go 0

  let create ?(stream = 0) (p : Profile.t) =
    (* Stream derivation: child [stream] of one parent generator, so
       distinct clients draw independent sequences while (seed, stream)
       fully determines each. *)
    let parent = Prng.create p.Profile.p_seed in
    let rec child i = if i = 0 then Prng.split parent else (ignore (Prng.split parent); child (i - 1)) in
    let prng = child (max 0 stream) in
    let corpora = Array.of_list (List.map (fun c -> c.Profile.c_name) p.Profile.p_corpora) in
    let zipf =
      Array.init (Array.length corpora) (fun i ->
          (* Rank 1 is the head of the corpora list. *)
          Float.pow (float_of_int (i + 1)) (-.p.Profile.p_zipf_s))
    in
    let templates = Array.of_list p.Profile.p_templates in
    let weights = Array.map (fun t -> t.Profile.t_weight) templates in
    {
      s_prng = prng;
      s_corpora = corpora;
      s_corpus_cum = cumulative zipf;
      s_templates = templates;
      s_template_cum = cumulative weights;
      s_corpus_spec =
        List.map
          (fun c -> (c.Profile.c_name, (c.Profile.c_dataset, c.Profile.c_seed)))
          p.Profile.p_corpora;
      s_corr_paths = Hashtbl.create 4;
    }

  (* The (source path, target path) pairs a corpus' update templates draw
     from: exactly the correspondences the server's registration computes
     for the same (dataset, seed), so every sampled re-score names an
     existing correspondence. *)
  let corr_paths s corpus =
    match Hashtbl.find_opt s.s_corr_paths corpus with
    | Some a -> a
    | None ->
      let id, seed = List.assoc corpus s.s_corpus_spec in
      let d = Option.get (Dataset.find id) in  (* validated at profile load *)
      let m = Dataset.matching ~seed d in
      let module Matching = Uxsm_mapping.Matching in
      let module Schema = Uxsm_schema.Schema in
      let src = Matching.source m and tgt = Matching.target m in
      let a =
        Array.of_list
          (List.map
             (fun (c : Matching.corr) ->
               (Schema.path_string src c.Matching.source, Schema.path_string tgt c.Matching.target))
             (Matching.correspondences m))
      in
      Hashtbl.add s.s_corr_paths corpus a;
      a

  let body s ~corpus (t : Profile.template) =
    match t.Profile.t_op with
    | "ping" -> (Json.Assoc [ ("op", Json.String "ping") ], "")
    | "update" ->
      (* Re-score only: the correspondence set, the schemas and every
         component partition stay fixed, so a long run neither grows the
         corpus nor invalidates the sampled path universe. Scores land in
         [0.01, 1) ⊂ (0, 1]. *)
      let paths = corr_paths s corpus in
      let entries =
        List.init
          (min t.Profile.t_corrs (Array.length paths))
          (fun _ ->
            let src, tgt = paths.(Prng.int s.s_prng (Array.length paths)) in
            let score = 0.01 +. Prng.float s.s_prng 0.99 in
            Json.Assoc
              [
                ("source", Json.String src);
                ("target", Json.String tgt);
                ("score", Json.Float score);
              ])
      in
      ( Json.Assoc
          [
            ("op", Json.String "update");
            ("corpus", Json.String corpus);
            ("set", Json.List entries);
          ],
        corpus )
    | "mappings" ->
      ( Json.Assoc
          [
            ("op", Json.String "mappings");
            ("corpus", Json.String corpus);
            ("h", Json.Int t.Profile.t_h);
          ],
        corpus )
    | _ ->
      ( Json.Assoc
          ([
             ("op", Json.String t.Profile.t_op);
             ("corpus", Json.String corpus);
             ("query", Json.String t.Profile.t_pattern);
             ("h", Json.Int t.Profile.t_h);
             ("tau", Json.Float t.Profile.t_tau);
           ]
          @ (match t.Profile.t_k with None -> [] | Some k -> [ ("k", Json.Int k) ])
          @
          match t.Profile.t_evaluator with
          | "auto" -> []
          | e -> [ ("evaluator", Json.String e) ]),
        corpus )

  let next s =
    let total_c = s.s_corpus_cum.(Array.length s.s_corpus_cum - 1) in
    let corpus = s.s_corpora.(pick_cum s.s_corpus_cum (Prng.float s.s_prng total_c)) in
    let total_t = s.s_template_cum.(Array.length s.s_template_cum - 1) in
    let t = s.s_templates.(pick_cum s.s_template_cum (Prng.float s.s_prng total_t)) in
    let body, corpus = body s ~corpus t in
    { rq_op = t.Profile.t_op; rq_corpus = corpus; rq_body = body }

  let interarrival s ~rps =
    (* Exponential deviate; [Prng.float] is in [0, bound), so [1 - u] is
       never zero and the log is finite. *)
    let u = Prng.float s.s_prng 1.0 in
    -.Float.log (1.0 -. u) /. rps
end

(* ------------------------------ A/B diff -------------------------- *)

module Ab = struct
  type metric = {
    ab_metric : string;
    ab_a : float;
    ab_b : float;
    ab_delta : float;
    ab_worse : bool;
  }

  type report = {
    ab_profile : string;
    ab_tolerance : float;
    ab_metrics : metric list;
  }

  let rel_delta a b = if a > 0.0 then (b -. a) /. a else if b > 0.0 then infinity else 0.0

  (* A delta exactly at the tolerance passes: the gate trips only on
     strictly-worse-than-tolerated runs. *)
  let metric ~tolerance ~bad name a b =
    let delta = rel_delta a b in
    let worse =
      match bad with
      | `Lower -> -.delta > tolerance
      | `Higher -> delta > tolerance
    in
    { ab_metric = name; ab_a = a; ab_b = b; ab_delta = delta; ab_worse = worse }

  let empty_view = { Obs.hv_count = 0; hv_sum = 0.0; hv_buckets = []; hv_overflow = 0 }

  let all_latency (lg : Bench_json.loadgen) =
    match List.assoc_opt "all" lg.Bench_json.lg_latency with
    | Some v -> v
    | None -> empty_view

  let error_rate (lg : Bench_json.loadgen) =
    float_of_int lg.Bench_json.lg_errors /. float_of_int (max lg.Bench_json.lg_sent 1)

  let compare_loadgen ~tolerance (a : Bench_json.loadgen) (b : Bench_json.loadgen) =
    if (not (Float.is_finite tolerance)) || tolerance < 0.0 then
      Error "tolerance must be finite and >= 0"
    else if a.Bench_json.lg_profile <> b.Bench_json.lg_profile then
      Error
        (Printf.sprintf "profile mismatch: %S vs %S — records are not comparable"
           a.Bench_json.lg_profile b.Bench_json.lg_profile)
    else if a.Bench_json.lg_mode <> b.Bench_json.lg_mode then
      Error
        (Printf.sprintf "arrival-mode mismatch: %S vs %S — records are not comparable"
           a.Bench_json.lg_mode b.Bench_json.lg_mode)
    else begin
      let va = all_latency a and vb = all_latency b in
      let quantile name q =
        metric ~tolerance ~bad:`Higher name (Obs.quantile va q) (Obs.quantile vb q)
      in
      (* Error rates compare as an absolute fraction of requests: relative
         deltas on near-zero rates would trip the gate on a single stray
         error. *)
      let ea = error_rate a and eb = error_rate b in
      let err =
        {
          ab_metric = "error_rate";
          ab_a = ea;
          ab_b = eb;
          ab_delta = eb -. ea;
          ab_worse = eb -. ea > tolerance;
        }
      in
      Ok
        {
          ab_profile = a.Bench_json.lg_profile;
          ab_tolerance = tolerance;
          ab_metrics =
            [
              metric ~tolerance ~bad:`Lower "throughput_rps" a.Bench_json.lg_achieved_rps
                b.Bench_json.lg_achieved_rps;
              quantile "latency_p50" 0.50;
              quantile "latency_p95" 0.95;
              quantile "latency_p99" 0.99;
              err;
            ];
        }
    end

  let regressed r = List.exists (fun m -> m.ab_worse) r.ab_metrics

  let pick ?profile runs =
    let matches (r : Bench_json.run) =
      r.Bench_json.r_kind = "loadgen"
      &&
      match (r.Bench_json.r_loadgen, profile) with
      | None, _ -> false
      | Some _, None -> true
      | Some lg, Some id -> lg.Bench_json.lg_profile = id
    in
    match List.rev (List.filter matches runs) with
    | { Bench_json.r_loadgen = Some lg; _ } :: _ -> Ok lg
    | _ ->
      Error
        (match profile with
        | None -> "no loadgen record found"
        | Some id -> Printf.sprintf "no loadgen record for profile %S found" id)

  let report_lines r =
    Printf.sprintf "profile %s (tolerance %.1f%%)" r.ab_profile (100.0 *. r.ab_tolerance)
    :: List.map
         (fun m ->
           let delta =
             if Float.is_finite m.ab_delta then
               Printf.sprintf "%+7.1f%%" (100.0 *. m.ab_delta)
             else "     inf"
           in
           Printf.sprintf "  %-14s A %12.6f   B %12.6f   delta %s   %s" m.ab_metric m.ab_a
             m.ab_b delta
             (if m.ab_worse then "REGRESSION" else "ok"))
         r.ab_metrics
end

(* ------------------------------- runner --------------------------- *)

module Runner = struct
  type target =
    | Tcp of string * int
    | Unix_socket of string

  exception Fail of string

  let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

  (* ------------------------- line transport ------------------------ *)

  let write_all fd s =
    let n = String.length s in
    let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
    go 0

  let write_line fd line = write_all fd (line ^ "\n")

  (* Raw line reader over a file descriptor: [select]-bounded reads keep
     open-loop receivers responsive at phase boundaries (an [in_channel]
     would buffer past what [select] can see). *)
  type line_reader = {
    lr_fd : Unix.file_descr;
    lr_buf : Buffer.t;
    mutable lr_lines : string list;
    lr_chunk : Bytes.t;
  }

  let line_reader fd =
    { lr_fd = fd; lr_buf = Buffer.create 4096; lr_lines = []; lr_chunk = Bytes.create 65536 }

  let pop_lines buf =
    let s = Buffer.contents buf in
    match String.rindex_opt s '\n' with
    | None -> []
    | Some i ->
      Buffer.clear buf;
      Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
      String.split_on_char '\n' (String.sub s 0 i)
      |> List.filter (fun l -> String.trim l <> "")

  (* Next complete line, waiting at most [timeout] seconds. [None] on
     timeout; raises [End_of_file] when the server closed the
     connection. *)
  let read_line r ~timeout =
    match r.lr_lines with
    | l :: rest ->
      r.lr_lines <- rest;
      Some l
    | [] ->
      let deadline = Timing.now_mono () +. timeout in
      let rec pump () =
        let left = deadline -. Timing.now_mono () in
        if left <= 0.0 then None
        else
          match Unix.select [ r.lr_fd ] [] [] (Float.min left 0.25) with
          | [], _, _ -> pump ()
          | _ -> (
            let n = Unix.read r.lr_fd r.lr_chunk 0 (Bytes.length r.lr_chunk) in
            if n = 0 then raise End_of_file;
            Buffer.add_subbytes r.lr_buf r.lr_chunk 0 n;
            match pop_lines r.lr_buf with
            | [] -> pump ()
            | l :: rest ->
              r.lr_lines <- rest;
              Some l)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
      in
      pump ()

  (* ------------------------- connections --------------------------- *)

  type conn = {
    cn_fd : Unix.file_descr;
    cn_reader : line_reader;
  }

  let connect target =
    let fd, addr =
      match target with
      | Unix_socket path -> (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
      | Tcp (host, port) ->
        let addr =
          match Unix.inet_addr_of_string host with
          | a -> a
          | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
            | _ | (exception Not_found) -> failf "cannot resolve host %S" host)
        in
        (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0, Unix.ADDR_INET (addr, port))
    in
    (match Unix.connect fd addr with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      failf "cannot connect: %s" (Unix.error_message e));
    { cn_fd = fd; cn_reader = line_reader fd }

  let close conn = try Unix.close conn.cn_fd with Unix.Unix_error _ -> ()

  (* Control-channel request/reply with a generous bound: registration of
     an XCBL-sized corpus runs the matcher. *)
  let control_timeout = 300.0

  let request conn body =
    write_line conn.cn_fd (Json.to_string body);
    match read_line conn.cn_reader ~timeout:control_timeout with
    | None -> failf "server did not answer a control request within %.0fs" control_timeout
    | Some line -> (
      match Json.of_string line with
      | Error e -> failf "malformed control reply: %s" e
      | Ok j ->
        if Json.member "ok" j = Some (Json.Bool true) then j
        else
          failf "control request failed: %s"
            (match Json.member "error" j with
            | Some (Json.String m) -> m
            | _ -> line))

  let register_corpora conn (p : Profile.t) =
    List.iter
      (fun (c : Profile.corpus) ->
        ignore
          (request conn
             (Json.Assoc
                [
                  ("op", Json.String "register");
                  ("name", Json.String c.Profile.c_name);
                  ("dataset", Json.String c.Profile.c_dataset);
                  ("seed", Json.Int c.Profile.c_seed);
                ])))
      p.Profile.p_corpora

  let server_counters conn =
    match Json.member "counters" (request conn (Json.Assoc [ ("op", Json.String "stats") ])) with
    | Some (Json.Assoc cs) ->
      List.filter_map
        (fun (n, v) ->
          match Json.to_int v with
          | Some i -> Some (n, i)
          | None -> None)
        cs
    | _ -> []

  (* --------------------------- accounting -------------------------- *)

  type counters = {
    k_sent : int Atomic.t;
    k_completed : int Atomic.t;
    k_errors : int Atomic.t;
    k_overloaded : int Atomic.t;
    k_late : int Atomic.t;
  }

  let fresh_counters () =
    {
      k_sent = Atomic.make 0;
      k_completed = Atomic.make 0;
      k_errors = Atomic.make 0;
      k_overloaded = Atomic.make 0;
      k_late = Atomic.make 0;
    }

  type hists = {
    hs_per_op : (string * Obs.histogram) list;
    hs_all : Obs.histogram;
  }

  let resolve_hists (p : Profile.t) =
    {
      hs_per_op = List.map (fun op -> (op, Obs.histogram ("loadgen." ^ op ^ ".latency"))) (Profile.ops p);
      hs_all = Obs.histogram "loadgen.all.latency";
    }

  let classify line =
    match Json.of_string line with
    | Error _ -> `Err
    | Ok j ->
      if Json.member "overloaded" j = Some (Json.Bool true) then `Overloaded
      else if Json.member "ok" j = Some (Json.Bool true) then `Ok
      else `Err

  let observe ~measure hists op dt =
    if measure then begin
      (match List.assoc_opt op hists.hs_per_op with
      | Some h -> Obs.observe h dt
      | None -> ());
      Obs.observe hists.hs_all dt
    end

  let add_id n body =
    match body with
    | Json.Assoc fields -> Json.Assoc (("id", Json.Int n) :: fields)
    | j -> j

  (* How long a worker waits for one reply before giving the server up. *)
  let reply_timeout = 120.0

  (* ------------------------- closed loop --------------------------- *)

  (* One synchronous send/await loop per connection: the next request
     leaves when the previous reply lands, so concurrency equals the
     client count. In-flight requests at the deadline complete. *)
  let closed_worker ~sampler ~conn ~deadline ~measure ~counters ~hists ~next_id () =
    let rec loop () =
      if Timing.now_mono () < deadline then begin
        let rq = Sampler.next sampler in
        incr next_id;
        let line = Json.to_string (add_id !next_id rq.Sampler.rq_body) in
        let t0 = Timing.now_mono () in
        write_line conn.cn_fd line;
        if measure then Atomic.incr counters.k_sent;
        match read_line conn.cn_reader ~timeout:reply_timeout with
        | None -> if measure then Atomic.incr counters.k_errors
        | Some reply ->
          let dt = Timing.now_mono () -. t0 in
          (if measure then
             match classify reply with
             | `Ok ->
               Atomic.incr counters.k_completed;
               observe ~measure hists rq.Sampler.rq_op dt
             | `Overloaded -> Atomic.incr counters.k_overloaded
             | `Err -> Atomic.incr counters.k_errors);
          loop ()
      end
    in
    try loop ()
    with
    | End_of_file | Unix.Unix_error _ ->
      (* A dropped connection mid-window is an error observation, not a
         run failure. *)
      if measure then Atomic.incr counters.k_errors

  (* -------------------------- open loop ---------------------------- *)

  type open_state = {
    os_lock : Uxsm_util.Locks.t;
    os_outstanding : (int, string * float) Hashtbl.t;  (* id -> (op, scheduled at) *)
    os_sender_done : bool Atomic.t;
  }

  (* Pipelined sender at the connection's share of the target rate.
     Latency is charged from the *scheduled* arrival, and arrivals that
     cannot leave within the lateness bound are dropped and counted, so a
     stalled server cannot hide queueing delay (bounded coordinated
     omission). Drops still advance the sampler, keeping the request
     stream a deterministic function of (seed, stream). *)
  let open_sender ~sampler ~conn ~start ~deadline ~rate ~max_lateness ~measure ~counters ~state
      ~next_id () =
    let t = ref (start +. Sampler.interarrival sampler ~rps:rate) in
    (try
       while !t < deadline do
         let now = Timing.now_mono () in
         if !t > now then Thread.delay (!t -. now);
         let now = Timing.now_mono () in
         if now -. !t > max_lateness then begin
           ignore (Sampler.next sampler);
           if measure then Atomic.incr counters.k_late
         end
         else begin
           let rq = Sampler.next sampler in
           incr next_id;
           Uxsm_util.Locks.lock state.os_lock;
           Hashtbl.replace state.os_outstanding !next_id (rq.Sampler.rq_op, !t);
           Uxsm_util.Locks.unlock state.os_lock;
           write_line conn.cn_fd (Json.to_string (add_id !next_id rq.Sampler.rq_body));
           if measure then Atomic.incr counters.k_sent
         end;
         t := !t +. Sampler.interarrival sampler ~rps:rate
       done
     with Unix.Unix_error _ -> if measure then Atomic.incr counters.k_errors);
    Atomic.set state.os_sender_done true

  (* Matches replies to sends by id (rejections may overtake admitted
     replies); drains until the sender finished and nothing is
     outstanding, or the drain deadline expires — whatever is still
     unanswered then counts as errors. *)
  let open_receiver ~conn ~drain_deadline ~measure ~counters ~hists ~state () =
    let outstanding_count () =
      Uxsm_util.Locks.with_lock state.os_lock (fun () ->
          Hashtbl.length state.os_outstanding)
    in
    let take id =
      Uxsm_util.Locks.with_lock state.os_lock (fun () ->
          let entry = Hashtbl.find_opt state.os_outstanding id in
          (match entry with
          | Some _ -> Hashtbl.remove state.os_outstanding id
          | None -> ());
          entry)
    in
    let lose_remaining () =
      if measure then begin
        let n = outstanding_count () in
        if n > 0 then
          for _ = 1 to n do
            Atomic.incr counters.k_errors
          done
      end;
      Uxsm_util.Locks.with_lock state.os_lock (fun () ->
          Hashtbl.reset state.os_outstanding)
    in
    let rec loop () =
      if Atomic.get state.os_sender_done && outstanding_count () = 0 then ()
      else if Timing.now_mono () > drain_deadline then lose_remaining ()
      else
        match read_line conn.cn_reader ~timeout:0.25 with
        | None -> loop ()
        | Some reply ->
          (let matched =
             match Json.of_string reply with
             | Error _ -> None
             | Ok j -> (
               match Json.member "id" j with
               | Some idj -> Option.bind (Json.to_int idj) take
               | None -> None)
           in
           match matched with
           | None -> ()  (* unmatched line: a reply to a pre-window send *)
           | Some (op, sched) ->
             let dt = Timing.now_mono () -. sched in
             if measure then (
               match classify reply with
               | `Ok ->
                 Atomic.incr counters.k_completed;
                 observe ~measure hists op dt
               | `Overloaded -> Atomic.incr counters.k_overloaded
               | `Err -> Atomic.incr counters.k_errors));
          loop ()
        | exception End_of_file -> lose_remaining ()
        | exception Unix.Unix_error _ -> lose_remaining ()
    in
    loop ()

  (* ---------------------------- phases ----------------------------- *)

  type client = {
    cl_conn : conn;
    cl_sampler : Sampler.t;
    cl_next_id : int ref;  (* ids stay unique per connection across phases *)
  }

  let drain_grace = 30.0

  (* Run one phase (warmup or measurement) of the profile's arrival model
     across all clients; returns once every worker thread retired. *)
  let run_phase (p : Profile.t) ~clients ~measure ~duration ~counters ~hists =
    let start = Timing.now_mono () in
    let deadline = start +. duration in
    match p.Profile.p_arrival with
    | Profile.Closed _ ->
      let threads =
        List.map
          (fun cl ->
            Thread.create
              (closed_worker ~sampler:cl.cl_sampler ~conn:cl.cl_conn ~deadline ~measure
                 ~counters ~hists ~next_id:cl.cl_next_id)
              ())
          clients
      in
      List.iter Thread.join threads
    | Profile.Open { rps; clients = n_conns; max_lateness } ->
      let rate = rps /. float_of_int n_conns in
      let pairs =
        List.map
          (fun cl ->
            let state =
              {
                os_lock =
                  Uxsm_util.Locks.create ~name:"loadgen.outstanding"
                    ~rank:Uxsm_util.Locks.rank_loadgen;
                os_outstanding = Hashtbl.create 64;
                os_sender_done = Atomic.make false;
              }
            in
            let sender =
              Thread.create
                (open_sender ~sampler:cl.cl_sampler ~conn:cl.cl_conn ~start ~deadline ~rate
                   ~max_lateness ~measure ~counters ~state ~next_id:cl.cl_next_id)
                ()
            in
            let receiver =
              Thread.create
                (open_receiver ~conn:cl.cl_conn ~drain_deadline:(deadline +. drain_grace)
                   ~measure ~counters ~hists ~state)
                ()
            in
            (sender, receiver))
          clients
      in
      List.iter
        (fun (s, r) ->
          Thread.join s;
          Thread.join r)
        pairs

  (* ----------------------------- run ------------------------------- *)

  let latency_views (p : Profile.t) hists =
    let views =
      List.filter_map
        (fun (op, h) ->
          let v = Obs.histogram_view h in
          if v.Obs.hv_count = 0 then None else Some (op, v))
        (("all", hists.hs_all) :: hists.hs_per_op)
    in
    ignore p;
    List.sort (fun (a, _) (b, _) -> String.compare a b) views

  let run ?(log = fun _ -> ()) (p : Profile.t) target =
    match
      let ctrl = connect target in
      Fun.protect
        ~finally:(fun () -> close ctrl)
        (fun () ->
          log (Printf.sprintf "registering %d corpora" (List.length p.Profile.p_corpora));
          register_corpora ctrl p;
          let n = Profile.clients p in
          let clients =
            List.init n (fun i ->
                { cl_conn = connect target; cl_sampler = Sampler.create ~stream:i p; cl_next_id = ref 0 })
          in
          Fun.protect
            ~finally:(fun () -> List.iter (fun cl -> close cl.cl_conn) clients)
            (fun () ->
              let hists = resolve_hists p in
              if p.Profile.p_warmup_s > 0.0 then begin
                log (Printf.sprintf "warmup: %.1fs" p.Profile.p_warmup_s);
                run_phase p ~clients ~measure:false ~duration:p.Profile.p_warmup_s
                  ~counters:(fresh_counters ()) ~hists
              end;
              (match p.Profile.p_plan_cache with
              | Profile.Warm -> ()
              | Profile.Cold ->
                (* Re-registering replaces each corpus' spec and drops every
                   cached artifact, so the window measures cold builds. *)
                log "cold plan cache: re-registering corpora";
                register_corpora ctrl p);
              (* Window barrier: every worker is quiescent here, so the
                 reset cleanly separates warmup from measurement on both
                 sides of the wire. *)
              ignore (request ctrl (Json.Assoc [ ("op", Json.String "stats_reset") ]));
              Obs.reset ();
              let counters = fresh_counters () in
              log (Printf.sprintf "measuring: %.1fs (%s)" p.Profile.p_duration_s
                     (Profile.mode_name p));
              let t0 = Timing.now_mono () in
              run_phase p ~clients ~measure:true ~duration:p.Profile.p_duration_s ~counters ~hists;
              let window = Timing.now_mono () -. t0 in
              let server = server_counters ctrl in
              let sent = Atomic.get counters.k_sent in
              let completed = Atomic.get counters.k_completed in
              let late = Atomic.get counters.k_late in
              {
                Bench_json.lg_profile = p.Profile.p_id;
                lg_mode = Profile.mode_name p;
                lg_clients = n;
                lg_target_rps = Profile.target_rps p;
                lg_warmup_seconds = p.Profile.p_warmup_s;
                lg_window_seconds = window;
                lg_plan_cache = Profile.plan_cache_name p;
                lg_seed = p.Profile.p_seed;
                lg_sent = sent;
                lg_completed = completed;
                lg_errors = Atomic.get counters.k_errors;
                lg_overloaded = Atomic.get counters.k_overloaded;
                lg_late = late;
                lg_offered_rps = float_of_int (sent + late) /. window;
                lg_achieved_rps = float_of_int completed /. window;
                lg_latency = latency_views p hists;
                lg_server = server;
              }))
    with
    | lg -> Ok lg
    | exception Fail msg -> Error msg
    | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

  let record ~argv lg =
    {
      Bench_json.r_git_rev = Bench_json.git_rev ();
      r_unix_time = Unix.time ();
      r_argv = argv;
      r_jobs = lg.Bench_json.lg_clients;
      r_executor = "loadgen";
      r_experiments = [];
      r_kind = "loadgen";
      r_loadgen = Some lg;
    }

  let summary_lines (lg : Bench_json.loadgen) =
    let q name v = Printf.sprintf "%s %.2fms" name (1000.0 *. v) in
    let all = Ab.all_latency lg in
    [
      Printf.sprintf "profile %s: %s loop, %d client(s), %s plan cache, seed %d"
        lg.Bench_json.lg_profile lg.Bench_json.lg_mode lg.Bench_json.lg_clients
        lg.Bench_json.lg_plan_cache lg.Bench_json.lg_seed;
      Printf.sprintf "window %.2fs: offered %.1f rps, achieved %.1f rps%s"
        lg.Bench_json.lg_window_seconds lg.Bench_json.lg_offered_rps
        lg.Bench_json.lg_achieved_rps
        (match lg.Bench_json.lg_target_rps with
        | None -> ""
        | Some r -> Printf.sprintf " (target %.1f rps)" r);
      Printf.sprintf "requests: sent %d, completed %d, errors %d, overloaded %d, late %d"
        lg.Bench_json.lg_sent lg.Bench_json.lg_completed lg.Bench_json.lg_errors
        lg.Bench_json.lg_overloaded lg.Bench_json.lg_late;
      Printf.sprintf "latency (all ops): %s  %s  %s"
        (q "p50" (Obs.quantile all 0.50))
        (q "p95" (Obs.quantile all 0.95))
        (q "p99" (Obs.quantile all 0.99));
    ]
end
