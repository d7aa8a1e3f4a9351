module Schema = Uxsm_schema.Schema
module Doc = Uxsm_xml.Doc
module Pattern = Uxsm_twig.Pattern
module Binding = Uxsm_twig.Binding
module Matcher = Uxsm_twig.Matcher
module Structural_join = Uxsm_twig.Structural_join
module Mapping = Uxsm_mapping.Mapping
module Mapping_set = Uxsm_mapping.Mapping_set
module Block = Uxsm_blocktree.Block
module Block_tree = Uxsm_blocktree.Block_tree
module Obs = Uxsm_obs.Obs
module Plan = Uxsm_plan.Plan

(* Observability: evaluation cost drivers, shared with the bench harness and
   the CLI [stats] subcommand. [explain] reports deltas of these counters. *)
let c_queries = Obs.counter "ptq.queries"
let c_rewrites = Obs.counter "ptq.rewrites"
let c_matcher = Obs.counter "ptq.matcher_invocations"
let c_blocks_used = Obs.counter "ptq.blocks_used"
let c_shared = Obs.counter "ptq.shared_evaluations"
let c_direct = Obs.counter "ptq.direct_evaluations"
let c_decomp = Obs.counter "ptq.decompositions"
let c_joins = Obs.counter "ptq.joins"
let c_join_pairs = Obs.counter "ptq.join_pairs"
let c_executions = Obs.counter "plan.executions"
let s_basic = Obs.span "ptq.query_basic"
let s_tree = Obs.span "ptq.query_tree"

type context = {
  mset : Mapping_set.t;
  doc : Doc.t;
  target_doc : Doc.t;  (* target schema, indexed for resolution *)
  tree : Block_tree.t option;
}

let target_index schema = Doc.of_tree (Schema.to_xml_tree schema)

let context ?tree ?target_doc ~mset ~doc () =
  let target_doc =
    match target_doc with
    | Some d -> d
    | None -> target_index (Mapping_set.target mset)
  in
  { mset; doc; target_doc; tree }

let mapping_set ctx = ctx.mset

type answer = {
  mapping_id : int;
  probability : float;
  bindings : Binding.t list;
}

(* Pre-indexed pattern: pre-order node arrays; a subquery rooted at id [q]
   occupies the contiguous id range [q, q + sizes.(q)). *)
type indexed = {
  pattern : Pattern.t;
  nodes : Pattern.node array;
  sizes : int array;
  branch_ids : (Pattern.axis * int) array array;
  n : int;
}

let index_pattern (p : Pattern.t) =
  let nodes = Array.of_list (Pattern.nodes p) in
  let n = Array.length nodes in
  let sizes = Array.make n 0 in
  let branch_ids = Array.make n [||] in
  let next = ref 0 in
  let rec go (node : Pattern.node) =
    let id = !next in
    incr next;
    let kids = List.map (fun (a, c) -> (a, go c)) (Pattern.branches node) in
    branch_ids.(id) <- Array.of_list kids;
    sizes.(id) <- !next - id;
    id
  in
  ignore (go p.Pattern.root);
  { pattern = p; nodes; sizes; branch_ids; n }

(* The subquery rooted at pattern node [q], as a standalone pattern. Its
   local pre-order ids are the global ids shifted by [q]. *)
let subpattern idx q = { Pattern.axis = Pattern.Descendant; root = idx.nodes.(q) }

(* A match binds every node of its pattern, so the subquery's local
   binding is one contiguous range of the global one. *)
let globalize idx q (local : Binding.t) =
  let g = Binding.unbound idx.n in
  for j = 0 to Array.length local - 1 do
    g.(q + j) <- local.(j)
  done;
  g

let sub_resolution idx q (resolution : Resolve.t) = Array.sub resolution q idx.sizes.(q)

(* Rewrite the subquery rooted at [q] through [lookup] and match it on the
   source document, returning global bindings. *)
let rewrite_and_match ctx idx q resolution ~at_top ~lookup =
  let source = Mapping_set.source ctx.mset in
  let pat = subpattern idx q in
  let res = sub_resolution idx q resolution in
  Obs.incr c_rewrites;
  match Rewrite.through ~source ~pattern:pat ~resolution:res ~at_top ~lookup with
  | None -> []
  | Some pat_s ->
    Obs.incr c_matcher;
    let local = Matcher.matches pat_s ctx.doc in
    (* The whole query's local bindings are already global. *)
    if q = 0 then local else List.map (globalize idx q) local

let lookup_of_mapping m y = Mapping.source_of m y

(* Does mapping [m] cover every element of [resolution]? *)
let covers m (resolution : Resolve.t) =
  Array.for_all (fun y -> Mapping.source_at m y >= 0) resolution

let resolutions_of ctx pattern = Resolve.against_doc pattern ctx.target_doc

(* Answers in coverage (mapping-id) order from one evaluation per unit:
   [results.(r).(j)] holds the bindings of resolution [r]'s [j]-th unit
   leader, and each coverage entry pairs a covered resolution with its
   unit's position there. Mappings in the same units everywhere share one
   covered list ([with_units] interns them), found here by physical
   identity, and so one sorted, deduplicated bindings list. *)
let answers_of_units ctx results cov =
  let of_unit (r, j) = results.(r).(j) in
  let merged = ref [] in
  List.map
    (fun (i, covered) ->
      let bindings =
        match List.assq covered !merged with
        | b -> b
        | exception Not_found ->
          (* One unit's matcher output is already strictly increasing, so
             sorting it is one scan. *)
          let b =
            Binding.sort_uniq
              (match covered with
              | [ u ] -> of_unit u
              | _ -> List.concat_map of_unit covered)
          in
          merged := (covered, b) :: !merged;
          b
      in
      { mapping_id = i; probability = Mapping_set.probability ctx.mset i; bindings })
    cov

(* Which resolutions (as indices into [res]) each mapping covers, as an
   ascending-id assoc list; mappings covering none are omitted. Both
   evaluators consume this table (annotated with units by [with_units]),
   and {!query_topk} computes it exactly once — ranking and restricted
   evaluation share the same coverage pass. *)
let coverage_of ctx (res : Resolve.t array) =
  let cov = ref [] in
  for i = Mapping_set.size ctx.mset - 1 downto 0 do
    let m = Mapping_set.mapping ctx.mset i in
    let covered = ref [] in
    for r = Array.length res - 1 downto 0 do
      if covers m res.(r) then covered := r :: !covered
    done;
    if !covered <> [] then cov := (i, !covered) :: !cov
  done;
  !cov

(* Algorithm 3: rewrite and match the whole query once per unit leader of
   each resolution ([leaders.(r)], ascending). *)
let query_basic_cov ctx idx (res : Resolve.t array) ~leaders cov =
  Obs.time s_basic (fun () ->
      let results =
        Array.mapi
          (fun r mids ->
            Obs.add c_direct (Array.length mids);
            Array.map
              (fun l ->
                rewrite_and_match ctx idx 0 res.(r) ~at_top:true
                  ~lookup:(lookup_of_mapping (Mapping_set.mapping ctx.mset l)))
              mids)
          leaders
      in
      answers_of_units ctx results cov)

type stats = {
  resolutions : int;
  relevant_mappings : int;
  blocks_used : int;
  shared_evaluations : int;
  direct_evaluations : int;
  decompositions : int;
  joins : int;
  plan : Plan.t;  (* the physical plan the run executed *)
}

(* Algorithm 4: one subtree evaluation per c-block; decomposition plus
   stack joins elsewhere. [eval] returns the bindings of the subquery
   rooted at [q] for each mapping of [mids], position by position
   (positions unconstrained unless [at_top]). *)
let eval_with_tree ctx tree idx resolution ~(mids : int array) =
  let source = Mapping_set.source ctx.mset in
  let mapping i = Mapping_set.mapping ctx.mset i in
  let n = Array.length mids in
  let direct q ~at_top i =
    Obs.incr c_direct;
    rewrite_and_match ctx idx q resolution ~at_top ~lookup:(lookup_of_mapping (mapping i))
  in
  (* A slot no evaluation has filled yet, told apart by physical identity. *)
  let pending : Binding.t list = [ [||] ] in
  let rec eval q ~at_top : Binding.t list array =
    let t_elem = resolution.(q) in
    let blocks = Block_tree.blocks_at tree t_elem in
    if blocks <> [] then begin
      (* query_subtree: one evaluation per block, shared by its mappings. *)
      let out = Array.make n pending in
      List.iter
        (fun (b : Block.t) ->
          let mine = ref [] in
          for j = n - 1 downto 0 do
            if out.(j) == pending && Block.mem_mapping b mids.(j) then mine := j :: !mine
          done;
          match !mine with
          | [] -> ()
          | mine ->
            Obs.incr c_blocks_used;
            Obs.incr c_shared;
            let bindings =
              rewrite_and_match ctx idx q resolution ~at_top ~lookup:(Block.source_of b)
            in
            List.iter (fun j -> out.(j) <- bindings) mine)
        blocks;
      for j = 0 to n - 1 do
        if out.(j) == pending then out.(j) <- direct q ~at_top mids.(j)
      done;
      out
    end
    else if Array.length idx.branch_ids.(q) = 0 then
      (* Leaf subquery: evaluate directly per mapping. *)
      Array.map (direct q ~at_top) mids
    else begin
      (* split_query: root-only subquery q0, then one subquery per branch,
         joined per mapping with the stack join. *)
      Obs.incr c_decomp;
      let root_value = idx.nodes.(q).Pattern.value in
      let root_attrs = idx.nodes.(q).Pattern.attrs in
      let child_tables =
        Array.map (fun (_, cid) -> (cid, eval cid ~at_top:false)) idx.branch_ids.(q)
      in
      Array.mapi
        (fun j i ->
          let m = mapping i in
          let x_parent = Mapping.source_of m resolution.(q) in
          let r0 =
            match x_parent with
            | None -> []
            | Some x ->
              let pat0 =
                {
                  Pattern.axis =
                    (if at_top && x = Schema.root source then Pattern.Child
                     else Pattern.Descendant);
                  root =
                    {
                      Pattern.label = Schema.label source x;
                      anchor = Some (Schema.path_string source x);
                      value = root_value;
                      attrs = root_attrs;
                      preds = [];
                      next = None;
                    };
                }
              in
              List.map
                (fun (local : Binding.t) ->
                  let g = Binding.unbound idx.n in
                  g.(q) <- local.(0);
                  g)
                (Matcher.matches pat0 ctx.doc)
          in
          let join acc (cid, table) =
            match acc with
            | [] -> []
            | _ -> (
              match (x_parent, Mapping.source_of m resolution.(cid)) with
              | Some xp, Some xc -> (
                match Rewrite.axis_for source ~parent_src:xp ~child_src:xc with
                | None -> []
                | Some axis ->
                  Obs.incr c_joins;
                  let joined =
                    Structural_join.join_bindings ctx.doc ~axis ~left:acc ~left_col:q
                      ~right:table.(j) ~right_col:cid
                  in
                  Obs.add c_join_pairs (List.length joined);
                  joined)
              | _, _ -> [])
          in
          Array.fold_left join r0 child_tables)
        mids
    end
  in
  eval 0 ~at_top:true

(* Algorithm 4: one [eval_with_tree] per resolution, over the leaders of
   its units ([leaders.(r)], ascending). *)
let query_tree_cov ctx idx (res : Resolve.t array) ~leaders cov =
  let tree =
    match ctx.tree with
    | Some t -> t
    | None -> invalid_arg "Ptq.query_tree: context has no block tree"
  in
  Obs.time s_tree (fun () ->
      let results =
        Array.mapi
          (fun r mids ->
            if Array.length mids = 0 then [||] else eval_with_tree ctx tree idx res.(r) ~mids)
          leaders
      in
      answers_of_units ctx results cov)

(* ------------------------- plan compilation ------------------------ *)

(* A compiled query: the shared resolve/coverage prefix of the logical
   pipeline and its evaluation units, materialized once, plus the physical
   plan. [execute] replays only the evaluate/merge suffix, so a cached
   plan (the server catalog keeps them) amortizes resolution, coverage and
   grouping across repeated executions. *)
type plan = {
  p_ctx : context;
  p_idx : indexed;
  p_res : Resolve.t array;
  p_cov : (int * (int * int) list) list;
      (* the table handed to the evaluator: each evaluated mapping with its
         covered resolutions, each paired with its unit's position among
         that resolution's leaders *)
  p_leaders : int array array;  (* per resolution, its units' leaders, ascending *)
  p_phys : Plan.t;
}

let take k l = List.filteri (fun i _ -> i < k) l

(* Top-k pruning over the coverage table (Definition 5): keep the k most
   probable relevant mappings, preserving the table's mapping-id order.
   The evaluators never re-test [covers], and non-selected mappings are
   dropped before any rewrite work. *)
let prune_topk ctx ~k cov =
  let by_prob =
    List.sort
      (fun (i, _) (j, _) ->
        Float.compare (Mapping_set.probability ctx.mset j) (Mapping_set.probability ctx.mset i))
      cov
  in
  let keep = take k by_prob in
  let keep_set = Hashtbl.create k in
  List.iter (fun (i, _) -> Hashtbl.replace keep_set i ()) keep;
  List.filter (fun (i, _) -> Hashtbl.mem keep_set i) cov

(* Evaluation units. Mappings whose [source_of] agrees on every target
   element of a resolution rewrite the query identically there: both
   evaluators read a mapping only through [source_of] on the resolution's
   elements, and a c-block's correspondences equal its members' on the
   anchor subtree. So with [group], each resolution's covering mappings are
   grouped by that projection, and one evaluation by the unit's leader, its
   lowest id, answers every member. Without it every mapping leads itself:
   one-mapping units, the paper's literal Algorithms 3 and 4. [cov] is in
   ascending id order, so the first mapping seen with a projection leads.
   Returns the table with each covered resolution paired with its unit's
   position among that resolution's leaders, and the leaders themselves,
   ascending. Structurally equal covered lists are interned, so [execute]
   finds the members of the same units everywhere by physical identity. *)
let with_units ctx (res : Resolve.t array) ~group cov =
  let by_projection = Array.map (fun _ -> Hashtbl.create 16) res in
  let leaders = Array.map (fun _ -> []) res and counts = Array.map (fun _ -> 0) res in
  (* Mapping [i] leads a new unit of resolution [r], at the next position. *)
  let lead r i =
    let j = counts.(r) in
    leaders.(r) <- i :: leaders.(r);
    counts.(r) <- j + 1;
    j
  in
  let interned = Hashtbl.create 16 in
  let cov =
    List.map
      (fun (i, covered) ->
        let m = Mapping_set.mapping ctx.mset i in
        let units =
          List.map
            (fun r ->
              if not group then (r, lead r i)
              else
                let projection = Array.map (Mapping.source_at m) res.(r) in
                match Hashtbl.find_opt by_projection.(r) projection with
                | Some j -> (r, j)
                | None ->
                  let j = lead r i in
                  Hashtbl.add by_projection.(r) projection j;
                  (r, j))
            covered
        in
        match Hashtbl.find_opt interned units with
        | Some shared -> (i, shared)
        | None ->
          Hashtbl.add interned units units;
          (i, units))
      cov
  in
  (cov, Array.map (fun l -> Array.of_list (List.rev l)) leaders)

let compile ?(force = `Auto) ?k ctx pattern =
  (match k with
  | Some k when k <= 0 -> invalid_arg "Ptq.query_topk: k must be positive"
  | _ -> ());
  (match (force, ctx.tree) with
  | `Tree, None -> invalid_arg "Ptq.query_tree: context has no block tree"
  | _ -> ());
  let idx = index_pattern pattern in
  let res = Array.of_list (resolutions_of ctx pattern) in
  (* One resolve and one coverage pass serve the relevance filter, the
     probability ranking, the grouping and the restricted evaluation. *)
  let cov = coverage_of ctx res in
  let relevant = List.length cov in
  let cov =
    match k with
    | None -> cov
    | Some k -> prune_topk ctx ~k cov
  in
  let evaluated = List.length cov in
  let cov, leaders = with_units ctx res ~group:(force = `Auto) cov in
  let units = Array.fold_left (fun n l -> n + Array.length l) 0 leaders in
  let phys =
    Plan.choose ?k ~force ~resolutions:(Array.length res) ~relevant ~evaluated ~units ()
  in
  { p_ctx = ctx; p_idx = idx; p_res = res; p_cov = cov; p_leaders = leaders; p_phys = phys }

let physical p = p.p_phys

let execute p =
  Obs.incr c_queries;
  Obs.incr c_executions;
  match p.p_phys.Plan.evaluator with
  | Plan.Per_mapping -> query_basic_cov p.p_ctx p.p_idx p.p_res ~leaders:p.p_leaders p.p_cov
  | Plan.Per_block -> query_tree_cov p.p_ctx p.p_idx p.p_res ~leaders:p.p_leaders p.p_cov

let query ?(force = `Auto) ctx pattern = execute (compile ~force ctx pattern)
let query_basic ctx pattern = query ~force:`Basic ctx pattern
let query_tree ctx pattern = query ~force:`Tree ctx pattern
let query_topk ?(force = `Auto) ctx ~k pattern = execute (compile ~force ~k ctx pattern)

(* An answer set being summed: its bindings and the probability so far,
   in a one-cell float array so that adding to it allocates nothing. *)
type group = {
  g_bindings : Binding.t list;
  g_probability : float array;
}

let consolidate answers =
  (* Unit members share one bindings list, so each distinct physical list
     is looked up once, and only those reach the structural table. *)
  let by_value : (Binding.t list, group) Hashtbl.t = Hashtbl.create 16 in
  let by_list = ref [] and groups = ref [] in
  let group_of bindings =
    match Hashtbl.find_opt by_value bindings with
    | Some g -> g
    | None ->
      let g = { g_bindings = bindings; g_probability = [| 0.0 |] } in
      Hashtbl.add by_value bindings g;
      groups := g :: !groups;
      g
  in
  List.iter
    (fun a ->
      let g =
        match List.assq a.bindings !by_list with
        | g -> g
        | exception Not_found ->
          let g = group_of a.bindings in
          by_list := (a.bindings, g) :: !by_list;
          g
      in
      (* In answer order: the additions a per-answer sum makes. *)
      g.g_probability.(0) <- g.g_probability.(0) +. a.probability)
    answers;
  List.map (fun g -> (g.g_bindings, g.g_probability.(0))) !groups
  |> List.sort (fun (b1, p1) (b2, p2) ->
         (* The probability sort alone is not total: equal-probability
            groups would surface in discovery order. Binding lists are
            distinct per group, so comparing them makes the order stable. *)
         match Float.compare p2 p1 with
         | 0 -> List.compare Binding.compare b1 b2
         | c -> c)

(* EXPLAIN as counter deltas: the query bumps the shared Obs counters on
   the calling domain, so before/after differences are exact as long as no
   other query runs concurrently.
   Working from a compiled plan means resolution and coverage happen
   exactly once — the stats reuse the plan's materialized prefix instead of
   re-resolving the pattern. *)
let explain_plan (p : plan) =
  let grab () =
    ( Obs.value c_blocks_used,
      Obs.value c_shared,
      Obs.value c_direct,
      Obs.value c_decomp,
      Obs.value c_joins )
  in
  let b0, s0, d0, de0, j0 = grab () in
  let answers = execute p in
  let b1, s1, d1, de1, j1 = grab () in
  ( {
      resolutions = Array.length p.p_res;
      relevant_mappings = List.length answers;
      blocks_used = b1 - b0;
      shared_evaluations = s1 - s0;
      direct_evaluations = d1 - d0;
      decompositions = de1 - de0;
      joins = j1 - j0;
      plan = p.p_phys;
    },
    answers )

let explain ?(force = `Auto) ctx pattern = explain_plan (compile ~force ctx pattern)

let binding_texts ctx pattern (b : Binding.t) =
  let labels = Pattern.labels pattern in
  List.concat
    (List.mapi
       (fun i label -> if b.(i) >= 0 then [ (label, Doc.text ctx.doc b.(i)) ] else [])
       labels)
