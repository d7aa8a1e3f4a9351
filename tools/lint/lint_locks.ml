(* Interprocedural lock analysis: the static half of the Uxsm_util.Locks
   discipline (the runtime witness is the other half; DESIGN.md §15).

   The analysis builds a value-level call graph over every analyzed file —
   dune-wrapper aware, so [Uxsm_exec.Executor.map_list], a same-library
   [Catalog.register] and a same-file call all resolve to their defining
   binding — then propagates *held-lock sets* along it to a fixed point:

   - Walking each top-level binding in evaluation order tracks the locks
     held locally through [Locks.lock]/[unlock]/[try_lock]/[with_lock],
     including the [Fun.protect ~finally:unlock] idiom and the
     [if Locks.try_lock l then … else …] contended-submitter shape (the
     then-branch holds [l], the else-branch does not).
   - Every internal call contributes the caller's entry set plus the
     locally-held set to the callee's entry set.
   - Lambdas passed to internal callees become sub-nodes that additionally
     inherit what the callee holds around that parameter's invocations (a
     one-level higher-order summary: it is what makes
     [Catalog.with_shard t name (fun sh -> …)] put the shard lock into the
     callback's entry set without leaking one call site's context into
     another's callback).
   - Lambdas passed to unknown external functions ([List.iter], [Obs.time],
     [Fun.protect]) are assumed invoked in place, under the current held
     set; lambdas passed to [Domain.spawn]/[Thread.create] start a fresh
     thread and are walked with an empty held set.

   On the propagated sets three things are checked:

   - [lock-order]: a blocking acquisition of rank r while any lock of rank
     >= r may be held — the runtime witness's check, applied to every path
     of the call graph instead of only executed ones. [try_lock] is exempt
     (a non-blocking acquire cannot be the blocking edge of a deadlock
     cycle) but its success still extends the held set.
   - a [Locks.wait] whose lock is not held, or is not the highest-ranked
     (= innermost legal) held lock.
   - [blocking-under-lock]: a call reachable with any lock held into the
     blocking blocklist — [Unix.read/write/select/connect/accept/…],
     [Thread.join]/[Domain.join], raw [Condition.wait] — or into an
     [Executor.map_*] fan-out, which parks on worker mailboxes and runs
     arbitrarily long jobs while the lock stays held.

   Soundness posture: held sets are over-approximate (branch exits union,
   assumed-invoked closures), so a rule can report a path that never
   executes — such sites carry a reasoned allow annotation. Local
   helper functions defined before a lock region but invoked inside it are
   the known under-approximation; the runtime witness covers that gap. *)

open Parsetree

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------ lock keys --------------------------- *)

(* A lock is identified by the name it is reached through: a (top-level or
   local) value binding, or a record field. That is coarser than object
   identity — all catalog shards share [KField "sh_lock"] — but every lock
   of one name carries one rank, which is all the order check compares. *)
type key =
  | KVar of string
  | KField of string

let key_name = function
  | KVar s -> s
  | KField s -> "." ^ s

(* (key, acquisition line), innermost first, no duplicate keys. *)
type held = (key * int) list

let held_add h k line = if List.mem_assoc k h then h else (k, line) :: h
let held_remove h k = List.filter (fun (k', _) -> k' <> k) h
let union_held a b = List.fold_left (fun acc (k, l) -> held_add acc k l) a b

(* ------------------------------- nodes ------------------------------ *)

type event =
  | Acquire of key * int * int * held  (* blocking acquire: line, col, local held *)
  | Wait of key * int * int * held
  | Block of string * int * int * held  (* blocking primitive / fan-out *)

type node = {
  nd_file : string;
  nd_name : string;
  nd_params : (string option * string) list;  (* (label, var) in order *)
  mutable nd_events : event list;
  mutable nd_calls : call list;
  mutable nd_pinvokes : (string * held) list;  (* param invoked under local held *)
  mutable nd_entry : (key * string) list;  (* may-be-held on entry, with provenance *)
}

and call = {
  c_target : node;
  c_held : held;
  c_subs : (string * node) list;  (* callee param name -> lambda sub-node *)
}

(* --------------------------- per-run context ------------------------ *)

type rank_info =
  | Rank of int
  | Ambiguous  (* one name registered with two different ranks *)

type env = {
  structures : (string, structure) Hashtbl.t;
  aliases : (string, (string, string list) Hashtbl.t) Hashtbl.t;
  locks_aliases : (string * string, string) Hashtbl.t;  (* (file, var) -> Locks fn *)
  nodes : (string * string, node) Hashtbl.t;  (* (file, name) -> node *)
  all_nodes : node Queue.t;
  rank_consts : (string, int) Hashtbl.t;  (* rank_pool -> 10, from locks.ml *)
  var_ranks : (string, rank_info) Hashtbl.t;
  field_ranks : (string, rank_info) Hashtbl.t;
  wrapper_dirs : (string, string) Hashtbl.t;  (* "Uxsm_exec" -> "lib/exec" *)
  file_set : (string, unit) Hashtbl.t;
  mutable findings : Lint_core.finding list;
}

let rank_of env = function
  | KVar v -> (
    match Hashtbl.find_opt env.var_ranks v with Some (Rank r) -> Some r | _ -> None)
  | KField f -> (
    match Hashtbl.find_opt env.field_ranks f with Some (Rank r) -> Some r | _ -> None)

let line_col (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> flatten_lid p @ [ s ]
  | Longident.Lapply (a, b) -> flatten_lid a @ flatten_lid b

let path_of lid =
  match flatten_lid lid with "Stdlib" :: rest -> rest | p -> p

let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip e
  | _ -> e

let ident_path e =
  match (strip e).pexp_desc with Pexp_ident { txt; _ } -> Some (path_of txt) | _ -> None

let unit_expr =
  {
    pexp_desc =
      Pexp_construct ({ txt = Longident.Lident "()"; loc = Location.none }, None);
    pexp_loc = Location.none;
    pexp_loc_stack = [];
    pexp_attributes = [];
  }

(* ----------------------- pass A: files and facts -------------------- *)

let parse_structure ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  Location.input_name := file;
  match Parse.implementation lexbuf with
  | str -> Some str
  | exception _ -> None

let is_locks_path env file p =
  (* [Locks.fn] / [Uxsm_util.Locks.fn] / a same-file alias binding. *)
  match p with
  | [ v ] -> Hashtbl.find_opt env.locks_aliases (file, v)
  | _ -> (
    match List.rev p with
    | fn :: "Locks" :: _ -> Some fn
    | _ -> None)

let register_rank tbl name info =
  match (Hashtbl.find_opt tbl name, info) with
  | None, _ -> Hashtbl.replace tbl name info
  | Some (Rank a), Rank b when a = b -> ()
  | Some _, _ -> Hashtbl.replace tbl name Ambiguous

(* The ~rank argument of a [Locks.create] call: an int literal or a
   [rank_*] constant from locks.ml. *)
let rank_of_expr env e =
  match (strip e).pexp_desc with
  | Pexp_constant (Pconst_integer (s, _)) -> (
    match int_of_string_opt s with Some n -> Rank n | None -> Ambiguous)
  | _ -> (
    match ident_path e with
    | Some p -> (
      match List.rev p with
      | c :: _ -> (
        match Hashtbl.find_opt env.rank_consts c with
        | Some n -> Rank n
        | None -> Ambiguous)
      | [] -> Ambiguous)
    | None -> Ambiguous)

let locks_create_rank env e =
  match (strip e).pexp_desc with
  | Pexp_apply (f, args) -> (
    match ident_path f with
    | Some p
      when (match List.rev p with "create" :: "Locks" :: _ -> true | _ -> false) -> (
      match List.assoc_opt (Asttypes.Labelled "rank") args with
      | Some r -> Some (rank_of_expr env r)
      | None -> Some Ambiguous)
    | _ -> None)
  | _ -> None

(* Lock definitions: [let v = Locks.create …] (at any nesting) and
   [{ field = Locks.create …; … }] record fields. *)
let collect_lock_defs env str =
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match (vb.pvb_pat.ppat_desc, locks_create_rank env vb.pvb_expr) with
          | Ppat_var { txt; _ }, Some info -> register_rank env.var_ranks txt info
          | _ -> ());
          Ast_iterator.default_iterator.value_binding self vb);
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_record (fields, _) ->
            List.iter
              (fun ({ Location.txt; _ }, value) ->
                match (List.rev (flatten_lid txt), locks_create_rank env value) with
                | name :: _, Some info -> register_rank env.field_ranks name info
                | _ -> ())
              fields
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str

let collect_rank_consts env str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match (vb.pvb_pat.ppat_desc, (strip vb.pvb_expr).pexp_desc) with
            | Ppat_var { txt; _ }, Pexp_constant (Pconst_integer (s, _))
              when String.starts_with ~prefix:"rank_" txt -> (
              match int_of_string_opt s with
              | Some n -> Hashtbl.replace env.rank_consts txt n
              | None -> ())
            | _ -> ())
          vbs
      | _ -> ())
    str

let collect_aliases str =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } -> (
        match pmb_expr.pmod_desc with
        | Pmod_ident { txt; _ } -> Hashtbl.replace tbl m (flatten_lid txt)
        | _ -> ())
      | _ -> ())
    str;
  tbl

let params_of_expr e =
  let rec go acc e =
    match (strip e).pexp_desc with
    | Pexp_fun (lbl, _, pat, body) ->
      let name =
        match pat.ppat_desc with Ppat_var { txt; _ } -> txt | _ -> "_"
      in
      let lbl =
        match lbl with
        | Asttypes.Nolabel -> None
        | Asttypes.Labelled s | Asttypes.Optional s -> Some s
      in
      go ((lbl, name) :: acc) body
    | Pexp_newtype (_, body) -> go acc body
    | _ -> List.rev acc
  in
  go [] e

let fresh_node env ~file ~name ~params =
  let nd =
    {
      nd_file = file;
      nd_name = name;
      nd_params = params;
      nd_events = [];
      nd_calls = [];
      nd_pinvokes = [];
      nd_entry = [];
    }
  in
  Queue.add nd env.all_nodes;
  nd

(* Top-level bindings, flattened through plain nested modules; the node
   name is the binding name (last registration wins on shadowing, as in
   scope). A binding that merely aliases a Locks function
   ([let with_lock = Locks.with_lock]) is recorded as an alias, so calls
   through it get the special-form treatment. *)
let collect_nodes env file str =
  let rec scan_structure s = List.iter scan_item s
  and scan_item item =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> (
            match ident_path vb.pvb_expr with
            | Some p
              when (match List.rev p with _ :: "Locks" :: _ -> true | _ -> false)
              ->
              Hashtbl.replace env.locks_aliases (file, txt) (List.hd (List.rev p))
            | _ ->
              let nd =
                fresh_node env ~file ~name:txt ~params:(params_of_expr vb.pvb_expr)
              in
              Hashtbl.replace env.nodes (file, txt) nd)
          | _ -> ())
        vbs
    | Pstr_module mb -> scan_module_expr mb.pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> scan_module_expr mb.pmb_expr) mbs
    | Pstr_include i -> scan_module_expr i.pincl_mod
    | _ -> ()
  and scan_module_expr me =
    match me.pmod_desc with
    | Pmod_structure s -> scan_structure s
    | Pmod_constraint (me, _) -> scan_module_expr me
    | _ -> ()
  in
  scan_structure str

(* --------------------------- path resolution ------------------------ *)

let expand_alias env file p =
  match p with
  | head :: rest -> (
    match Hashtbl.find_opt env.aliases file with
    | Some tbl -> (
      match Hashtbl.find_opt tbl head with
      | Some target -> target @ rest
      | None -> p)
    | None -> p)
  | [] -> p

(* Resolve a value path to its defining node: same-file [name], same-dir
   [Module.name] (intra-library references under a dune wrapper), or
   cross-library [Wrapper.Module.name]. *)
let resolve_node env ~file p =
  let find_in_file f name =
    if Hashtbl.mem env.file_set f then Hashtbl.find_opt env.nodes (f, name) else None
  in
  match p with
  | [ name ] -> find_in_file file name
  | [ m; name ] ->
    let dir = Filename.dirname file in
    find_in_file (Filename.concat dir (String.uncapitalize_ascii m ^ ".ml")) name
  | [ w; m; name ] -> (
    match Hashtbl.find_opt env.wrapper_dirs w with
    | Some dir ->
      find_in_file (Filename.concat dir (String.uncapitalize_ascii m ^ ".ml")) name
    | None -> None)
  | _ -> None

let is_executor_fanout nd =
  Filename.basename nd.nd_file = "executor.ml"
  && (match nd.nd_name with
     | "map_array" | "map_list" -> true
     | _ -> false)

(* Calls that can block the calling thread for an unbounded time. *)
let blocklisted p =
  match p with
  | [ "Unix"; f ] ->
    List.mem f
      [ "read"; "write"; "write_substring"; "single_write"; "select"; "connect";
        "accept"; "recv"; "send"; "sleep"; "sleepf"; "waitpid" ]
  | [ "Thread"; ("join" | "delay") ] -> true
  | [ "Domain"; "join" ] -> true
  | [ "Condition"; "wait" ] -> true
  | _ -> false

let fanout_path p =
  match List.rev p with
  | ("map_array" | "map_list") :: "Executor" :: _ ->
    Some (List.hd (List.rev p))
  | _ -> None

(* Entry points whose callback does NOT run here: a fresh thread, or the
   process-exit hook. Both start with an empty held stack, whatever the
   registering caller holds. *)
let is_thread_entry p =
  match p with
  | [ "Domain"; "spawn" ] | [ "Thread"; "create" ] | [ "at_exit" ] -> true
  | _ -> false

(* ------------------------ pass B: the walker ------------------------ *)

type wstate = {
  env : env;
  node : node;  (* events accumulate here *)
  mutable held : held;
  mutable bound : string list;  (* names bound by enclosing lets, parameters, patterns *)
  sub_count : int ref;  (* per-file lambda sub-node counter *)
}

(* The value names a pattern binds. *)
let pat_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it p;
  !acc

(* Resolve a path at a use site. A bare name bound by an enclosing let,
   parameter or pattern is a local value, never a same-file top-level
   binding it happens to shadow. *)
let resolve_at st p =
  match p with
  | [ v ] when List.mem v st.bound -> None
  | _ -> resolve_node st.env ~file:st.node.nd_file p

let key_of_lock_expr e =
  match (strip e).pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match List.rev (path_of txt) with v :: _ -> Some (KVar v) | [] -> None)
  | Pexp_field (_, { txt; _ }) -> (
    match List.rev (flatten_lid txt) with f :: _ -> Some (KField f) | [] -> None)
  | _ -> None

(* Flatten [f @@ x] and [x |> f] into direct application, merging the
   argument lists of curried heads: [Locks.with_lock l @@ fun () -> …]. *)
let rec normalize_apply f args =
  match ident_path f with
  | Some [ "@@" ] -> (
    match args with
    | [ (_, lhs); (_, rhs) ] -> (
      match (strip lhs).pexp_desc with
      | Pexp_apply (f', args') -> normalize_apply f' (args' @ [ (Asttypes.Nolabel, rhs) ])
      | _ -> (lhs, [ (Asttypes.Nolabel, rhs) ]))
    | _ -> (f, args))
  | Some [ "|>" ] -> (
    match args with
    | [ (_, lhs); (_, rhs) ] -> (
      match (strip rhs).pexp_desc with
      | Pexp_apply (f', args') -> normalize_apply f' (args' @ [ (Asttypes.Nolabel, lhs) ])
      | _ -> (rhs, [ (Asttypes.Nolabel, lhs) ]))
    | _ -> (f, args))
  | _ -> (f, args)

let unlabelled args =
  List.filter_map
    (fun (l, e) -> match l with Asttypes.Nolabel -> Some e | _ -> None)
    args

let is_lambda e =
  match (strip e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

(* Match call-site arguments to callee parameters: labelled by name,
   unlabelled positionally. Returns (param name, argument) pairs. *)
let match_args params args =
  let pos = ref (List.filter_map (fun (l, n) -> if l = None then Some n else None) params) in
  List.filter_map
    (fun (lbl, e) ->
      match lbl with
      | Asttypes.Labelled l | Asttypes.Optional l ->
        if List.exists (fun (pl, _) -> pl = Some l) params then Some (l, e) else None
      | Asttypes.Nolabel -> (
        match !pos with
        | p :: rest ->
          pos := rest;
          Some (p, e)
        | [] -> None))
    args

(* Keys unlocked anywhere inside a [~finally] closure. *)
let unlocks_in env file e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
            match ident_path f with
            | Some p when is_locks_path env file p = Some "unlock" -> (
              match unlabelled args with
              | lk :: _ -> (
                match key_of_lock_expr lk with
                | Some k -> acc := k :: !acc
                | None -> ())
              | [] -> ())
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !acc

let rec walk st e =
  match e.pexp_desc with
  | Pexp_apply (f, args) ->
    let f, args = normalize_apply f args in
    handle_apply st f args e.pexp_loc
  | Pexp_ident { txt; _ } -> ident_occurrence st (path_of txt) e.pexp_loc
  | Pexp_fun (_, default, pat, body) ->
    Option.iter (walk st) default;
    with_bound st (pat_vars pat) (fun () -> walk_confined st body)
  | Pexp_function cases -> List.iter (walk_case st) cases
  | Pexp_let (rf, vbs, body) ->
    let names = List.concat_map (fun vb -> pat_vars vb.pvb_pat) vbs in
    let walk_vbs () = List.iter (fun vb -> walk st vb.pvb_expr) vbs in
    if rf = Asttypes.Recursive then with_bound st names walk_vbs else walk_vbs ();
    with_bound st names (fun () -> walk st body)
  | Pexp_for (pat, lo, hi, _, body) ->
    walk st lo;
    walk st hi;
    with_bound st (pat_vars pat) (fun () -> walk st body)
  | Pexp_newtype (_, body) -> walk_confined st body
  | Pexp_ifthenelse (cond, then_, else_) -> (
    (* [if Locks.try_lock l then A else B]: A holds [l], B does not. *)
    match try_lock_cond st cond with
    | Some (k, line, negated) ->
      let base = st.held in
      let with_l = if negated then Option.value else_ ~default:unit_expr else then_ in
      let without_l = if negated then then_ else Option.value else_ ~default:unit_expr in
      st.held <- held_add base k line;
      walk st with_l;
      let h1 = st.held in
      st.held <- base;
      walk st without_l;
      st.held <- union_held h1 st.held
    | None ->
      walk st cond;
      let base = st.held in
      walk st then_;
      let h1 = st.held in
      st.held <- base;
      Option.iter (walk st) else_;
      st.held <- union_held h1 st.held)
  | Pexp_match (scrut, cases) ->
    walk st scrut;
    walk_cases st cases
  | Pexp_try (body, cases) ->
    let before = st.held in
    walk st body;
    (* Handlers can be entered from any point of the body. *)
    st.held <- union_held before st.held;
    walk_cases st cases
  | Pexp_while (cond, body) ->
    walk st cond;
    let base = st.held in
    walk st body;
    st.held <- union_held base st.held
  | _ -> walk_children st e

(* A stored closure or function body: walk under the current held set, but
   confine its net lock effect. *)
and walk_confined st e =
  let base = st.held in
  walk st e;
  st.held <- base

(* Run [f] with [names] in scope; the scope ends with it. *)
and with_bound st names f =
  let outer = st.bound in
  st.bound <- names @ outer;
  f ();
  st.bound <- outer

and walk_case st c =
  with_bound st (pat_vars c.pc_lhs) (fun () ->
      Option.iter (walk st) c.pc_guard;
      walk_confined st c.pc_rhs)

and walk_cases st cases =
  let base = st.held in
  let exits =
    List.map
      (fun c ->
        st.held <- base;
        with_bound st (pat_vars c.pc_lhs) (fun () ->
            Option.iter (walk st) c.pc_guard;
            walk st c.pc_rhs);
        st.held)
      cases
  in
  st.held <- List.fold_left union_held base exits

and try_lock_cond st cond =
  let direct e =
    match (strip e).pexp_desc with
    | Pexp_apply (f, args) -> (
      match ident_path f with
      | Some p when is_locks_path st.env st.node.nd_file p = Some "try_lock" -> (
        match unlabelled args with
        | lk :: _ -> (
          match key_of_lock_expr lk with
          | Some k -> Some (k, fst (line_col e.pexp_loc))
          | None -> None)
        | [] -> None)
      | _ -> None)
    | _ -> None
  in
  match direct cond with
  | Some (k, l) -> Some (k, l, false)
  | None -> (
    match (strip cond).pexp_desc with
    | Pexp_apply (f, [ (_, inner) ]) when ident_path f = Some [ "not" ] -> (
      match direct inner with
      | Some (k, l) -> Some (k, l, true)
      | None -> None)
    | _ -> None)

and walk_children st e =
  let it = { Ast_iterator.default_iterator with expr = (fun _ c -> walk st c) } in
  Ast_iterator.default_iterator.expr it e

and emit st ev = st.node.nd_events <- ev :: st.node.nd_events

and record_call st target subs =
  st.node.nd_calls <-
    { c_target = target; c_held = st.held; c_subs = subs } :: st.node.nd_calls

(* An identifier outside call position: a blocklisted primitive passed as
   a value, or an internal function passed as a callback — assumed invoked
   under the current held set. *)
and ident_occurrence st p loc =
  let line, col = line_col loc in
  let expanded = expand_alias st.env st.node.nd_file p in
  if blocklisted p || blocklisted expanded then
    emit st (Block (String.concat "." expanded, line, col, st.held))
  else
    match resolve_at st expanded with
    | Some target when target != st.node -> record_call st target []
    | _ -> (
      match p with
      | [ v ] when List.exists (fun (_, n) -> n = v) st.node.nd_params ->
        st.node.nd_pinvokes <- (v, st.held) :: st.node.nd_pinvokes
      | _ -> ())

(* Walk a callback that runs in place: its body under the current held set
   plus [extra]; net lock effects stay confined. *)
and walk_callback st ?(extra = []) e =
  let base = st.held in
  st.held <- List.fold_left (fun h (k, l) -> held_add h k l) st.held extra;
  (match (strip e).pexp_desc with
  | Pexp_fun (_, _, pat, body) -> with_bound st (pat_vars pat) (fun () -> walk st body)
  | Pexp_newtype (_, body) -> walk st body
  | Pexp_function cases ->
    List.iter
      (fun c ->
        with_bound st (pat_vars c.pc_lhs) (fun () ->
            Option.iter (walk st) c.pc_guard;
            walk st c.pc_rhs))
      cases
  | _ -> walk st e);
  st.held <- base

(* A function-position argument that is not a literal lambda: a parameter
   (record the invocation), an internal function (record the call edge),
   or an arbitrary expression (walk it). *)
and apply_function_value st ?(extra = []) e =
  let held = List.fold_left (fun h (k, l) -> held_add h k l) st.held extra in
  match ident_path e with
  | Some [ v ] when List.exists (fun (_, n) -> n = v) st.node.nd_params ->
    st.node.nd_pinvokes <- (v, held) :: st.node.nd_pinvokes
  | Some p -> (
    let p = expand_alias st.env st.node.nd_file p in
    match resolve_at st p with
    | Some target ->
      st.node.nd_calls <-
        { c_target = target; c_held = held; c_subs = [] } :: st.node.nd_calls
    | None -> ())
  | None -> walk_confined st e

and handle_apply st f args loc =
  let line, col = line_col loc in
  match ident_path f with
  | None ->
    (* Immediately-applied lambda or computed function. *)
    List.iter (fun (_, a) -> walk st a) args;
    walk_confined st f
  | Some raw_path -> (
    let file = st.node.nd_file in
    let locks_fn =
      match is_locks_path st.env file raw_path with
      | Some fn -> Some fn
      | None -> is_locks_path st.env file (expand_alias st.env file raw_path)
    in
    match locks_fn with
    | Some fn -> handle_locks st fn args line col
    | None -> (
      let p = expand_alias st.env file raw_path in
      match List.rev p with
      | "protect" :: "Fun" :: _ -> handle_fun_protect st args
      | _ -> (
        let target = resolve_at st p in
        (* Fan-out and blocklist events fire at the call site — except the
           executor's own internal plumbing (map_list delegating to
           map_array), which would double-report every external site. *)
        let internal_plumbing = Filename.basename file = "executor.ml" in
        (match target with
        | Some nd when is_executor_fanout nd && not internal_plumbing ->
          emit st
            (Block (Printf.sprintf "Executor.%s fan-out" nd.nd_name, line, col, st.held))
        | Some _ -> ()
        | None -> (
          match fanout_path p with
          | Some m when not internal_plumbing ->
            emit st (Block (Printf.sprintf "Executor.%s fan-out" m, line, col, st.held))
          | _ -> ()));
        if blocklisted p then
          emit st (Block (String.concat "." p, line, col, st.held));
        match target with
        | Some nd ->
          (* Lambda arguments matched to callee params become sub-nodes;
             everything else is walked generically. *)
          let matched = match_args nd.nd_params args in
          let subs = ref [] in
          List.iter
            (fun (_, a) ->
              if is_lambda a then begin
                match
                  List.find_opt (fun (_, a') -> a' == a) matched |> Option.map fst
                with
                | Some pname ->
                  incr st.sub_count;
                  let sub =
                    fresh_node st.env ~file
                      ~name:(Printf.sprintf "%s/fn%d" st.node.nd_name !(st.sub_count))
                      ~params:(params_of_expr a)
                  in
                  let sub_st = { st with node = sub } in
                  sub_st.held <- st.held;
                  walk_callback sub_st a;
                  subs := (pname, sub) :: !subs
                | None -> walk_callback st a
              end
              else walk st a)
            args;
          record_call st nd !subs
        | None ->
          if is_thread_entry p then
            (* The callback begins a fresh stack on another thread (or at
               process exit): walk lambdas as isolated sub-nodes — no held
               set, no entry propagation from this caller — and record no
               edge for function values (their nodes are walked on their
               own, gathering entries only from same-stack callers). *)
            List.iter
              (fun (_, a) ->
                if is_lambda a then begin
                  incr st.sub_count;
                  let sub =
                    fresh_node st.env ~file
                      ~name:
                        (Printf.sprintf "%s/spawn%d" st.node.nd_name !(st.sub_count))
                      ~params:(params_of_expr a)
                  in
                  let sub_st = { st with node = sub } in
                  sub_st.held <- [];
                  walk_callback sub_st a
                end
                else if ident_path a = None then walk st a)
              args
          else
            (* External call: closures are assumed to run in place. *)
            List.iter
              (fun (_, a) -> if is_lambda a then walk_callback st a else walk st a)
              args)))

and handle_fun_protect st args =
  let fin = List.assoc_opt (Asttypes.Labelled "finally") args in
  let unlocked =
    match fin with
    | Some f -> unlocks_in st.env st.node.nd_file f
    | None -> []
  in
  (match fin with Some f -> walk_confined st f | None -> ());
  (match unlabelled args with
  | body :: _ ->
    if is_lambda body then walk_callback st body else apply_function_value st body
  | []  -> ());
  (* [Fun.protect ~finally:(fun () -> Locks.unlock l) …] releases [l] on
     every exit path of the protected body. *)
  List.iter (fun k -> st.held <- held_remove st.held k) unlocked

and handle_locks st fn args line col =
  let u = unlabelled args in
  let key_of i = Option.bind (List.nth_opt u i) key_of_lock_expr in
  match fn with
  | "lock" -> (
    match key_of 0 with
    | Some k ->
      emit st (Acquire (k, line, col, st.held));
      st.held <- held_add st.held k line
    | None -> unresolved_lock st line col)
  | "unlock" -> (
    match key_of 0 with
    | Some k -> st.held <- held_remove st.held k
    | None -> ())
  | "try_lock" -> (
    (* Outside the [if] shape: over-approximate as held from here on. *)
    match key_of 0 with
    | Some k -> st.held <- held_add st.held k line
    | None -> ())
  | "with_lock" -> (
    match key_of 0 with
    | None -> unresolved_lock st line col
    | Some k -> (
      emit st (Acquire (k, line, col, st.held));
      match List.nth_opt u 1 with
      | None -> ()  (* partial application *)
      | Some body ->
        if is_lambda body then walk_callback st ~extra:[ (k, line) ] body
        else apply_function_value st ~extra:[ (k, line) ] body))
  | "wait" -> (
    match key_of 1 with
    | Some k -> emit st (Wait (k, line, col, st.held))
    | None -> unresolved_lock st line col)
  | _ ->
    (* signal / broadcast / create / cond / name / rank / held / mode … *)
    List.iter (fun (_, a) -> walk st a) args

and unresolved_lock st line col =
  st.env.findings <-
    {
      Lint_core.rule = "lock-order";
      file = st.node.nd_file;
      line;
      col;
      severity = Lint_core.Warning;
      message =
        "cannot resolve the lock expression to a named binding or record field; \
         the rank check is skipped here — bind the lock to a name";
      suppressed = None;
      baselined = false;
    }
    :: st.env.findings

(* ------------------------- fixed-point and rules -------------------- *)

let entry_add nd k prov =
  if List.mem_assoc k nd.nd_entry then false
  else begin
    nd.nd_entry <- (k, prov) :: nd.nd_entry;
    true
  end

(* Locks the callee itself acquires around invocations of parameter [p] —
   local acquisitions only, so one call site's context never leaks into
   another site's callback. *)
let param_held_local callee p =
  List.concat_map
    (fun (name, h) -> if name = p then List.map fst h else [])
    callee.nd_pinvokes

let fix_point env =
  let changed = ref true in
  while !changed do
    changed := false;
    Queue.iter
      (fun nd ->
        List.iter
          (fun c ->
            let add_to target (k, prov) =
              if entry_add target k prov then changed := true
            in
            (* Caller entry + locally-held flow into the callee. *)
            List.iter (add_to c.c_target) nd.nd_entry;
            List.iter
              (fun (k, _) ->
                add_to c.c_target
                  (k, Printf.sprintf "held across the call from %s in %s" nd.nd_name nd.nd_file))
              c.c_held;
            (* Lambda sub-nodes inherit the caller's entry plus what the
               callee holds around that parameter. *)
            List.iter
              (fun (pname, sub) ->
                List.iter (add_to sub) nd.nd_entry;
                List.iter
                  (fun k ->
                    add_to sub
                      ( k,
                        Printf.sprintf "held by %s around its %s callback"
                          c.c_target.nd_name pname ))
                  (param_held_local c.c_target pname))
              c.c_subs)
          nd.nd_calls)
      env.all_nodes
  done

(* The union of locally-held and may-be-held-on-entry, each with a note on
   where it came from. *)
let full_held nd (local : held) =
  let local' = List.map (fun (k, l) -> (k, Printf.sprintf "held since line %d" l)) local in
  List.fold_left
    (fun acc (k, prov) -> if List.mem_assoc k acc then acc else acc @ [ (k, prov) ])
    local' nd.nd_entry

let render_one env (k, how) =
  let r =
    match rank_of env k with
    | Some r -> Printf.sprintf " (rank %d)" r
    | None -> ""
  in
  Printf.sprintf "%s%s [%s]" (key_name k) r how

let render_held env all = String.concat ", " (List.map (render_one env) all)

let finding ~rule ~file ~line ~col ~severity message =
  { Lint_core.rule; file; line; col; severity; message; suppressed = None;
    baselined = false }

let check_node env nd acc =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Acquire (k, line, col, local) -> (
        let all = full_held nd local in
        match rank_of env k with
        | None ->
          if all = [] then acc
          else
            finding ~rule:"lock-order" ~file:nd.nd_file ~line ~col
              ~severity:Lint_core.Warning
              (Printf.sprintf "acquiring %s, whose rank is unknown, while %s may be held"
                 (key_name k) (render_held env all))
            :: acc
        | Some rk ->
          List.fold_left
            (fun acc (h, prov) ->
              match rank_of env h with
              | Some rh when rh >= rk ->
                finding ~rule:"lock-order" ~file:nd.nd_file ~line ~col
                  ~severity:Lint_core.Error
                  (if h = k then
                     Printf.sprintf
                       "re-acquiring %s (rank %d), already %s — self-deadlock"
                       (key_name k) rk prov
                   else
                     Printf.sprintf
                       "acquiring %s (rank %d) while %s (rank %d) may be held \
                        [%s]; blocking acquisitions must be in strictly \
                        ascending rank order — see DESIGN.md §15"
                       (key_name k) rk (key_name h) rh prov)
                :: acc
              | _ -> acc)
            acc all)
      | Wait (k, line, col, local) -> (
        let all = full_held nd local in
        if not (List.mem_assoc k all) then
          finding ~rule:"lock-order" ~file:nd.nd_file ~line ~col
            ~severity:Lint_core.Error
            (Printf.sprintf
               "Locks.wait on %s, which is not held on any path reaching this \
                wait — waiting requires holding the lock"
               (key_name k))
          :: acc
        else
          match rank_of env k with
          | None -> acc
          | Some rk ->
            List.fold_left
              (fun acc (h, prov) ->
                match rank_of env h with
                | Some rh when h <> k && rh > rk ->
                  finding ~rule:"lock-order" ~file:nd.nd_file ~line ~col
                    ~severity:Lint_core.Error
                    (Printf.sprintf
                       "Locks.wait on %s (rank %d) while %s (rank %d) may be \
                        held [%s]; the signalled re-acquisition would run \
                        beneath a higher rank — wait only on the innermost lock"
                       (key_name k) rk (key_name h) rh prov)
                  :: acc
                | _ -> acc)
              acc all)
      | Block (what, line, col, local) ->
        let all = full_held nd local in
        if all = [] then acc
        else
          finding ~rule:"blocking-under-lock" ~file:nd.nd_file ~line ~col
            ~severity:Lint_core.Error
            (Printf.sprintf
               "%s may block indefinitely while %s is held — release the lock \
                first, or annotate why the hold is bounded"
               what (render_held env all))
          :: acc)
    acc nd.nd_events

(* ------------------------------ driver ------------------------------ *)

let locks_impl_file files =
  List.find_opt
    (fun f ->
      Filename.basename f = "locks.ml"
      && Filename.basename (Filename.dirname f) = "util")
    files

(* Run the whole analysis over [(file, source)] pairs. locks.ml (the
   wrapper's own implementation) contributes its rank constants but is not
   itself a subject of the lock rules. *)
let analyze_sources sources =
  let env =
    {
      structures = Hashtbl.create 64;
      aliases = Hashtbl.create 64;
      locks_aliases = Hashtbl.create 16;
      nodes = Hashtbl.create 512;
      all_nodes = Queue.create ();
      rank_consts = Hashtbl.create 16;
      var_ranks = Hashtbl.create 16;
      field_ranks = Hashtbl.create 16;
      wrapper_dirs = Hashtbl.create 16;
      file_set = Hashtbl.create 64;
      findings = [];
    }
  in
  let locks_ml = locks_impl_file (List.map fst sources) in
  (match locks_ml with
  | Some f -> (
    match parse_structure ~file:f (List.assoc f sources) with
    | Some str -> collect_rank_consts env str
    | None -> ())
  | None -> ());
  let sources = List.filter (fun (f, _) -> Some f <> locks_ml) sources in
  (* Pass A: parse; aliases, wrappers, nodes, lock definitions. *)
  List.iter
    (fun (f, src) ->
      match parse_structure ~file:f src with
      | None -> ()
      | Some str ->
        Hashtbl.replace env.structures f str;
        Hashtbl.replace env.file_set f ();
        Hashtbl.replace env.aliases f (collect_aliases str);
        (match Lint_deps.library_wrapper (Filename.dirname f) with
        | Some w ->
          Hashtbl.replace env.wrapper_dirs
            (String.capitalize_ascii w)
            (Filename.dirname f)
        | None -> ());
        collect_nodes env f str)
    sources;
  (* lint: allow nondet-iter — per-file fact collection into keyed tables; no order dependence *)
  Hashtbl.iter (fun _ str -> collect_lock_defs env str) env.structures;
  (* Pass B: event extraction per node. *)
  let walk_file f str =
    let counter = ref 0 in
    let rec scan_structure s = List.iter scan_item s
    and scan_item item =
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> (
              match Hashtbl.find_opt env.nodes (f, txt) with
              | Some nd ->
                let st = { env; node = nd; held = []; bound = []; sub_count = counter } in
                walk st vb.pvb_expr
              | None -> () (* a Locks alias binding *))
            | _ ->
              (* Anonymous top-level effects ([let () = …]) run at init. *)
              let nd = fresh_node env ~file:f ~name:"(init)" ~params:[] in
              let st = { env; node = nd; held = []; bound = []; sub_count = counter } in
              walk st vb.pvb_expr)
          vbs
      | Pstr_module mb -> scan_module_expr mb.pmb_expr
      | Pstr_recmodule mbs -> List.iter (fun mb -> scan_module_expr mb.pmb_expr) mbs
      | Pstr_include i -> scan_module_expr i.pincl_mod
      | _ -> ()
    and scan_module_expr me =
      match me.pmod_desc with
      | Pmod_structure s -> scan_structure s
      | Pmod_constraint (me, _) -> scan_module_expr me
      | _ -> ()
    in
    scan_structure str
  in
  (* lint: allow nondet-iter — files walk independently; the fixed point and the final sort_uniq make the result order-free *)
  Hashtbl.iter walk_file env.structures;
  fix_point env;
  let findings =
    Queue.fold (fun acc nd -> check_node env nd acc) env.findings env.all_nodes
  in
  (* Propagation can surface one site through several contexts; report each
     (rule, site, message) once. *)
  (* lint: allow poly-compare — findings are records of scalars; structural order is the dedup key *)
  List.sort_uniq compare findings

let analyze ~files = analyze_sources (List.map (fun f -> (f, read_file f)) files)
