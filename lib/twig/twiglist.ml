module Doc = Uxsm_xml.Doc

(* Indexed pattern, mirroring Matcher's pre-order numbering. *)
type indexed = {
  pools : Doc.node array array;
  values : string option array;
  attr_preds : (string * string) list array;
  branches : (Pattern.axis * int) array array;
  n : int;
}

let index (p : Pattern.t) doc =
  let n = Pattern.size p in
  let pools = Array.make n [||] in
  let values = Array.make n None in
  let attr_preds = Array.make n [] in
  let branches = Array.make n [||] in
  let next = ref 0 in
  let rec go (node : Pattern.node) =
    let id = !next in
    incr next;
    pools.(id) <- Matcher.pool doc node;
    values.(id) <- node.Pattern.value;
    attr_preds.(id) <- node.Pattern.attrs;
    let kids = List.map (fun (a, c) -> (a, go c)) (Pattern.branches node) in
    branches.(id) <- Array.of_list kids;
    id
  in
  ignore (go p.Pattern.root);
  { pools; values; attr_preds; branches; n }

(* One surviving candidate of a query node: the document node plus, per
   query branch, the interval of entries in that branch's list lying inside
   this node's subtree. *)
type entry = {
  node : Doc.node;
  ranges : (int * int) array;
}

let matches (p : Pattern.t) doc =
  let idx = index p doc in
  let candidates qid =
    let pool = Array.to_list idx.pools.(qid) in
    let pool =
      if qid = 0 && p.Pattern.axis = Pattern.Child then
        List.filter (fun v -> v = Doc.root doc) pool
      else pool
    in
    List.filter
      (fun v ->
        (match idx.values.(qid) with
        | Some t -> String.equal (Doc.text doc v) t
        | None -> true)
        && List.for_all (fun (k, want) -> Doc.attr doc v k = Some want) idx.attr_preds.(qid))
      pool
  in
  (* Merge the candidate streams into one document-order event list. *)
  let events =
    List.concat (List.init idx.n (fun qid -> List.map (fun v -> (v, qid)) (candidates qid)))
    |> List.sort (fun (v1, q1) (v2, q2) ->
           match Int.compare v1 v2 with 0 -> Int.compare q1 q2 | c -> c)
  in
  let lists : entry list ref array = Array.init idx.n (fun _ -> ref []) in
  let lengths = Array.make idx.n 0 in
  let append qid e =
    lists.(qid) := e :: !(lists.(qid));
    lengths.(qid) <- lengths.(qid) + 1
  in
  (* Stack frames: an open candidate with the child-list lengths recorded at
     push time; on finalize (post-order), the intervals are closed. *)
  let stack : (Doc.node * int * int array) list ref = ref [] in
  let finalize (v, qid, starts) =
    let ranges =
      Array.mapi (fun k (_, cid) -> (starts.(k), lengths.(cid))) idx.branches.(qid)
    in
    (* Prune candidates with an empty interval for some branch: they can
       never contribute a full match. *)
    if Array.for_all (fun (s, e) -> e > s) ranges then append qid { node = v; ranges }
  in
  let pop_closed pre =
    while
      match !stack with
      | (v, _, _) :: _ -> Doc.subtree_end doc v < pre
      | [] -> false
    do
      match !stack with
      | top :: rest ->
        stack := rest;
        finalize top
      | [] -> ()
    done
  in
  List.iter
    (fun (v, qid) ->
      pop_closed v;
      let starts = Array.map (fun (_, cid) -> lengths.(cid)) idx.branches.(qid) in
      stack := (v, qid, starts) :: !stack)
    events;
  List.iter finalize !stack;
  (* Lists were built in reverse (and entries prepended); index them as
     arrays in append order. *)
  let arrays = Array.map (fun l -> Array.of_list (List.rev !l)) lists in
  (* Enumerate bindings from the interval structure; structural predicates
     are re-checked exactly (the intervals over-approximate for same-node
     candidates and parent-child edges). Memoized per list entry. *)
  let memo : (int * int, Binding.t list) Hashtbl.t = Hashtbl.create 256 in
  let rec enum qid ei =
    match Hashtbl.find_opt memo (qid, ei) with
    | Some r -> r
    | None ->
      let e = arrays.(qid).(ei) in
      let base = Binding.unbound idx.n in
      base.(qid) <- e.node;
      let step acc k (axis, cid) =
        match acc with
        | [] -> []
        | _ ->
          let s, stop = e.ranges.(k) in
          let subs = ref [] in
          for ci = stop - 1 downto s do
            let child = arrays.(cid).(ci) in
            let ok =
              match axis with
              | Pattern.Child -> Doc.is_parent doc e.node child.node
              | Pattern.Descendant -> Doc.is_ancestor doc e.node child.node
            in
            if ok then subs := enum cid ci @ !subs
          done;
          if !subs = [] then []
          else List.concat_map (fun a -> List.map (Binding.merge a) !subs) acc
      in
      let r = ref [ base ] in
      Array.iteri (fun k b -> r := step !r k b) idx.branches.(qid);
      Hashtbl.add memo (qid, ei) !r;
      !r
  in
  List.concat (List.init (Array.length arrays.(0)) (fun ei -> enum 0 ei))
  |> List.sort Binding.compare

let count p doc = List.length (matches p doc)
