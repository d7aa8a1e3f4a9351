module Doc = Uxsm_xml.Doc

(* A pattern node's anchor resolved against the document: its path id, or
   one of these. *)
let unanchored = -1
let absent = -2

let anchor_id doc (node : Pattern.node) =
  match node.Pattern.anchor with
  | None -> unanchored
  | Some path -> (
    match Doc.find_path doc path with
    | None -> absent
    | Some id ->
      (* Every node of a path carries the path's last label, so an anchor
         ending in another label admits nothing. *)
      let nodes = Doc.path_nodes doc id in
      if Pattern.is_wildcard node || String.equal node.Pattern.label (Doc.label doc nodes.(0))
      then id
      else absent)

(* The nodes a pattern node with resolved anchor [a] admits, ascending:
   the anchor's path, nothing for an absent anchor, else the label's nodes,
   else (an unanchored wildcard) every node. The array may be the
   document's own, so it is never mutated. *)
let pool_of doc (node : Pattern.node) a =
  if a >= 0 then Doc.path_nodes doc a
  else if a = absent then [||]
  else if Pattern.is_wildcard node then Array.init (Doc.size doc) Fun.id
  else Doc.label_nodes doc node.Pattern.label

(* The pattern in pre-order arrays, resolved against one document. *)
type indexed = {
  labels : string array;
  anchors : int array;
  pools : Doc.node array array;
  values : string option array;
  attr_preds : (string * string) list array;
  branches : (Pattern.axis * int) array array;
  n : int;
}

let index (p : Pattern.t) doc =
  let n = Pattern.size p in
  let labels = Array.make n "" in
  let anchors = Array.make n unanchored in
  let pools = Array.make n [||] in
  let values = Array.make n None in
  let attr_preds = Array.make n [] in
  let branches = Array.make n [||] in
  (* Assign pre-order ids exactly as Pattern.nodes does. *)
  let next = ref 0 in
  let rec go (node : Pattern.node) =
    let id = !next in
    incr next;
    labels.(id) <- node.Pattern.label;
    anchors.(id) <- anchor_id doc node;
    pools.(id) <- pool_of doc node anchors.(id);
    values.(id) <- node.Pattern.value;
    attr_preds.(id) <- node.Pattern.attrs;
    let kids = List.map (fun (a, c) -> (a, go c)) (Pattern.branches node) in
    branches.(id) <- Array.of_list kids;
    id
  in
  ignore (go p.Pattern.root);
  { labels; anchors; pools; values; attr_preds; branches; n }

(* First index of the ascending array [a] whose node follows [v]. *)
let upper_bound (a : Doc.node array) v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  !lo

(* Does pattern node [pid] admit document node [v] by label and anchor? *)
let admits idx doc pid v =
  let a = idx.anchors.(pid) in
  if a = unanchored then
    String.equal idx.labels.(pid) Pattern.wildcard || String.equal idx.labels.(pid) (Doc.label doc v)
  else a = Doc.path_id doc v

module Memo = Hashtbl.Make (Int)

(* Enumerate the bindings of the pattern subtree rooted at [pid] when it is
   bound to document node [v]; memoized on (pid, v), packed into one int. *)
let enum_with idx doc =
  let memo : Binding.t list Memo.t = Memo.create 256 in
  let rec enum pid v =
    let key = (v * idx.n) + pid in
    match Memo.find_opt memo key with
    | Some r -> r
    | None ->
      let r = compute pid v in
      Memo.add memo key r;
      r
  (* The bindings of child [cid] under [v] over the [axis] step, in
     candidate (document) order. A step's candidates lie in [v]'s subtree
     interval [(v, subtree_end v]], a slice of the child's pool. *)
  and step_bindings v axis cid =
    let e = Doc.subtree_end doc v in
    let pool = idx.pools.(cid) in
    let lo = upper_bound pool v in
    let hi = ref lo in
    while !hi < Array.length pool && pool.(!hi) <= e do
      incr hi
    done;
    let acc = ref [] in
    for i = !hi - 1 downto lo do
      let u = pool.(i) in
      match axis with
      | Pattern.Child -> if Doc.is_parent doc v u then acc := enum cid u @ !acc
      | Pattern.Descendant -> acc := enum cid u @ !acc
    done;
    !acc
  and compute pid v =
    if not (admits idx doc pid v) then []
    else if
      not
        (List.for_all
           (fun (k, want) -> Doc.attr doc v k = Some want)
           idx.attr_preds.(pid))
    then []
    else if
      match idx.values.(pid) with
      | Some value -> not (String.equal (Doc.text doc v) value)
      | None -> false
    then []
    else begin
      let base = Binding.unbound idx.n in
      base.(pid) <- v;
      let step acc (axis, cid) =
        match acc with
        | [] -> []
        | _ ->
          let subs = step_bindings v axis cid in
          if subs = [] then []
          else List.concat_map (fun a -> List.map (Binding.merge a) subs) acc
      in
      Array.fold_left step [ base ] idx.branches.(pid)
    end
  in
  enum

let matches (p : Pattern.t) doc =
  let idx = index p doc in
  let enum = enum_with idx doc in
  (* With [Child], the root step binds only the document root. *)
  let roots =
    match p.Pattern.axis with
    | Pattern.Child -> [ Doc.root doc ]
    | Pattern.Descendant -> Array.to_list idx.pools.(0)
  in
  List.concat_map (enum 0) roots |> List.sort Binding.compare

let count p doc = List.length (matches p doc)
