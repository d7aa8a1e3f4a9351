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

(* The nodes a pattern node with resolved anchor [a] admits by label and
   anchor, ascending: the anchor's path, nothing for an absent anchor, else
   the label's nodes, else (an unanchored wildcard) every node. The array
   may be the document's own, so it is never mutated. *)
let pool_of doc (node : Pattern.node) a =
  if a >= 0 then Doc.path_nodes doc a
  else if a = absent then [||]
  else if Pattern.is_wildcard node then Array.init (Doc.size doc) Fun.id
  else Doc.label_nodes doc node.Pattern.label

(* The pattern in pre-order arrays, resolved against one document. The
   subpattern rooted at [pid] is the id range [pid, pid + sizes.(pid)). *)
type indexed = {
  pools : Doc.node array array;
  values : string option array;
  attr_preds : (string * string) list array;
  branches : (Pattern.axis * int) array array;
  sizes : int array;
  memoized : bool array;
      (* whether a node's results can be asked for twice: only under an
         unanchored parent, since a path's nodes are never nested *)
}

let index (p : Pattern.t) doc =
  let n = Pattern.size p in
  let pools = Array.make n [||] in
  let values = Array.make n None in
  let attr_preds = Array.make n [] in
  let branches = Array.make n [||] in
  let sizes = Array.make n 0 in
  let memoized = Array.make n false in
  (* Assign pre-order ids exactly as Pattern.nodes does. *)
  let next = ref 0 in
  let rec go (node : Pattern.node) =
    let id = !next in
    incr next;
    let a = anchor_id doc node in
    pools.(id) <- pool_of doc node a;
    values.(id) <- node.Pattern.value;
    attr_preds.(id) <- node.Pattern.attrs;
    let kids =
      List.map
        (fun (axis, c) ->
          let cid = go c in
          memoized.(cid) <- a = unanchored;
          (axis, cid))
        (Pattern.branches node)
    in
    branches.(id) <- Array.of_list kids;
    sizes.(id) <- !next - id;
    id
  in
  ignore (go p.Pattern.root);
  { pools; values; attr_preds; branches; sizes; memoized }

(* First index of the ascending array [a] whose node follows [v]. *)
let upper_bound (a : Doc.node array) v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  !lo

let rec attrs_hold doc v = function
  | [] -> true
  | (k, want) :: rest -> (
    match Doc.attr doc v k with
    | Some got -> String.equal got want && attrs_hold doc v rest
    | None -> false)

(* A fresh local binding of a subpattern [width] nodes wide whose root is
   bound to [v]; the caller copies its branches' bindings in. The matcher
   makes every binding it returns here. *)
let binding width v : Binding.t = if width = 1 then [| v |] else Array.make width v

(* [Array.blit] of a binding as a loop: a binding is a few ints long, and
   a C call costs more than copying it. *)
let copy_into (dst : Binding.t) off (src : Binding.t) =
  for x = 0 to Array.length src - 1 do
    dst.(off + x) <- src.(x)
  done

(* Result [r] of the product of [pid]'s branch results [subs], with [pid]
   bound to [v]: first branch outermost, so branch [j]'s choice is digit
   [j] of [r] in the mixed radix of the branch counts, last branch least
   significant. Each branch's subpattern is a contiguous id range, so its
   choice is one copy. *)
let product idx pid v (subs : Binding.t array array) r =
  let branches = idx.branches.(pid) in
  let b = binding idx.sizes.(pid) v in
  let rest = ref r in
  for j = Array.length subs - 1 downto 0 do
    let s = subs.(j) in
    copy_into b (snd branches.(j) - pid) s.(!rest mod Array.length s);
    rest := !rest / Array.length s
  done;
  b

(* [results pid i]: the matches of the subpattern rooted at [pid] with
   [pid] bound to the node at position [i] of its pool, in lexicographic
   (document) order, as local bindings: entry [j] binds pattern node
   [pid + j]. Pool membership is the label and anchor test, so only the
   value and attribute predicates are checked here. Results live in one
   array per memoized pattern node, indexed by pool position. *)
let results_with idx doc =
  let memo = Array.map (fun _ -> [||]) idx.pools in
  (* "Not computed yet", told apart from a computed empty result by
     physical identity. *)
  let unset : Binding.t array = [| [||] |] in
  let rec results pid i =
    if not idx.memoized.(pid) then compute pid i
    else begin
      let m =
        match memo.(pid) with
        | [||] ->
          let m = Array.make (Array.length idx.pools.(pid)) unset in
          memo.(pid) <- m;
          m
        | m -> m
      in
      let r = m.(i) in
      if r != unset then r
      else begin
        let r = compute pid i in
        m.(i) <- r;
        r
      end
    end
  (* The results of child [cid] under [v] over the [axis] step, in
     candidate (document) order. A step's candidates lie in [v]'s subtree
     interval [(v, subtree_end v]], a slice of the child's pool. One
     candidate's results are returned as they are, not copied. *)
  and step v axis cid =
    let e = Doc.subtree_end doc v in
    let pool = idx.pools.(cid) in
    let lo = upper_bound pool v in
    let hi = ref lo in
    while !hi < Array.length pool && pool.(!hi) <= e do
      incr hi
    done;
    let child = axis = Pattern.Child in
    (* The first candidate's non-empty results, and the later ones', last
       first: each candidate is asked for once, memoized or not. *)
    let first = ref [||] and later = ref [] and total = ref 0 in
    for i = lo to !hi - 1 do
      if (not child) || Doc.is_parent doc v pool.(i) then begin
        let r = results cid i in
        if Array.length r > 0 then begin
          if !total = 0 then first := r else later := r :: !later;
          total := !total + Array.length r
        end
      end
    done;
    match !later with
    | [] -> !first
    | later ->
      let out = Array.make !total [||] in
      Array.blit !first 0 out 0 (Array.length !first);
      let k = ref !total in
      List.iter
        (fun r ->
          k := !k - Array.length r;
          Array.blit r 0 out !k (Array.length r))
        later;
      out
  and compute pid i =
    let v = idx.pools.(pid).(i) in
    if not (attrs_hold doc v idx.attr_preds.(pid)) then [||]
    else if
      match idx.values.(pid) with
      | Some value -> not (String.equal (Doc.text doc v) value)
      | None -> false
    then [||]
    else begin
      let branches = idx.branches.(pid) in
      let k = Array.length branches in
      (* Each branch's results; none are asked for past an empty one. *)
      let subs = if k = 0 then [||] else Array.make k [||] in
      let total = ref 1 and j = ref 0 in
      while !total > 0 && !j < k do
        let axis, cid = branches.(!j) in
        subs.(!j) <- step v axis cid;
        total := !total * Array.length subs.(!j);
        incr j
      done;
      if !total = 1 then [| product idx pid v subs 0 |]
      else begin
        let out = Array.make !total [||] in
        for r = 0 to !total - 1 do
          out.(r) <- product idx pid v subs r
        done;
        out
      end
    end
  in
  results

let matches (p : Pattern.t) doc =
  let idx = index p doc in
  let results = results_with idx doc in
  let pool = idx.pools.(0) in
  (* Roots ascend and each root's results are in order, so the list is
     built back to front in order, with no sort. *)
  let acc = ref [] in
  let emit i =
    let r = results 0 i in
    for j = Array.length r - 1 downto 0 do
      acc := r.(j) :: !acc
    done
  in
  (match p.Pattern.axis with
  | Pattern.Child ->
    (* The root step binds only the document root, the least node. *)
    if Array.length pool > 0 && pool.(0) = Doc.root doc then emit 0
  | Pattern.Descendant ->
    for i = Array.length pool - 1 downto 0 do
      emit i
    done);
  !acc

let count p doc = List.length (matches p doc)
