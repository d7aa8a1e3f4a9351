type node = int

type t = {
  tree : Tree.t array;  (* original subtree per node, for re-extraction *)
  labels : string array;
  parent : int array;
  children : int array array;
  post : int array;
  sub_end : int array;
  level : int array;
  text : string array;
  attrs : (string * string) list array;
  label_ids : (string, int) Hashtbl.t;  (* tag name -> label id *)
  by_label : int array array;  (* label id -> its nodes, ascending *)
  path_ids : (string, int) Hashtbl.t;  (* '.'-joined label path -> path id *)
  path_of : int array;  (* node -> path id *)
  by_path : int array array;  (* path id -> its nodes, ascending *)
}

(* The dense id of [key], numbering keys 0, 1, ... in order of first sight. *)
let intern tbl count key =
  match Hashtbl.find_opt tbl key with
  | Some id -> id
  | None ->
    let id = !count in
    Hashtbl.add tbl key id;
    incr count;
    id

(* Nodes grouped by id: a counting sort of [ids] (node -> group id), so
   every group comes out ascending. *)
let group_nodes ids groups =
  let counts = Array.make groups 0 in
  Array.iter (fun g -> counts.(g) <- counts.(g) + 1) ids;
  let out = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make groups 0 in
  Array.iteri
    (fun v g ->
      out.(g).(fill.(g)) <- v;
      fill.(g) <- fill.(g) + 1)
    ids;
  out

let of_tree root_tree =
  (match root_tree with
  | Tree.Element _ -> ()
  | Tree.Text _ -> invalid_arg "Doc.of_tree: root must be an element");
  let n = Tree.node_count root_tree in
  let tree = Array.make n root_tree in
  let labels = Array.make n "" in
  let parent = Array.make n (-1) in
  let children = Array.make n [||] in
  let post = Array.make n 0 in
  let sub_end = Array.make n 0 in
  let level = Array.make n 0 in
  let text = Array.make n "" in
  let attrs = Array.make n [] in
  let label_ids = Hashtbl.create 64 in
  let path_ids = Hashtbl.create 64 in
  let label_of = Array.make n 0 in
  let path_of = Array.make n 0 in
  let n_labels = ref 0 in
  let n_paths = ref 0 in
  (* A node's path is its parent's path extended by its label, so paths
     are interned on the int key (parent path id + 1) * n + label id. Only
     a key seen for the first time builds its '.'-joined string, which is
     interned in [path_ids] for [find_path]: the ids stay those of string
     equality, numbered in order of first sight. *)
  let step_ids = Hashtbl.create 64 in
  let path_strings = Array.make n "" in
  let next_pre = ref 0 in
  let next_post = ref 0 in
  (* Explicit recursion keeps pre/post assignment obviously correct; document
     depth is bounded by schema depth so stack use is fine. *)
  let rec index parent_id depth t =
    match t with
    | Tree.Text _ -> None
    | Tree.Element e ->
      let id = !next_pre in
      incr next_pre;
      tree.(id) <- t;
      labels.(id) <- e.name;
      parent.(id) <- parent_id;
      level.(id) <- depth;
      text.(id) <- Tree.text_content t;
      attrs.(id) <- e.attrs;
      let label = intern label_ids n_labels e.name in
      let parent_path = if parent_id < 0 then -1 else path_of.(parent_id) in
      let step = ((parent_path + 1) * n) + label in
      let path =
        match Hashtbl.find_opt step_ids step with
        | Some p -> p
        | None ->
          let s = if parent_path < 0 then e.name else path_strings.(parent_path) ^ "." ^ e.name in
          let p = intern path_ids n_paths s in
          path_strings.(p) <- s;
          Hashtbl.add step_ids step p;
          p
      in
      label_of.(id) <- label;
      path_of.(id) <- path;
      let kids = List.filter_map (index id (depth + 1)) e.children in
      children.(id) <- Array.of_list kids;
      sub_end.(id) <- !next_pre - 1;
      post.(id) <- !next_post;
      incr next_post;
      Some id
  in
  ignore (index (-1) 0 root_tree);
  {
    tree;
    labels;
    parent;
    children;
    post;
    sub_end;
    level;
    text;
    attrs;
    label_ids;
    by_label = group_nodes label_of !n_labels;
    path_ids;
    path_of;
    by_path = group_nodes path_of !n_paths;
  }

let root _ = 0
let size t = Array.length t.labels
let label t i = t.labels.(i)
let parent t i = if t.parent.(i) < 0 then None else Some t.parent.(i)
let children t i = Array.to_list t.children.(i)
let level t i = t.level.(i)
let subtree_end t i = t.sub_end.(i)
let text t i = t.text.(i)
let attrs t i = t.attrs.(i)
let attr t i name = List.assoc_opt name t.attrs.(i)
let is_ancestor t a b = a < b && t.post.(a) > t.post.(b)
let is_parent t a b = t.parent.(b) = a

let label_nodes t l =
  match Hashtbl.find_opt t.label_ids l with
  | None -> [||]
  | Some id -> t.by_label.(id)

let path_id t i = t.path_of.(i)
let find_path t p = Hashtbl.find_opt t.path_ids p
let path_nodes t id = t.by_path.(id)
let nodes_with_label t l = Array.to_list (label_nodes t l)

let nodes_with_path t p =
  match find_path t p with
  | None -> []
  | Some id -> Array.to_list t.by_path.(id)

let labels t =
  Hashtbl.fold (fun l _ acc -> l :: acc) t.label_ids [] |> List.sort String.compare

let subtree t i = t.tree.(i)

let path t i =
  let rec up acc i = if i < 0 then acc else up (t.labels.(i) :: acc) t.parent.(i) in
  up [] i
