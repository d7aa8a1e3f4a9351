type axis =
  | Child
  | Descendant

type node = {
  label : string;
  anchor : string option;
  value : string option;
  attrs : (string * string) list;
  preds : (axis * node) list;
  next : (axis * node) option;
}

let wildcard = "*"
let is_wildcard n = String.equal n.label wildcard

type t = {
  axis : axis;
  root : node;
}

let node ?anchor ?value ?(attrs = []) ?(preds = []) ?next label =
  { label; anchor; value; attrs; preds; next }
let pattern ?(axis = Child) root = { axis; root }

let branches n =
  n.preds
  @
  match n.next with
  | None -> []
  | Some b -> [ b ]

let rec node_size n = 1 + List.fold_left (fun acc (_, c) -> acc + node_size c) 0 (branches n)
let size t = node_size t.root

let rec node_list n = n :: List.concat_map (fun (_, c) -> node_list c) (branches n)
let nodes t = node_list t.root
let labels t = List.map (fun n -> n.label) (nodes t)

let axis_str = function
  | Child -> "/"
  | Descendant -> "//"

let rec node_to_buf buf n =
  Buffer.add_string buf n.label;
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf "[@";
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf v;
      Buffer.add_string buf "\"]")
    n.attrs;
  (match n.value with
  | Some v ->
    Buffer.add_string buf "=\"";
    Buffer.add_string buf v;
    Buffer.add_char buf '"'
  | None -> ());
  List.iter
    (fun (a, c) ->
      Buffer.add_string buf "[.";
      Buffer.add_string buf (axis_str a);
      node_to_buf buf c;
      Buffer.add_char buf ']')
    n.preds;
  match n.next with
  | None -> ()
  | Some (a, c) ->
    Buffer.add_string buf (axis_str a);
    node_to_buf buf c

let to_string t =
  let buf = Buffer.create 64 in
  if t.axis = Descendant then Buffer.add_string buf "//";
  node_to_buf buf t.root;
  Buffer.contents buf

let rec node_equal a b =
  String.equal a.label b.label
  && Option.equal String.equal a.anchor b.anchor
  && Option.equal String.equal a.value b.value
  && a.attrs = b.attrs
  && List.length a.preds = List.length b.preds
  && List.for_all2 (fun (x1, c1) (x2, c2) -> x1 = x2 && node_equal c1 c2) a.preds b.preds
  &&
  match (a.next, b.next) with
  | None, None -> true
  | Some (x1, c1), Some (x2, c2) -> x1 = x2 && node_equal c1 c2
  | None, Some _ | Some _, None -> false

let equal a b = a.axis = b.axis && node_equal a.root b.root
