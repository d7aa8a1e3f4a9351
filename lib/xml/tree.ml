type t =
  | Element of element
  | Text of string

and element = {
  name : string;
  attrs : (string * string) list;
  children : t list;
}

let element ?(attrs = []) name children = Element { name; attrs; children }
let text s = Text s
let leaf name value = element name [ text value ]

let name = function
  | Element e -> e.name
  | Text _ -> invalid_arg "Tree.name: text node"

let rec node_count = function
  | Text _ -> 0
  | Element e -> 1 + List.fold_left (fun acc c -> acc + node_count c) 0 e.children

let text_content t =
  let buf = Buffer.create 32 in
  let rec go = function
    | Text s -> Buffer.add_string buf s
    | Element e -> List.iter go e.children
  in
  go t;
  Buffer.contents buf

let rec equal a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Element x, Element y ->
    String.equal x.name y.name
    && List.length x.attrs = List.length y.attrs
    && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && String.equal v v') x.attrs y.attrs
    && List.length x.children = List.length y.children
    && List.for_all2 equal x.children y.children
  | Text _, Element _ | Element _, Text _ -> false

