type element = int

type spec = {
  name : string;
  repeatable : bool;
  children : spec list;
}

type t = {
  labels : string array;
  parent : int array;
  children : int array array;
  repeat : bool array;
  level : int array;
  post : int array;
  sub_size : int array;
  paths : string array;  (* '.'-joined root-to-element path *)
  by_label : (string, int list) Hashtbl.t;  (* reversed *)
  by_path : (string, int) Hashtbl.t;
}

let spec ?(repeatable = false) name children = { name; repeatable; children }

let rec spec_count (s : spec) = 1 + List.fold_left (fun acc c -> acc + spec_count c) 0 s.children

(* Paths join names with '.': a name containing one would give two
   elements one path and split into the wrong ancestors. *)
let rec check_names (s : spec) =
  if s.name = "" then Error "empty element name"
  else if String.contains s.name '.' then
    Error (Printf.sprintf "element name %S contains '.', the path separator" s.name)
  else
    List.fold_left
      (fun acc c ->
        match acc with
        | Ok () -> check_names c
        | Error _ -> acc)
      (Ok ()) s.children

let of_spec root_spec =
  (match check_names root_spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Schema.of_spec: " ^ msg));
  let n = spec_count root_spec in
  let labels = Array.make n "" in
  let parent = Array.make n (-1) in
  let children = Array.make n [||] in
  let repeat = Array.make n false in
  let level = Array.make n 0 in
  let post = Array.make n 0 in
  let sub_size = Array.make n 1 in
  let paths = Array.make n "" in
  let by_label = Hashtbl.create 64 in
  let by_path = Hashtbl.create 64 in
  let next_pre = ref 0 in
  let next_post = ref 0 in
  let rec index parent_id depth prefix s =
    let id = !next_pre in
    incr next_pre;
    labels.(id) <- s.name;
    parent.(id) <- parent_id;
    repeat.(id) <- s.repeatable;
    level.(id) <- depth;
    let p = if prefix = "" then s.name else prefix ^ "." ^ s.name in
    paths.(id) <- p;
    let kids = List.map (index id (depth + 1) p) s.children in
    children.(id) <- Array.of_list kids;
    sub_size.(id) <- 1 + List.fold_left (fun acc k -> acc + sub_size.(k)) 0 kids;
    post.(id) <- !next_post;
    incr next_post;
    let prev = try Hashtbl.find by_label s.name with Not_found -> [] in
    Hashtbl.replace by_label s.name (id :: prev);
    if not (Hashtbl.mem by_path p) then Hashtbl.add by_path p id;
    id
  in
  ignore (index (-1) 0 "" root_spec);
  { labels; parent; children; repeat; level; post; sub_size; paths; by_label; by_path }

let root _ = 0
let size t = Array.length t.labels
let label t e = t.labels.(e)
let parent t e = if t.parent.(e) < 0 then None else Some t.parent.(e)
let children t e = Array.to_list t.children.(e)
let level t e = t.level.(e)
let repeatable t e = t.repeat.(e)
let is_leaf t e = Array.length t.children.(e) = 0
let subtree_size t e = t.sub_size.(e)

let subtree_elements t e =
  (* Pre-order ids of a subtree are contiguous. *)
  List.init t.sub_size.(e) (fun i -> e + i)

let is_ancestor t a b = a < b && t.post.(a) > t.post.(b)

let max_fanout t =
  Array.fold_left (fun acc kids -> max acc (Array.length kids)) 0 t.children

let height t =
  Array.fold_left max 0 t.level

let path_string t e = t.paths.(e)

let path t e = String.split_on_char '.' t.paths.(e)

let find_by_label t l =
  match Hashtbl.find_opt t.by_label l with
  | None -> []
  | Some ids -> List.rev ids

let find_by_path t p = Hashtbl.find_opt t.by_path p

let elements t = List.init (size t) Fun.id

let leaves t = List.filter (is_leaf t) (elements t)

let rec spec_of t e =
  {
    name = t.labels.(e);
    repeatable = t.repeat.(e);
    children = List.map (spec_of t) (children t e);
  }

let to_spec t = spec_of t 0

let to_xml_tree t =
  let rec go e =
    Uxsm_xml.Tree.element t.labels.(e) (List.map go (children t e))
  in
  go 0

let equal a b =
  size a = size b
  && a.labels = b.labels
  && a.parent = b.parent
  && a.repeat = b.repeat

let pp fmt t =
  let rec go e =
    Format.fprintf fmt "%s%s%s@\n"
      (String.make (2 * t.level.(e)) ' ')
      t.labels.(e)
      (if t.repeat.(e) then "*" else "");
    Array.iter go t.children.(e)
  in
  go 0

let to_string t = Format.asprintf "%a" pp t

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.trim l <> "")
  in
  let parse_line l =
    let indent = ref 0 in
    while !indent < String.length l && l.[!indent] = ' ' do
      incr indent
    done;
    if !indent mod 2 <> 0 then Error (Printf.sprintf "odd indentation in %S" l)
    else begin
      let body = String.trim l in
      let repeatable = String.length body > 0 && body.[String.length body - 1] = '*' in
      let name = if repeatable then String.sub body 0 (String.length body - 1) else body in
      if name = "" then Error (Printf.sprintf "empty element name in %S" l)
      else Ok (!indent / 2, name, repeatable)
    end
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
      match parse_line l with
      | Error _ as e -> e
      | Ok item -> collect (item :: acc) rest)
  in
  match collect [] lines with
  | Error e -> Error e
  | Ok [] -> Error "empty schema"
  | Ok ((d0, _, _) :: _ as items) ->
    if d0 <> 0 then Error "first element must be unindented"
    else begin
      (* Build the spec tree from the (depth, name, repeatable) list. *)
      let rec build depth items =
        match items with
        | (d, name, repeatable) :: rest when d = depth ->
          let children, rest' = build_children (depth + 1) rest in
          let node = { name; repeatable; children } in
          (Some node, rest')
        | _ -> (None, items)
      and build_children depth items =
        match build depth items with
        | Some node, rest ->
          let siblings, rest' = build_children depth rest in
          (node :: siblings, rest')
        | None, rest -> ([], rest)
      in
      match build 0 items with
      | Some root_node, [] -> Result.map (fun () -> of_spec root_node) (check_names root_node)
      | Some _, (_, name, _) :: _ -> Error (Printf.sprintf "dangling element %S after root subtree" name)
      | None, _ -> Error "malformed schema text"
    end
