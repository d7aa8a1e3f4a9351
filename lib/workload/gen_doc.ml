module Schema = Uxsm_schema.Schema
module Prng = Uxsm_util.Prng
module Tree = Uxsm_xml.Tree

(* The value heuristic over a label's tokens. *)
let leaf_value_of_tokens prng tokens =
  let has token = List.mem token tokens in
  if has "city" then Prng.pick prng Vocab.city_names
  else if has "name" || has "label" then Prng.pick prng Vocab.person_names
  else if has "street" || has "road" then Prng.pick prng Vocab.street_names
  else if has "country" || has "nation" then Prng.pick prng Vocab.country_names
  else if has "mail" || has "email" then
    String.lowercase_ascii (Prng.pick prng Vocab.person_names) ^ "@example.com"
  else if has "phone" || has "telephone" then Printf.sprintf "+852-%07d" (Prng.int prng 10000000)
  else if has "date" || has "day" then
    Printf.sprintf "2010-%02d-%02d" (1 + Prng.int prng 12) (1 + Prng.int prng 28)
  else if
    List.exists has
      [ "id"; "no"; "number"; "code"; "identifier"; "quantity"; "qty"; "value"; "price"; "cost"; "amount"; "total"; "rate"; "count"; "zip"; "postcode"; "postal" ]
  then string_of_int (1 + Prng.int prng 100000)
  else Prng.pick prng Vocab.words

let leaf_value prng label = leaf_value_of_tokens prng (Uxsm_matcher.Name_sim.tokenize label)

(* Extra copies per repeatable element so that total element nodes come as
   close to [target] as possible: large subtrees first, then 1-node
   repeatables absorb the remainder. *)
let plan_copies schema target =
  let base = Schema.size schema in
  let extra = Array.make (Schema.size schema) 0 in
  let deficit = ref (target - base) in
  let repeatables =
    List.filter (Schema.repeatable schema) (Schema.elements schema)
    |> List.sort (fun a b -> Int.compare (Schema.subtree_size schema b) (Schema.subtree_size schema a))
  in
  List.iter
    (fun e ->
      let sz = Schema.subtree_size schema e in
      if sz <= !deficit then begin
        let copies = !deficit / sz in
        extra.(e) <- copies;
        deficit := !deficit - (copies * sz)
      end)
    repeatables;
  extra

let default_seed = 7

let generate ?(seed = default_seed) ?(target_nodes = 3473) schema =
  let prng = Prng.create seed in
  let extra = plan_copies schema target_nodes in
  (* Each leaf element's label is tokenized once, however many instances
     the document has. *)
  let tokens = Array.make (Schema.size schema) None in
  let tokens_of e =
    match tokens.(e) with
    | Some t -> t
    | None ->
      let t = Uxsm_matcher.Name_sim.tokenize (Schema.label schema e) in
      tokens.(e) <- Some t;
      t
  in
  let rec instantiate e =
    let kids =
      List.concat_map
        (fun k -> List.init (1 + extra.(k)) (fun _ -> instantiate k))
        (Schema.children schema e)
    in
    let children =
      if kids = [] then [ Tree.text (leaf_value_of_tokens prng (tokens_of e)) ] else kids
    in
    Tree.element (Schema.label schema e) children
  in
  Uxsm_xml.Doc.of_tree (instantiate (Schema.root schema))
