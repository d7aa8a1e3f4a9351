module Schema = Uxsm_schema.Schema
module Prng = Uxsm_util.Prng
module Tree = Uxsm_xml.Tree

(* The value heuristic: a label's tokens pick the vocabulary its values
   are drawn from. *)
type kind =
  | City
  | Person
  | Street
  | Country
  | Mail
  | Phone
  | Date
  | Number
  | Word

let kind_of_label label =
  let tokens = Uxsm_matcher.Name_sim.tokenize label in
  let has token = List.mem token tokens in
  if has "city" then City
  else if has "name" || has "label" then Person
  else if has "street" || has "road" then Street
  else if has "country" || has "nation" then Country
  else if has "mail" || has "email" then Mail
  else if has "phone" || has "telephone" then Phone
  else if has "date" || has "day" then Date
  else if
    List.exists has
      [ "id"; "no"; "number"; "code"; "identifier"; "quantity"; "qty"; "value"; "price"; "cost"; "amount"; "total"; "rate"; "count"; "zip"; "postcode"; "postal" ]
  then Number
  else Word

let value_of_kind prng = function
  | City -> Prng.pick prng Vocab.city_names
  | Person -> Prng.pick prng Vocab.person_names
  | Street -> Prng.pick prng Vocab.street_names
  | Country -> Prng.pick prng Vocab.country_names
  | Mail -> String.lowercase_ascii (Prng.pick prng Vocab.person_names) ^ "@example.com"
  | Phone -> Printf.sprintf "+852-%07d" (Prng.int prng 10000000)
  | Date -> Printf.sprintf "2010-%02d-%02d" (1 + Prng.int prng 12) (1 + Prng.int prng 28)
  | Number -> string_of_int (1 + Prng.int prng 100000)
  | Word -> Prng.pick prng Vocab.words

let leaf_value prng label = value_of_kind prng (kind_of_label label)

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
  (* A leaf's vocabulary depends on its label alone, so it is decided once
     per leaf element, not once per instance: a document repeats leaf
     elements many times, and deciding takes up to ~30 token tests. Only
     the value draws, in document order, read the generator. Inner
     elements draw no value, so their entry is never read. *)
  let kinds =
    Array.init (Schema.size schema) (fun e ->
        if Schema.is_leaf schema e then kind_of_label (Schema.label schema e) else Word)
  in
  let rec instantiate e =
    let kids =
      List.concat_map
        (fun k -> List.init (1 + extra.(k)) (fun _ -> instantiate k))
        (Schema.children schema e)
    in
    let children =
      if kids = [] then [ Tree.text (value_of_kind prng kinds.(e)) ] else kids
    in
    Tree.element (Schema.label schema e) children
  in
  Uxsm_xml.Doc.of_tree (instantiate (Schema.root schema))
