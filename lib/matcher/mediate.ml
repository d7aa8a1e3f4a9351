module Schema = Uxsm_schema.Schema
module Matching = Uxsm_mapping.Matching

type t = {
  schema : Schema.t;
  matchings : (string * Matching.t) list;
}

(* Mutable spec tree indexed by the schema's pre-order element ids, so graft
   points can be addressed by element. *)
type mnode = {
  name : string;
  repeatable : bool;
  mutable kids : mnode list;
}

let rec thaw (s : Schema.spec) =
  { name = s.Schema.name; repeatable = s.Schema.repeatable; kids = List.map thaw s.Schema.children }

let rec freeze (m : mnode) =
  Schema.spec ~repeatable:m.repeatable m.name (List.map freeze m.kids)

(* Nodes in pre-order, aligned with Schema element ids. *)
let nodes_in_preorder root =
  let out = ref [] in
  let rec go n =
    out := n :: !out;
    List.iter go n.kids
  in
  go root;
  Array.of_list (List.rev !out)

let rec uniquify_siblings (m : mnode) =
  let seen = Hashtbl.create 8 in
  m.kids <-
    List.map
      (fun k ->
        let c = try Hashtbl.find seen k.name + 1 with Not_found -> 1 in
        Hashtbl.replace seen k.name c;
        if c > 1 then { k with name = Printf.sprintf "%s%d" k.name c } else k)
      m.kids;
  List.iter uniquify_siblings m.kids

(* Spec of the subtree rooted at element [e] of [schema]. *)
let rec subtree_spec schema e =
  Schema.spec
    ~repeatable:(Schema.repeatable schema e)
    (Schema.label schema e)
    (List.map (subtree_spec schema) (Schema.children schema e))

let build ?config ?(graft_threshold = 0.75) sources =
  let cfg =
    match config with
    | Some c -> c
    | None -> Coma.default_config Coma.Context
  in
  match sources with
  | [] -> invalid_arg "Mediate.build: no sources"
  | (_, first) :: rest ->
    let mediated = ref first in
    let absorb (_, src) =
      let med = !mediated in
      let nm = Schema.size med and ns = Schema.size src in
      (* Best mediated counterpart per source element. *)
      let scores = Coma.matrix cfg med src in
      let best_score = Array.make ns 0.0 in
      let best_elem = Array.make ns 0 in
      for m_el = 0 to nm - 1 do
        for s_el = 0 to ns - 1 do
          let score = scores.(m_el).(s_el) in
          if score > best_score.(s_el) then begin
            best_score.(s_el) <- score;
            best_elem.(s_el) <- m_el
          end
        done
      done;
      let covered e = best_score.(e) >= graft_threshold in
      (* Graft roots: the highest uncovered node on each root path (its
         whole subtree is copied, so deeper uncovered nodes are absorbed). *)
      let uncovered_above = Array.make ns false in
      List.iter
        (fun e ->
          match Schema.parent src e with
          | None -> ()
          | Some p -> uncovered_above.(e) <- uncovered_above.(p) || not (covered p))
        (Schema.elements src);
      let grafts = ref [] in
      List.iter
        (fun e ->
          if (not (covered e)) && not uncovered_above.(e) then begin
            let attach =
              match Schema.parent src e with
              | Some p when covered p -> best_elem.(p)
              | Some _ | None -> Schema.root med
            in
            grafts := (attach, subtree_spec src e) :: !grafts
          end)
        (Schema.elements src);
      if !grafts <> [] then begin
        let root = thaw (Schema.to_spec med) in
        let by_id = nodes_in_preorder root in
        List.iter
          (fun (attach, spec) -> by_id.(attach).kids <- by_id.(attach).kids @ [ thaw spec ])
          (List.rev !grafts);
        uniquify_siblings root;
        mediated := Schema.of_spec (freeze root)
      end
    in
    List.iter absorb rest;
    let matchings =
      List.map (fun (name, src) -> (name, Coma.run ~config:cfg ~source:!mediated ~target:src ())) sources
    in
    { schema = !mediated; matchings }

let coverage t name =
  match List.assoc_opt name t.matchings with
  | None -> raise Not_found
  | Some m ->
    let target = Matching.target m in
    let n = Schema.size target in
    let covered =
      List.length
        (List.filter (fun e -> Matching.corrs_of_target m e <> []) (Schema.elements target))
    in
    float_of_int covered /. float_of_int n
