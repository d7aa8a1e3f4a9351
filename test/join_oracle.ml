(* The structural join as it stood before the array-backed one: a list
   stack over the distinct nodes, each side's bindings grouped in a
   Hashtbl. Kept as the oracle the array join must equal, list for list. *)

module Doc = Uxsm_xml.Doc
module Pattern = Uxsm_twig.Pattern
module Binding = Uxsm_twig.Binding

let node_pairs doc ~axis ~left ~right =
  let la = Array.of_list left and ra = Array.of_list right in
  let nl = Array.length la and nr = Array.length ra in
  let stack = ref [] in
  let out = ref [] in
  let ai = ref 0 in
  let pop_ended_before pre =
    while
      match !stack with
      | top :: _ -> Doc.subtree_end doc top < pre
      | [] -> false
    do
      stack := List.tl !stack
    done
  in
  for di = 0 to nr - 1 do
    let d = ra.(di) in
    while !ai < nl && la.(!ai) <= d do
      pop_ended_before la.(!ai);
      stack := la.(!ai) :: !stack;
      incr ai
    done;
    pop_ended_before d;
    List.iter
      (fun a ->
        if a <> d then
          match axis with
          | Pattern.Descendant -> out := (a, d) :: !out
          | Pattern.Child -> if Doc.level doc d = Doc.level doc a + 1 then out := (a, d) :: !out)
      !stack
  done;
  List.rev !out

let group_by_column col bindings =
  let tbl : (int, Binding.t list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Binding.t) ->
      let v = b.(col) in
      let prev = try Hashtbl.find tbl v with Not_found -> [] in
      Hashtbl.replace tbl v (b :: prev))
    bindings;
  tbl

let join_bindings doc ~axis ~left ~left_col ~right ~right_col =
  match (left, right) with
  | [], _ | _, [] -> []
  | _ ->
    let left_tbl = group_by_column left_col left in
    let right_tbl = group_by_column right_col right in
    let sorted tbl = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
    let pairs = node_pairs doc ~axis ~left:(sorted left_tbl) ~right:(sorted right_tbl) in
    List.concat_map
      (fun (a, d) ->
        let ls = Hashtbl.find left_tbl a and rs = Hashtbl.find right_tbl d in
        List.concat_map (fun l -> List.map (Binding.merge l) rs) ls)
      pairs
