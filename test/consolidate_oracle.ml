(* [Ptq.consolidate] as it stood before it grouped answers by physical
   bindings list: one polymorphic-table entry per answer. Kept as the
   oracle the identity-grouping one must equal, order and probability bits
   included. *)

module Binding = Uxsm_twig.Binding
module Ptq = Uxsm_ptq.Ptq

let consolidate (answers : Ptq.answer list) =
  let tbl : (Binding.t list, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a : Ptq.answer) ->
      let prev = try Hashtbl.find tbl a.bindings with Not_found -> 0.0 in
      Hashtbl.replace tbl a.bindings (prev +. a.probability))
    answers;
  Hashtbl.fold (fun b p acc -> (b, p) :: acc) tbl []
  |> List.sort (fun (b1, p1) (b2, p2) ->
         match Float.compare p2 p1 with
         | 0 -> List.compare Binding.compare b1 b2
         | c -> c)
