module Schema = Uxsm_schema.Schema

let log2 x = Float.log x /. Float.log 2.0

let entropy mset =
  let n = Mapping_set.size mset in
  let h = ref 0.0 in
  for i = 0 to n - 1 do
    let p = Mapping_set.probability mset i in
    if p > 0.0 then h := !h -. (p *. log2 p)
  done;
  !h

let normalized_entropy mset =
  let n = Mapping_set.size mset in
  if n <= 1 then 0.0 else entropy mset /. log2 (float_of_int n)

(* Distinct choices the mappings make for target [y]; -1 encodes "left
   unmapped by some mapping". *)
let choices mset y =
  let seen = Hashtbl.create 8 in
  for i = 0 to Mapping_set.size mset - 1 do
    let choice =
      match Mapping.source_of (Mapping_set.mapping mset i) y with
      | Some x -> x
      | None -> -1
    in
    Hashtbl.replace seen choice ()
  done;
  seen

let target_ambiguity mset y = Hashtbl.length (choices mset y)

let mapped_targets mset =
  let target = Mapping_set.target mset in
  List.filter
    (fun y ->
      List.exists
        (fun i -> Mapping.source_of (Mapping_set.mapping mset i) y <> None)
        (List.init (Mapping_set.size mset) Fun.id))
    (Schema.elements target)

let ambiguity_histogram mset =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun y ->
      let a = target_ambiguity mset y in
      let prev = try Hashtbl.find counts a with Not_found -> 0 in
      Hashtbl.replace counts a (prev + 1))
    (mapped_targets mset);
  Hashtbl.fold (fun a c acc -> (a, c) :: acc) counts []
  |> List.sort (fun (a1, _) (a2, _) -> Int.compare a1 a2)

let expected_mapping_size mset =
  let total = ref 0.0 in
  for i = 0 to Mapping_set.size mset - 1 do
    total :=
      !total
      +. (Mapping_set.probability mset i *. float_of_int (Mapping.size (Mapping_set.mapping mset i)))
  done;
  !total
