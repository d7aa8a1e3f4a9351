module Doc = Uxsm_xml.Doc

let matches (p : Pattern.t) doc =
  let n = Pattern.size p in
  (* Pre-order ids assigned on the fly; children are always evaluated (even
     under an empty parent set) to keep the numbering aligned with
     Pattern.nodes. *)
  let counter = ref 0 in
  let rec eval (node : Pattern.node) ~is_root : Binding.t list =
    let q = !counter in
    incr counter;
    let pool = Array.to_list (Matcher.pool doc node) in
    let pool =
      if is_root && p.Pattern.axis = Pattern.Child then
        List.filter (fun v -> v = Doc.root doc) pool
      else pool
    in
    let candidates =
      List.filter
        (fun v ->
          (match node.Pattern.value with
          | Some t -> String.equal (Doc.text doc v) t
          | None -> true)
          && List.for_all
               (fun (k, want) -> Doc.attr doc v k = Some want)
               node.Pattern.attrs)
        pool
    in
    let base =
      List.map
        (fun v ->
          let b = Binding.unbound n in
          b.(q) <- v;
          b)
        candidates
    in
    List.fold_left
      (fun acc (axis, child) ->
        let child_col = !counter in
        let child_bindings = eval child ~is_root:false in
        Structural_join.join_bindings doc ~axis ~left:acc ~left_col:q ~right:child_bindings
          ~right_col:child_col)
      base (Pattern.branches node)
  in
  eval p.Pattern.root ~is_root:true |> List.sort Binding.compare

let count p doc = List.length (matches p doc)
