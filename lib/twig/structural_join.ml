module Doc = Uxsm_xml.Doc

(* The stack join over two ascending node arrays: [emit i j] for every left
   index [i] and right index [j] whose nodes stand in the [axis] relation,
   ordered by [j], then innermost ancestor first. [stack.(0 .. top - 1)]
   holds the indices of the left nodes whose intervals are still open,
   innermost on top. *)
let join_arrays doc ~axis (la : Doc.node array) (ra : Doc.node array) emit =
  let nl = Array.length la in
  let stack = Array.make nl 0 in
  let top = ref 0 in
  let pop_ended_before pre =
    while !top > 0 && Doc.subtree_end doc la.(stack.(!top - 1)) < pre do
      decr top
    done
  in
  let ai = ref 0 in
  Array.iteri
    (fun j d ->
      (* Push every left node starting at or before d; the stack keeps only
         the chain of intervals still open at d. *)
      while !ai < nl && la.(!ai) <= d do
        pop_ended_before la.(!ai);
        stack.(!top) <- !ai;
        incr top;
        incr ai
      done;
      pop_ended_before d;
      (* Stack now holds exactly the left nodes whose interval contains d. *)
      for s = !top - 1 downto 0 do
        let a = la.(stack.(s)) in
        if a <> d then
          match axis with
          | Pattern.Descendant -> emit stack.(s) j
          | Pattern.Child -> if Doc.is_parent doc a d then emit stack.(s) j
      done)
    ra

let node_pairs doc ~axis ~left ~right =
  let la = Array.of_list left and ra = Array.of_list right in
  let out = ref [] in
  join_arrays doc ~axis la ra (fun i j -> out := (la.(i), ra.(j)) :: !out);
  List.rev !out

(* Bindings grouped by their node in column [col]: [rows] sorted by that
   node, ties in reverse input order (the join's output order, which the
   evaluators' binding lists inherit, is pinned by tests); [keys] the
   distinct nodes, ascending; group [g] is
   [rows.(starts.(g) .. starts.(g + 1) - 1)]. *)
type groups = {
  rows : Binding.t array;
  keys : Doc.node array;
  starts : int array;
}

let group col bindings =
  let rows = Array.of_list (List.rev bindings) in
  let n = Array.length rows in
  Array.stable_sort (fun (x : Binding.t) (y : Binding.t) -> Int.compare x.(col) y.(col)) rows;
  let starts_at i = i = 0 || rows.(i).(col) <> rows.(i - 1).(col) in
  let groups = ref 0 in
  for i = 0 to n - 1 do
    if starts_at i then incr groups
  done;
  let keys = Array.make !groups 0 and starts = Array.make (!groups + 1) n in
  let g = ref 0 in
  for i = 0 to n - 1 do
    if starts_at i then begin
      keys.(!g) <- rows.(i).(col);
      starts.(!g) <- i;
      incr g
    end
  done;
  { rows; keys; starts }

let join_bindings doc ~axis ~left ~left_col ~right ~right_col =
  match (left, right) with
  | [], _ | _, [] -> []
  | _ ->
    let l = group left_col left and r = group right_col right in
    let out = ref [] in
    join_arrays doc ~axis l.keys r.keys (fun i j ->
        for x = l.starts.(i) to l.starts.(i + 1) - 1 do
          for y = r.starts.(j) to r.starts.(j + 1) - 1 do
            out := Binding.merge l.rows.(x) r.rows.(y) :: !out
          done
        done);
    List.rev !out
