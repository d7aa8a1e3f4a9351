type t = {
  n_left : int;
  n_right : int;
  adj : (int * float) array array;
  radj : (int * float) array array;
  edges : (int * int * float) list;
  max_weight : float;
}

let no_edge = (0, 0.0)

(* Two passes over the edges and no table: the first validates each edge
   and counts degrees, the second fills arrays of exactly those lengths in
   edge order. A duplicate pair is then found row by row, with one
   last-row stamp per right node. So a range or weight fault anywhere in
   the list fires before any duplicate; among range and weight faults the
   first faulty edge fires, and for one edge left range before right range
   before weight. *)
let create ~n_left ~n_right edge_list =
  if n_left < 0 || n_right < 0 then invalid_arg "Bipartite.create: negative size";
  let deg = Array.make n_left 0 and rdeg = Array.make n_right 0 in
  let max_weight = ref 0.0 in
  List.iter
    (fun (i, j, w) ->
      if i < 0 || i >= n_left then invalid_arg "Bipartite.create: left index out of range";
      if j < 0 || j >= n_right then invalid_arg "Bipartite.create: right index out of range";
      if not (w >= 0.0 && Float.is_finite w) then
        invalid_arg "Bipartite.create: weight must be finite and non-negative";
      deg.(i) <- deg.(i) + 1;
      rdeg.(j) <- rdeg.(j) + 1;
      if w > !max_weight then max_weight := w)
    edge_list;
  let rows deg =
    let a = Array.make (Array.length deg) [||] in
    Array.iteri (fun i d -> if d > 0 then a.(i) <- Array.make d no_edge) deg;
    a
  in
  let adj = rows deg and radj = rows rdeg in
  (* [deg.(i)] counts the slots of row [i] still to fill, front first. *)
  List.iter
    (fun (i, j, w) ->
      let row = adj.(i) and col = radj.(j) in
      row.(Array.length row - deg.(i)) <- (j, w);
      deg.(i) <- deg.(i) - 1;
      col.(Array.length col - rdeg.(j)) <- (i, w);
      rdeg.(j) <- rdeg.(j) - 1)
    edge_list;
  let last_row = Array.make n_right (-1) in
  for i = 0 to n_left - 1 do
    let row = adj.(i) in
    for k = 0 to Array.length row - 1 do
      let j = fst row.(k) in
      if last_row.(j) = i then invalid_arg "Bipartite.create: duplicate edge";
      last_row.(j) <- i
    done
  done;
  { n_left; n_right; adj; radj; edges = edge_list; max_weight = !max_weight }

(* How a delta rewrites an edge list: the matching layer's path-level
   deltas resolve to this. Edge order matters because Murty's solution
   enumeration, and hence the partition layer's per-component reuse keys,
   are sensitive to adjacency order. Removals apply first; a re-scored edge
   keeps its position; a genuinely new edge is appended at the end in
   first-occurrence order of [set] (a later duplicate only overrides the
   score). An edge that is both removed and set ends up appended. *)
let apply_edge_delta ~set ~remove edge_list =
  let removed = Hashtbl.create (List.length remove + 1) in
  List.iter (fun p -> Hashtbl.replace removed p ()) remove;
  let upsert = Hashtbl.create (List.length set + 1) in
  List.iter (fun (i, j, w) -> Hashtbl.replace upsert (i, j) w) set;
  let kept =
    List.filter_map
      (fun (i, j, w) ->
        if Hashtbl.mem removed (i, j) then None
        else
          match Hashtbl.find_opt upsert (i, j) with
          | Some w' ->
            Hashtbl.remove upsert (i, j);
            Some (i, j, w')
          | None -> Some (i, j, w))
      edge_list
  in
  let appended =
    List.filter_map
      (fun (i, j, _) ->
        match Hashtbl.find_opt upsert (i, j) with
        | Some w ->
          Hashtbl.remove upsert (i, j);
          Some (i, j, w)
        | None -> None)
      set
  in
  kept @ appended

let n_left t = t.n_left
let n_right t = t.n_right
let edges t = t.edges
let adj t i = t.adj.(i)
let radj t j = t.radj.(j)

let weight t i j =
  let arr = t.adj.(i) in
  let n = Array.length arr in
  let rec find k =
    if k >= n then None
    else
      let j', w = arr.(k) in
      if j' = j then Some w else find (k + 1)
  in
  find 0

let max_weight t = t.max_weight
