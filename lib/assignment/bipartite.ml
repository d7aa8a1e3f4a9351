type t = {
  n_left : int;
  n_right : int;
  adj : (int * float) array array;
  radj : (int * float) array array;
  edges : (int * int * float) list;
  max_weight : float;
}

let create ~n_left ~n_right edge_list =
  if n_left < 0 || n_right < 0 then invalid_arg "Bipartite.create: negative size";
  let seen = Hashtbl.create (List.length edge_list) in
  let check (i, j, w) =
    if i < 0 || i >= n_left then invalid_arg "Bipartite.create: left index out of range";
    if j < 0 || j >= n_right then invalid_arg "Bipartite.create: right index out of range";
    if not (w >= 0.0 && Float.is_finite w) then
      invalid_arg "Bipartite.create: weight must be finite and non-negative";
    let key = (i * n_right) + j in
    if Hashtbl.mem seen key then invalid_arg "Bipartite.create: duplicate edge";
    Hashtbl.add seen key ()
  in
  List.iter check edge_list;
  let adj_l = Array.make n_left [] in
  let radj_l = Array.make n_right [] in
  let add (i, j, w) =
    adj_l.(i) <- (j, w) :: adj_l.(i);
    radj_l.(j) <- (i, w) :: radj_l.(j)
  in
  List.iter add edge_list;
  let max_weight = List.fold_left (fun acc (_, _, w) -> max acc w) 0.0 edge_list in
  {
    n_left;
    n_right;
    adj = Array.map (fun l -> Array.of_list (List.rev l)) adj_l;
    radj = Array.map (fun l -> Array.of_list (List.rev l)) radj_l;
    edges = edge_list;
    max_weight;
  }

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
