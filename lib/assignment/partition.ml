module Obs = Uxsm_obs.Obs

(* Observability: how much the component decomposition buys, and — for the
   incremental path — how much of a delta's work the component cache
   absorbs. *)
let c_runs = Obs.counter "partition.runs"
let c_components = Obs.counter "partition.components"
let c_component_edges = Obs.counter "partition.component_edges"
let c_merges = Obs.counter "partition.merges"
let c_delta_applies = Obs.counter "partition.delta_applies"
let c_components_reranked = Obs.counter "partition.components_reranked"
let c_components_reused = Obs.counter "partition.components_reused"
let c_fold_cutoffs = Obs.counter "partition.fold_cutoffs"
let c_local_extensions = Obs.counter "partition.local_extensions"
let s_top = Obs.span "partition.top"
let s_apply_delta = Obs.span "partition.apply_delta"
let s_fold = Obs.span "partition.fold"
let s_materialize = Obs.span "partition.materialize"

type component = {
  lefts : int list;
  rights : int list;
  edges : (int * int * float) list;
}

(* Union-find over left nodes [0, nl) and right nodes [nl, nl + nr). Links
   point at the smaller node, so a root is its component's smallest node:
   a left node, since a component holds an edge and left indices come
   first. Edges and nodes are bucketed by root in arrays indexed by it,
   walked downwards so every bucket comes out ascending. *)
let components g =
  let nl = Bipartite.n_left g in
  let nr = Bipartite.n_right g in
  let parent = Array.init (nl + nr) Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  let edges = Bipartite.edges g in
  List.iter (fun (i, j, _) -> union i (nl + j)) edges;
  let by_root = Array.make nl [] and lefts = Array.make nl [] and rights = Array.make nl [] in
  List.iter
    (fun ((i, _, _) as e) ->
      let r = find i in
      by_root.(r) <- e :: by_root.(r))
    edges;
  for i = nl - 1 downto 0 do
    if Array.length (Bipartite.adj g i) > 0 then begin
      let r = find i in
      lefts.(r) <- i :: lefts.(r)
    end
  done;
  for j = nr - 1 downto 0 do
    if Array.length (Bipartite.radj g j) > 0 then begin
      let r = find (nl + j) in
      rights.(r) <- j :: rights.(r)
    end
  done;
  let comps = ref [] in
  for r = nl - 1 downto 0 do
    match by_root.(r) with
    | [] -> ()
    | rev_edges ->
      comps := { lefts = lefts.(r); rights = rights.(r); edges = List.rev rev_edges } :: !comps
  done;
  !comps

let empty_solution : Murty.solution = { pairs = []; score = 0.0 }

let pair_compare (i1, j1) (i2, j2) =
  match Int.compare i1 i2 with
  | 0 -> Int.compare j1 j2
  | c -> c

(* One step of the merge fold, kept as back-pointers: entry [e] is the
   [e]-th best combination, scoring [lv_score.(e)], of entry
   [prev_of lv_cell.(e)] of the previous level with solution
   [local_of lv_cell.(e)] of one component's local list; [lv_cell.(e)] is
   the heap payload the merge popped for it, kept packed. The final
   level's solutions are read from these on demand, as right→left arrays
   ([right_to_left]) or as pair lists ([materialize]). *)
type level = {
  lv_score : float array;
  lv_cell : int array;
}

(* A cell (ix, iy) — entry [ix] of the previous level with local solution
   [iy] — is packed as [ix lsl 31 lor iy], in the heap and in a level, so
   reading it back is a shift and a mask. Both indices stay below
   [h + 1] and the list lengths. *)
let iy_bits = 31
let iy_mask = (1 lsl iy_bits) - 1
let[@inline] cell ix iy = (ix lsl iy_bits) lor iy
let[@inline] prev_of c = c lsr iy_bits
let[@inline] local_of c = c land iy_mask

(* Where a stream's further solutions come from: nowhere (a list given
   whole, or a stream whose level is merged), a component not yet ranked
   in this fold, or its running Murty cursor with the maps from the
   compact sub-graph's indices back to global ones. *)
type source =
  | Closed
  | Unranked of component
  | Ranking of { cursor : Murty.cursor; l_back : int array; r_back : int array }

(* One component's ranking while a fold runs: its first [len] local
   solutions, in global indices, with their scores apart for the merge.
   A stream that starts from a cached prefix shares that array until it
   appends, and appending to a full array copies it, so a cached list is
   never mutated. [whole] once the prefix is the full list: Murty ran
   out, or it holds h solutions. *)
type stream = {
  mutable sols : Murty.solution array;
  mutable scores : float array;
  mutable len : int;
  mutable whole : bool;
  mutable source : source;
}

let given sols =
  {
    sols;
    scores = Array.map (fun (s : Murty.solution) -> s.score) sols;
    len = Array.length sols;
    whole = true;
    source = Closed;
  }

let append ~h s (sol : Murty.solution) =
  if s.len = Array.length s.sols then begin
    let cap = min h (max 8 (2 * s.len)) in
    let sols = Array.make cap empty_solution and scores = Array.make cap 0.0 in
    Array.blit s.sols 0 sols 0 s.len;
    Array.blit s.scores 0 scores 0 s.len;
    s.sols <- sols;
    s.scores <- scores
  end;
  s.sols.(s.len) <- sol;
  s.scores.(s.len) <- sol.score;
  s.len <- s.len + 1;
  if s.len >= h then s.whole <- true

let rec map_back l_back r_back = function
  | [] -> []
  | (i, j) :: rest -> (l_back.(i), r_back.(j)) :: map_back l_back r_back rest

(* A Murty cursor over [comp] re-indexed to a compact sub-graph, with
   the maps back to global indices. *)
let start_local ~h comp =
  let l_of = Hashtbl.create 16 and r_of = Hashtbl.create 16 in
  let l_back = Array.of_list comp.lefts and r_back = Array.of_list comp.rights in
  List.iteri (fun k i -> Hashtbl.replace l_of i k) comp.lefts;
  List.iteri (fun k j -> Hashtbl.replace r_of j k) comp.rights;
  let edges =
    List.map (fun (i, j, w) -> (Hashtbl.find l_of i, Hashtbl.find r_of j, w)) comp.edges
  in
  let sub =
    Bipartite.create ~n_left:(Array.length l_back) ~n_right:(Array.length r_back) edges
  in
  (Murty.start ~h sub, l_back, r_back)

(* Extend [s] by its next local solution; false when its list is whole.
   A component first ranked here past a cached prefix skips that prefix:
   Murty is deterministic, so the skipped solutions are the cached ones
   (bumps [partition.local_extensions]). *)
let rec pull ~h s =
  (not s.whole)
  &&
  match s.source with
  | Ranking r ->
    if Murty.has_next r.cursor then begin
      let sol = Murty.next r.cursor in
      append ~h s { Murty.pairs = map_back r.l_back r.r_back sol.pairs; score = sol.score };
      true
    end
    else begin
      s.whole <- true;
      false
    end
  | Unranked comp ->
    let cursor, l_back, r_back = start_local ~h comp in
    if s.len > 0 then begin
      Obs.incr c_local_extensions;
      for _ = 1 to s.len do
        ignore (Murty.next cursor)
      done
    end;
    s.source <- Ranking { cursor; l_back; r_back };
    pull ~h s
  | Closed -> false

(* The scratch one fold's merges share: the heap the walks run in, the
   seen-bitmap, grown as deep as a level reads, and the arrays a level is
   written into, grown as long as one gets, before it is copied out at
   its exact size. [cols] and [cleared] are the current walk's. *)
type walk = {
  heap : Uxsm_util.Fheap.t;
  mutable seen : Bytes.t;
  mutable cols : int;
  mutable cleared : int;
  mutable w_score : float array;
  mutable w_cell : int array;
}

let walk () =
  {
    heap = Uxsm_util.Fheap.create ();
    seen = Bytes.empty;
    cols = 0;
    cleared = 0;
    w_score = [||];
    w_cell = [||];
  }

let grow_entries w ~h =
  let n = Array.length w.w_score in
  let cap = min h (max 16 (2 * n)) in
  let grow a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  w.w_score <- grow w.w_score 0.0;
  w.w_cell <- grow w.w_cell 0

(* Open column [iy = w.cols] of a walk over [nx] rows: pull local
   solution [iy] from [s] unless it is there, and clear the column's
   bits. The seen-bitmap holds cell (ix, iy) at bit [iy * nx + ix], so
   the columns opened so far fill its first bytes; a byte the previous
   column shares was cleared with that column, before any bit of this
   one could be set. False when [s] has no solution [iy]. *)
let open_column w ~h s nx iy =
  (iy < s.len || pull ~h s)
  && begin
       let need = (((iy + 1) * nx) + 7) / 8 in
       if need > w.cleared then begin
         if Bytes.length w.seen < need then begin
           let seen = Bytes.create (max need (2 * Bytes.length w.seen)) in
           Bytes.blit w.seen 0 seen 0 w.cleared;
           w.seen <- seen
         end;
         Bytes.fill w.seen w.cleared (need - w.cleared) '\000';
         w.cleared <- need
       end;
       w.cols <- iy + 1;
       true
     end

(* Push cell (ix, iy), of an opened column, unless it was pushed. *)
let[@inline] push_cell w xs s nx ix iy =
  let k = (iy * nx) + ix and seen = w.seen in
  let byte = Bytes.get_uint8 seen (k lsr 3) and bit = 1 lsl (k land 7) in
  if byte land bit = 0 then begin
    Bytes.set_uint8 seen (k lsr 3) (byte lor bit);
    Uxsm_util.Fheap.push w.heap (-.(xs.(ix) +. s.scores.(iy))) (cell ix iy)
  end

(* The top-h pairwise sums of the non-increasing score array [xs] and the
   stream [s], walked from (0, 0) with a heap: a popped cell pushes
   (ix + 1, iy), then (ix, iy + 1), each at most once, until h cells are
   popped or none is left. Ties pop in the order of that push sequence,
   so every caller — the fold and [merge] — breaks them alike. The walk
   pulls local solution [iy] from [s] only when it pushes the first cell
   of column [iy]: a popped cell is at most [h - 1] steps from (0, 0),
   and nothing is pushed after the h-th pop, so no column past [h - 1] is
   read, and a column opens only once a cell of the one before it pops.
   The walk runs in [w]'s scratch, so a fold's levels share it. *)
let merge_level w ~h xs s =
  Obs.incr c_merges;
  let nx = Array.length xs in
  let heap = w.heap in
  Uxsm_util.Fheap.clear heap;
  w.cols <- 0;
  w.cleared <- 0;
  if h > 0 && nx > 0 && open_column w ~h s nx 0 then push_cell w xs s nx 0 0;
  let n = ref 0 in
  while !n < h && not (Uxsm_util.Fheap.is_empty heap) do
    let e = !n in
    let neg_s = Uxsm_util.Fheap.min_priority heap in
    let k = Uxsm_util.Fheap.pop_min heap in
    let ix = prev_of k and iy = local_of k in
    if e = Array.length w.w_score then grow_entries w ~h;
    w.w_score.(e) <- -.neg_s;
    w.w_cell.(e) <- k;
    n := e + 1;
    if e + 1 < h then begin
      if ix + 1 < nx then push_cell w xs s nx (ix + 1) iy;
      if iy + 1 < w.cols || open_column w ~h s nx (iy + 1) then push_cell w xs s nx ix (iy + 1)
    end
  done;
  let n = !n in
  { lv_score = Array.sub w.w_score 0 n; lv_cell = Array.sub w.w_cell 0 n }

let merge ~h xs ys =
  let xa = Array.of_list xs and ya = Array.of_list ys in
  let lv =
    merge_level (walk ()) ~h (Array.map (fun (s : Murty.solution) -> s.score) xa) (given ya)
  in
  List.init (Array.length lv.lv_score) (fun e ->
      let c = lv.lv_cell.(e) in
      {
        Murty.pairs =
          List.merge pair_compare xa.(prev_of c).Murty.pairs ya.(local_of c).Murty.pairs;
        score = lv.lv_score.(e);
      })

let no_level = { lv_score = [||]; lv_cell = [||] }

let same_bits (a : float array) (b : float array) =
  let n = Array.length a in
  let rec from i =
    i >= n || (Int64.equal (Int64.bits_of_float a.(i)) (Int64.bits_of_float b.(i)) && from (i + 1))
  in
  n = Array.length b && from 0

(* The fold's [n] levels, from the single empty solution: level [c]
   merges level [c - 1]'s scores with [stream c], in one walk scratch;
   [stream c] is asked for only when the fold merges level [c].
   [old_levels] are an earlier fold's. Its first [kept] levels are taken
   as they are: the caller found their lists unchanged. From [tail] on
   every stream starts from the earlier fold's list at its position, so
   once a re-merged level [c] with [c + 1 >= tail] has the scores of old
   level [c], bit for bit, the levels after it are taken too: a merge
   reads only the previous level's scores and its own list's, so each
   later merge would repeat the earlier fold's. A fresh fold passes no
   old levels, [kept = 0] and [tail = n]. *)
let fold_levels ~h ~old_levels ~kept ~tail ~n stream =
  let levels = Array.make n no_level in
  Array.blit old_levels 0 levels 0 kept;
  let w = walk () in
  let rec fold c prev =
    if c < n then begin
      let s = stream c in
      let lv = merge_level w ~h prev s in
      (* A level is its stream's only reader, so the cursor is dropped
         here and its state dies young. *)
      s.source <- Closed;
      levels.(c) <- lv;
      if c + 1 >= tail && c + 1 < n && same_bits lv.lv_score old_levels.(c).lv_score then begin
        Obs.incr c_fold_cutoffs;
        Array.blit old_levels (c + 1) levels (c + 1) (n - c - 1)
      end
      else fold (c + 1) lv.lv_score
    end
  in
  fold kept (if kept = 0 then [| empty_solution.score |] else old_levels.(kept - 1).lv_score);
  levels

(* The final level's solutions as pair lists: follow each entry's
   back-pointers through every level, gather the chosen local pair lists
   and sort them. Components share no left node and each local list is
   sorted by left, so the sort is the nested [List.merge] a fold of [merge]
   would have built. *)
let materialize (locals : Murty.solution array array) (levels : level array) =
  let k = Array.length levels in
  if k = 0 then [ empty_solution ]
  else
    let last = levels.(k - 1) in
    let rec walk c e acc =
      if c < 0 then acc
      else
        let cl = levels.(c).lv_cell.(e) in
        walk (c - 1) (prev_of cl) (locals.(c).(local_of cl).Murty.pairs :: acc)
    in
    List.init (Array.length last.lv_score) (fun e ->
        {
          Murty.pairs = List.sort pair_compare (List.concat (walk (k - 1) e []));
          score = last.lv_score.(e);
        })

let merge_fold ~h locals =
  let locals = Array.of_list (List.map Array.of_list locals) in
  let n = Array.length locals in
  materialize locals
    (fold_levels ~h ~old_levels:[||] ~kept:0 ~tail:n ~n (fun c -> given locals.(c)))

(* One component's ranking as a fold left it: the component's ordered
   edge list (the reuse key), the prefix of its local top-h the fold
   produced, mapped back to global indices, and whether that prefix is
   the whole list. Plain data: a cursor lives only as long as its fold. *)
type local = {
  key : (int * int * float) list;
  prefix : Murty.solution array;
  whole : bool;
}

(* The reusable per-component state. Plain data throughout — no closures —
   so the catalog can own one per cached mapping set and a future session
   could serialize it. [rk_locals] holds one [local] per component, in
   component order. *)
type ranked = {
  rk_h : int;
  rk_n_right : int;
  rk_locals : local array;
  rk_levels : level array;
      (* rk_levels.(i) = the merge fold's level over locals 0..i, so the
         last level's entries are the merged top-h. The fold is
         left-associative and order-sensitive, so an edit confined to
         component k can keep levels 0..k-1 verbatim and re-merge only the
         suffix from k on. *)
}

(* Rank the components of [g] against an [old] ranking at the same [h]
   (a fresh ranking passes no components and no levels), as deep as the
   fold reads. A component whose ordered edge list is one of [old]'s
   keys starts from [old]'s prefix: equal keys mean identical member
   nodes and weights, so that prefix is exactly what a fresh Murty run
   would produce first. The others start unranked. *)
let rank_components ~h ~old_locals ~old_levels g =
  let comps = Array.of_list (components g) in
  let n = Array.length comps in
  Obs.incr c_runs;
  Obs.add c_components n;
  Array.iter (fun c -> Obs.add c_component_edges (List.length c.edges)) comps;
  let cache = Hashtbl.create (Array.length old_locals + 1) in
  Array.iteri (fun p l -> Hashtbl.replace cache l.key p) old_locals;
  let from_old =
    Array.map (fun c -> match Hashtbl.find cache c.edges with p -> p | exception Not_found -> -1) comps
  in
  let misses = Array.fold_left (fun k p -> if p < 0 then k + 1 else k) 0 from_old in
  (* Keys are unique, so a component taken from [old]'s position [c] is
     exactly one that matches [old]'s component there. The fold is
     left-associative: the leading run of such components keeps [old]'s
     levels verbatim, and the trailing run lets the fold stop where a
     re-merged level's scores return to [old]'s. *)
  let same c = from_old.(c) = c in
  let rec first_changed c = if c < n && same c then first_changed (c + 1) else c in
  let rec after_last_changed c = if c > 0 && same (c - 1) then after_last_changed (c - 1) else c in
  let kept = first_changed 0 in
  let tail = if n = Array.length old_locals then after_last_changed n else n in
  let streams = Array.make n None in
  let stream c =
    let s =
      match from_old.(c) with
      | -1 -> { sols = [||]; scores = [||]; len = 0; whole = false; source = Unranked comps.(c) }
      | p ->
        let l = old_locals.(p) in
        { (given l.prefix) with whole = l.whole; source = Unranked comps.(c) }
    in
    streams.(c) <- Some s;
    s
  in
  let levels = Obs.time s_fold (fun () -> fold_levels ~h ~old_levels ~kept ~tail ~n stream) in
  (* A component the fold did not read keeps [old]'s entry at its
     position; one it read keeps [old]'s entry while it read no further. *)
  let locals =
    Array.mapi
      (fun c stream ->
        let p = from_old.(c) in
        match stream with
        | None -> old_locals.(p)
        | Some s when p >= 0 && s.sols == old_locals.(p).prefix && s.whole = old_locals.(p).whole ->
          old_locals.(p)
        | Some s ->
          {
            key = comps.(c).edges;
            prefix = (if s.len = Array.length s.sols then s.sols else Array.sub s.sols 0 s.len);
            whole = s.whole;
          })
      streams
  in
  ({ rk_h = h; rk_n_right = Bipartite.n_right g; rk_locals = locals; rk_levels = levels }, misses)

let rank ~h g =
  if h <= 0 then invalid_arg "Partition.rank: h must be >= 1";
  Obs.time s_top @@ fun () -> fst (rank_components ~h ~old_locals:[||] ~old_levels:[||] g)

let rerank ~old g =
  Obs.time s_apply_delta @@ fun () ->
  Obs.incr c_delta_applies;
  let r, reranked =
    rank_components ~h:old.rk_h ~old_locals:old.rk_locals ~old_levels:old.rk_levels g
  in
  Obs.add c_components_reranked reranked;
  Obs.add c_components_reused (Array.length r.rk_locals - reranked);
  r

let solutions r =
  Obs.time s_materialize (fun () ->
      materialize (Array.map (fun l -> l.prefix) r.rk_locals) r.rk_levels)

(* Store every pair (i, j) of a local solution as [a.(j) <- i], by plain
   recursion: no closure per solution and level. *)
let rec write_pairs a = function
  | [] -> ()
  | (i, j) :: rest ->
    a.(j) <- i;
    write_pairs a rest

(* Solution [e] of the merged top-h written straight from the
   back-pointers into [a]: clear it, walk the solution's levels from the
   last down and write every chosen local solution's pairs. Components
   share no node, so no write overlaps another. *)
let write_solution r a e =
  Array.fill a 0 (Array.length a) (-1);
  let entry = ref e in
  for c = Array.length r.rk_levels - 1 downto 0 do
    let cl = r.rk_levels.(c).lv_cell.(!entry) in
    write_pairs a r.rk_locals.(c).prefix.(local_of cl).Murty.pairs;
    entry := prev_of cl
  done

let last_scores r =
  let k = Array.length r.rk_levels in
  if k = 0 then [| empty_solution.score |] else r.rk_levels.(k - 1).lv_score

let right_to_left r f =
  Obs.time s_materialize @@ fun () ->
  let a = Array.make r.rk_n_right (-1) in
  Array.mapi
    (fun e score ->
      write_solution r a e;
      f score a)
    (last_scores r)

(* Where local list [c] of [r] is [old]'s at the same position, equal
   indices are equal solutions. Otherwise (a re-ranked component) a
   local index maps to the index of [old]'s solution with equal pairs
   there, looked up on first use: local solutions are pairwise distinct,
   so at most one matches. *)
let local_match r ~old c =
  let nl = r.rk_locals.(c).prefix and ol = old.rk_locals.(c).prefix in
  if nl == ol then Fun.id
  else begin
    let memo = Array.make (Array.length nl) (-2) in
    let find l =
      let pairs = nl.(l).Murty.pairs in
      if l < Array.length ol && ol.(l).Murty.pairs = pairs then l
      else
        let rec scan j =
          if j >= Array.length ol then -1 else if ol.(j).Murty.pairs = pairs then j else scan (j + 1)
        in
        scan 0
    in
    fun l ->
      if memo.(l) = -2 then memo.(l) <- find l;
      memo.(l)
  end

(* For each solution of [r]'s merged top-h, the index of [old]'s solution
   with exactly its pairs, or -1. Computed level by level: entry [e] of a
   level matches the entry of [old]'s level at the same position that
   extends the match of [e]'s previous entry with the match of [e]'s
   local solution. Components are disjoint, so solutions whose chosen
   local solutions agree at every position hold the same pairs. Levels
   the two rankings share (the kept prefix, and the suffix after a fold
   cutoff) match every entry to itself while the previous level does, at
   no cost; only the re-merged levels are walked. Rankings with another
   number of components or another right side match nothing. *)
let same_entries ~old r =
  let k = Array.length r.rk_levels in
  let n_last = Array.length (last_scores r) in
  if k <> Array.length old.rk_levels || r.rk_n_right <> old.rk_n_right then Array.make n_last (-1)
  else begin
    (* [matches] holds the current level's matches unless [identity]. *)
    let identity = ref true and matches = ref [||] in
    (* Entries of an old level chained by their previous entry or by their
       local solution, whichever has more values, so a lookup walks a
       short chain. *)
    let head = Array.make (old.rk_h + 1) (-1) and next = Array.make old.rk_h (-1) in
    for c = 0 to k - 1 do
      let lv = r.rk_levels.(c) and olv = old.rk_levels.(c) in
      if not (!identity && lv == olv) then begin
        let local = local_match r ~old c in
        let prev_match = !matches and prev_identity = !identity in
        let n = Array.length lv.lv_score and on = Array.length olv.lv_score in
        let by_prev =
          (if c = 0 then 1 else Array.length old.rk_levels.(c - 1).lv_score)
          >= Array.length old.rk_locals.(c).prefix
        in
        let cells = olv.lv_cell in
        let key cl = if by_prev then prev_of cl else local_of cl in
        let chained = ref false in
        (* The entry of [olv] whose cell is [cl], walking the chain of
           [cl]'s key: every entry on it shares the key, so comparing cells
           compares the other index. *)
        let find cl =
          if not !chained then begin
            chained := true;
            Array.fill head 0 (Array.length head) (-1);
            for e = on - 1 downto 0 do
              let ke = key cells.(e) in
              next.(e) <- head.(ke);
              head.(ke) <- e
            done
          end;
          let rec walk e = if e < 0 || cells.(e) = cl then e else walk next.(e) in
          walk head.(key cl)
        in
        let m = Array.make n (-1) in
        let all_self = ref true in
        for e = 0 to n - 1 do
          let cl = lv.lv_cell.(e) in
          let p' = if prev_identity then prev_of cl else prev_match.(prev_of cl) in
          let l' = if p' < 0 then -1 else local (local_of cl) in
          if l' >= 0 then begin
            let cl' = cell p' l' in
            m.(e) <- (if e < on && cells.(e) = cl' then e else find cl')
          end;
          if m.(e) <> e then all_self := false
        done;
        identity := !all_self;
        matches := m
      end
    done;
    if !identity then Array.init n_last Fun.id else !matches
  end

let right_to_left_reusing ~old r ~same f =
  Obs.time s_materialize @@ fun () ->
  let a = Array.make r.rk_n_right (-1) in
  let found = same_entries ~old r in
  Array.mapi
    (fun e score ->
      if found.(e) >= 0 then same score found.(e)
      else begin
        write_solution r a e;
        f score a
      end)
    (last_scores r)

let top ~h g = if h <= 0 then [] else solutions (rank ~h g)
