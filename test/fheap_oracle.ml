(* [Uxsm_util.Fheap] as it stood before its sifts moved a hole: every step
   of a sift swaps two entries. Kept as the reference the hole-sift heap
   must equal, pop for pop (ties included), and as the heap of
   [test_assignment]'s merge oracle, so that oracle does not run the heap
   under test. *)

type t = {
  mutable prio : float array;
  mutable data : int array;
  mutable len : int;
}

let create () = { prio = Array.make 16 0.0; data = Array.make 16 0; len = 0 }
let clear h = h.len <- 0
let is_empty h = h.len = 0
let size h = h.len

let grow h =
  let cap = Array.length h.prio in
  let prio = Array.make (2 * cap) 0.0 in
  let data = Array.make (2 * cap) 0 in
  Array.blit h.prio 0 prio 0 h.len;
  Array.blit h.data 0 data 0 h.len;
  h.prio <- prio;
  h.data <- data

let swap h i j =
  let p = h.prio.(i) and d = h.data.(i) in
  h.prio.(i) <- h.prio.(j);
  h.data.(i) <- h.data.(j);
  h.prio.(j) <- p;
  h.data.(j) <- d

let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if h.prio.(p) > h.prio.(i) then begin
      swap h p i;
      sift_up h p
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && h.prio.(l) < h.prio.(!smallest) then smallest := l;
  if r < h.len && h.prio.(r) < h.prio.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h prio x =
  if h.len = Array.length h.prio then grow h;
  h.prio.(h.len) <- prio;
  h.data.(h.len) <- x;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let min_priority h = h.prio.(0)

let pop_min h =
  if h.len = 0 then invalid_arg "Fheap.pop_min: empty heap";
  let x = h.data.(0) in
  h.len <- h.len - 1;
  h.prio.(0) <- h.prio.(h.len);
  h.data.(0) <- h.data.(h.len);
  if h.len > 0 then sift_down h 0;
  x

let pop h =
  if h.len = 0 then None
  else
    let p = min_priority h in
    Some (p, pop_min h)

let peek h = if h.len = 0 then None else Some (h.prio.(0), h.data.(0))
