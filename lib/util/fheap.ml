(* Priorities and payloads live in two parallel unboxed arrays, so a push
   or a pop moves ints and floats only and allocates nothing (bar growth). *)
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

(* Both sifts move a hole instead of swapping: the moving entry is held
   aside, each entry it passes moves one step into the hole, and the
   moving entry is written once where the hole stops. Each step makes the
   comparison a swap-based sift would make against the moving entry, with
   the same strict inequality, so the heap's shape after every push and
   pop, hence the order in which equal priorities pop, is the one the swap
   version gives. The moving priority stays in a local of the function
   that reads it from the array, never a float argument, so it is not
   boxed. *)
let[@inline] push h prio x =
  if h.len = Array.length h.prio then grow h;
  let pa = h.prio and da = h.data in
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if pa.(p) > prio then begin
      pa.(!i) <- pa.(p);
      da.(!i) <- da.(p);
      i := p
    end
    else continue := false
  done;
  pa.(!i) <- prio;
  da.(!i) <- x

let min_priority h = h.prio.(0)

let pop_min h =
  if h.len = 0 then invalid_arg "Fheap.pop_min: empty heap";
  let pa = h.prio and da = h.data in
  let x = da.(0) in
  let n = h.len - 1 in
  h.len <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root. *)
    let mp = pa.(n) and md = da.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let c =
        if l < n && pa.(l) < mp then if r < n && pa.(r) < pa.(l) then r else l
        else if r < n && pa.(r) < mp then r
        else !i
      in
      if c = !i then continue := false
      else begin
        pa.(!i) <- pa.(c);
        da.(!i) <- da.(c);
        i := c
      end
    done;
    pa.(!i) <- mp;
    da.(!i) <- md
  end;
  x

let pop h =
  if h.len = 0 then None
  else
    let p = min_priority h in
    Some (p, pop_min h)

let peek h = if h.len = 0 then None else Some (h.prio.(0), h.data.(0))
