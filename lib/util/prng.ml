type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = mix64 (bits64 t) }

(* Uniform int in [0, bound) by rejection on the top bits, avoiding modulo
   bias for bounds that do not divide 2^62. The raw 64-bit output is
   shifted down to 62 bits so it always fits OCaml's 63-bit native int. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then draw () else v
  in
  draw ()

let float t bound =
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let range t lo hi =
  if lo > hi then invalid_arg "Prng.range: lo > hi";
  lo + int t (hi - lo + 1)

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u <= 0.0 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  (* Floyd's algorithm: k iterations, set of size <= k. *)
  let module IS = Set.Make (Int) in
  let chosen = ref IS.empty in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    if IS.mem r !chosen then chosen := IS.add j !chosen
    else chosen := IS.add r !chosen
  done;
  IS.elements !chosen
