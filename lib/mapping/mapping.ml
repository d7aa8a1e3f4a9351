module Schema = Uxsm_schema.Schema

type t = {
  target_to_source : int array;  (* per target element, source or -1 *)
  n_pairs : int;
  score : float;
}

let of_pairs ~source ~target ~score pairs =
  let seen = Bytes.make (Schema.size source) '\000' in
  let t2s = Array.make (Schema.size target) (-1) in
  let add (x, y) =
    if x < 0 || x >= Bytes.length seen then invalid_arg "Mapping.of_pairs: source out of range";
    if y < 0 || y >= Array.length t2s then invalid_arg "Mapping.of_pairs: target out of range";
    if Bytes.get seen x <> '\000' then invalid_arg "Mapping.of_pairs: source element mapped twice";
    if t2s.(y) >= 0 then invalid_arg "Mapping.of_pairs: target element mapped twice";
    Bytes.set seen x '\001';
    t2s.(y) <- x
  in
  List.iter add pairs;
  { target_to_source = t2s; n_pairs = List.length pairs; score }

let of_target_sources ~source ~target ~score t2s =
  if Array.length t2s <> Schema.size target then
    invalid_arg "Mapping.of_target_sources: array length is not the target size";
  let seen = Bytes.make (Schema.size source) '\000' in
  let n = ref 0 in
  for y = 0 to Array.length t2s - 1 do
    let x = t2s.(y) in
    if x <> -1 then begin
      if x < 0 || x >= Bytes.length seen then
        invalid_arg "Mapping.of_target_sources: source out of range";
      if Bytes.get seen x <> '\000' then
        invalid_arg "Mapping.of_target_sources: source element mapped twice";
      Bytes.set seen x '\001';
      incr n
    end
  done;
  { target_to_source = t2s; n_pairs = !n; score }

let with_score t score = { t with score }

let score t = t.score
let size t = t.n_pairs

let pairs t =
  let out = ref [] in
  for y = Array.length t.target_to_source - 1 downto 0 do
    if t.target_to_source.(y) >= 0 then out := (t.target_to_source.(y), y) :: !out
  done;
  List.sort (fun (x1, _) (x2, _) -> Int.compare x1 x2) !out

let source_of t y = if t.target_to_source.(y) < 0 then None else Some t.target_to_source.(y)
let source_at t y = t.target_to_source.(y)
let n_targets t = Array.length t.target_to_source

(* A pair (x, y) of [a] is in [b] iff [b] maps the same target y to x, so
   only targets inside both arrays can match. *)
let inter_size a b =
  let a = a.target_to_source and b = b.target_to_source in
  let n = ref 0 in
  for y = 0 to Int.min (Array.length a) (Array.length b) - 1 do
    let x = a.(y) in
    if x >= 0 && x = b.(y) then incr n
  done;
  !n

let o_ratio a b =
  let i = inter_size a b in
  let u = a.n_pairs + b.n_pairs - i in
  if u = 0 then 1.0 else float_of_int i /. float_of_int u

let equal a b = a.n_pairs = b.n_pairs && inter_size a b = a.n_pairs
