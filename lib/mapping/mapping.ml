module Schema = Uxsm_schema.Schema

type t = {
  source_to_target : int array;  (* per source element, target or -1 *)
  target_to_source : int array;  (* per target element, source or -1 *)
  n_pairs : int;
  score : float;
}

let of_pairs ~source ~target ~score pairs =
  let s2t = Array.make (Schema.size source) (-1) in
  let t2s = Array.make (Schema.size target) (-1) in
  let add (x, y) =
    if x < 0 || x >= Array.length s2t then invalid_arg "Mapping.of_pairs: source out of range";
    if y < 0 || y >= Array.length t2s then invalid_arg "Mapping.of_pairs: target out of range";
    if s2t.(x) >= 0 then invalid_arg "Mapping.of_pairs: source element mapped twice";
    if t2s.(y) >= 0 then invalid_arg "Mapping.of_pairs: target element mapped twice";
    s2t.(x) <- y;
    t2s.(y) <- x
  in
  List.iter add pairs;
  { source_to_target = s2t; target_to_source = t2s; n_pairs = List.length pairs; score }

let of_target_sources ~source ~target ~score t2s =
  let ns = Schema.size source in
  if Array.length t2s <> Schema.size target then
    invalid_arg "Mapping.of_target_sources: array length is not the target size";
  let s2t = Array.make ns (-1) in
  let n = ref 0 in
  Array.iteri
    (fun y x ->
      if x <> -1 then begin
        if x < 0 || x >= ns then invalid_arg "Mapping.of_target_sources: source out of range";
        if s2t.(x) >= 0 then invalid_arg "Mapping.of_target_sources: source element mapped twice";
        s2t.(x) <- y;
        incr n
      end)
    t2s;
  { source_to_target = s2t; target_to_source = t2s; n_pairs = !n; score }

let with_score t score = { t with score }

let score t = t.score
let size t = t.n_pairs

let pairs t =
  let out = ref [] in
  for x = Array.length t.source_to_target - 1 downto 0 do
    if t.source_to_target.(x) >= 0 then out := (x, t.source_to_target.(x)) :: !out
  done;
  !out

let source_of t y = if t.target_to_source.(y) < 0 then None else Some t.target_to_source.(y)
let source_at t y = t.target_to_source.(y)
let target_of t x = if t.source_to_target.(x) < 0 then None else Some t.source_to_target.(x)

let covers_targets t ys = List.for_all (fun y -> t.target_to_source.(y) >= 0) ys

let inter_size a b =
  let n = ref 0 in
  Array.iteri
    (fun x y -> if y >= 0 && x < Array.length b.source_to_target && b.source_to_target.(x) = y then incr n)
    a.source_to_target;
  !n

let union_size a b = a.n_pairs + b.n_pairs - inter_size a b

let o_ratio a b =
  let u = union_size a b in
  if u = 0 then 1.0 else float_of_int (inter_size a b) /. float_of_int u

let equal a b = a.n_pairs = b.n_pairs && inter_size a b = a.n_pairs
