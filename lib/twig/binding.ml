type t = int array

(* [Stdlib.compare]'s order on int arrays: length first, then entries left
   to right. *)
let compare (a : t) (b : t) =
  let n = Array.length a in
  let c = Int.compare n (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i = n then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> compare a b < 0 && strictly_increasing rest
  | _ -> true

(* [compare] is this module's, typed on bindings. *)
let sort_uniq l = if strictly_increasing l then l else List.sort_uniq (compare : t -> t -> int) l

let merge a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Binding.merge: size mismatch";
  let r = Array.copy a in
  for i = 0 to n - 1 do
    let v = b.(i) in
    if v <> -1 then
      if r.(i) = -1 then r.(i) <- v else invalid_arg "Binding.merge: overlapping bindings"
  done;
  r

let unbound l = Array.make l (-1)

let pp fmt (b : t) =
  Format.fprintf fmt "[%s]"
    (String.concat "; " (Array.to_list (Array.map string_of_int b)))
