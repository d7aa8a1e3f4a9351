let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = c >= 'a' && c <= 'z'
let is_digit c = c >= '0' && c <= '9'
let is_alpha c = is_upper c || is_lower c

let tokenize name =
  let n = String.length name in
  let out = ref [] in
  let buf = Buffer.create 8 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := String.lowercase_ascii (Buffer.contents buf) :: !out;
      Buffer.clear buf
    end
  in
  for i = 0 to n - 1 do
    let c = name.[i] in
    if not (is_alpha c || is_digit c) then flush ()
    else begin
      let boundary =
        i > 0
        &&
        let p = name.[i - 1] in
        (* aB | 9a | a9 boundaries, and AAb -> A|Ab for acronym suffixes *)
        (is_lower p && is_upper c)
        || (is_digit p && is_alpha c)
        || (is_alpha p && is_digit c)
        || (is_upper p && is_upper c && i + 1 < n && is_lower name.[i + 1])
      in
      if boundary then flush ();
      Buffer.add_char buf c
    end
  done;
  flush ();
  List.rev !out

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) Fun.id in
    let cur = Array.make (lb + 1) 0 in
    for i = 1 to la do
      cur.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

let edit_similarity a b =
  let a = String.lowercase_ascii a and b = String.lowercase_ascii b in
  let la = String.length a and lb = String.length b in
  if la = 0 && lb = 0 then 1.0
  else 1.0 -. (float_of_int (levenshtein a b) /. float_of_int (max la lb))

let trigrams s =
  let s = "##" ^ String.lowercase_ascii s ^ "##" in
  let n = String.length s in
  let out = Hashtbl.create 16 in
  for i = 0 to n - 3 do
    Hashtbl.replace out (String.sub s i 3) ()
  done;
  out

let trigram_similarity a b =
  if String.length a = 0 && String.length b = 0 then 1.0
  else begin
    let ta = trigrams a and tb = trigrams b in
    let inter = Hashtbl.fold (fun g () acc -> if Hashtbl.mem tb g then acc + 1 else acc) ta 0 in
    let total = Hashtbl.length ta + Hashtbl.length tb in
    if total = 0 then 0.0 else 2.0 *. float_of_int inter /. float_of_int total
  end

type synonyms = (string, string list) Hashtbl.t

let default_pairs =
  [
    ("buyer", "customer");
    ("buyer", "purchaser");
    ("seller", "supplier");
    ("seller", "vendor");
    ("supplier", "vendor");
    ("order", "purchase");
    ("order", "po");
    ("id", "identifier");
    ("id", "code");
    ("id", "number");
    ("no", "number");
    ("no", "id");
    ("no", "identifier");
    ("num", "number");
    ("num", "no");
    ("qty", "quantity");
    ("amount", "total");
    ("price", "cost");
    ("unit", "per");
    ("contact", "party");
    ("name", "label");
    ("street", "road");
    ("zip", "postcode");
    ("zip", "postal");
    ("email", "mail");
    ("phone", "telephone");
    ("invoice", "bill");
    ("ship", "deliver");
    ("shipping", "delivery");
    ("line", "item");
    ("date", "day");
    ("country", "nation");
  ]

(* The table is closed transitively: pairs (order, purchase) and (order, po)
   put purchase, po and order in one class, so purchase ~ po too. *)
let synonyms ?(extra = []) () =
  let pairs =
    List.map
      (fun (a, b) -> (String.lowercase_ascii a, String.lowercase_ascii b))
      (default_pairs @ extra)
  in
  let class_of : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let rec find w =
    match Hashtbl.find_opt class_of w with
    | None -> w
    | Some p -> if String.equal p w then w else find p
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (String.equal ra rb) then Hashtbl.replace class_of ra rb
  in
  List.iter
    (fun (a, b) ->
      if not (Hashtbl.mem class_of a) then Hashtbl.replace class_of a a;
      if not (Hashtbl.mem class_of b) then Hashtbl.replace class_of b b;
      union a b)
    pairs;
  let members : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  (* lint: allow nondet-iter — synonym classes are consumed by membership tests only, so member order never escapes *)
  Hashtbl.iter
    (fun w _ ->
      let r = find w in
      let prev = try Hashtbl.find members r with Not_found -> [] in
      Hashtbl.replace members r (w :: prev))
    class_of;
  let tbl : synonyms = Hashtbl.create 64 in
  (* lint: allow nondet-iter — each class writes a disjoint key set; order is irrelevant *)
  Hashtbl.iter
    (fun _ ws -> List.iter (fun w -> Hashtbl.replace tbl w (List.filter (fun x -> x <> w) ws)) ws)
    members;
  tbl

let synonyms_of tbl w = Option.value ~default:[] (Hashtbl.find_opt tbl w)
let are_synonyms tbl a b = String.equal a b || List.mem b (synonyms_of tbl a)

let token_pair_score syn a b =
  match syn with
  | Some tbl when are_synonyms tbl a b -> 1.0
  | _ -> if String.equal a b then 1.0 else max (edit_similarity a b) (trigram_similarity a b)

(* Single-letter tokens ("EMail" -> ["e"; "mail"]) are treated as noise
   whenever longer tokens exist. *)
let drop_noise tokens =
  match List.filter (fun t -> String.length t > 1) tokens with
  | [] -> tokens
  | meaningful -> meaningful

let token_similarity ?synonyms a b =
  let ta = drop_noise (tokenize a) and tb = drop_noise (tokenize b) in
  match (ta, tb) with
  | [], [] -> 1.0
  | [], _ | _, [] -> 0.0
  | _ ->
    let best_against other t =
      List.fold_left (fun acc u -> max acc (token_pair_score synonyms t u)) 0.0 other
    in
    let avg side other =
      List.fold_left (fun acc t -> acc +. best_against other t) 0.0 side
      /. float_of_int (List.length side)
    in
    (avg ta tb +. avg tb ta) /. 2.0

let combined ?synonyms a b =
  (0.8 *. token_similarity ?synonyms a b)
  +. (0.1 *. trigram_similarity a b)
  +. (0.1 *. edit_similarity a b)
