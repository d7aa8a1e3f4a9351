module Executor = Uxsm_exec.Executor

(* An interned label or token: its lowercase text (the measures are
   case-insensitive, and lowercasing keeps the length) and its distinct
   padded character trigrams, three bytes packed per int and sorted, so a
   trigram intersection is a merge of two int arrays. *)
type word = {
  low : string;
  grams : int array;
}

type label = {
  text : word;
  tokens : int array;  (* token ids, after the noise rule below *)
}

type side = {
  ids : int array;  (* input position -> label id *)
  labels : label array;  (* by label id *)
  words : word array;  (* tokens, by token id *)
}

type t = {
  source : side;
  target : side;
  table : float array array;  (* [source label id].(target label id) *)
}

let word s =
  let low = String.lowercase_ascii s in
  let padded = "##" ^ low ^ "##" in
  let code i =
    (Char.code padded.[i] lsl 16) lor (Char.code padded.[i + 1] lsl 8) lor Char.code padded.[i + 2]
  in
  let grams = List.sort_uniq Int.compare (List.init (String.length padded - 2) code) in
  { low; grams = Array.of_list grams }

(* Name_sim's noise rule: single-letter tokens count only when a label has
   nothing longer. *)
let drop_noise tokens =
  match List.filter (fun t -> String.length t > 1) tokens with
  | [] -> tokens
  | meaningful -> meaningful

let intern_side names =
  let label_ids = Hashtbl.create 64 and token_ids = Hashtbl.create 64 in
  let labels = ref [] and words = ref [] in
  let token_id tok =
    match Hashtbl.find_opt token_ids tok with
    | Some i -> i
    | None ->
      let i = Hashtbl.length token_ids in
      Hashtbl.add token_ids tok i;
      words := word tok :: !words;
      i
  in
  let label_id name =
    match Hashtbl.find_opt label_ids name with
    | Some i -> i
    | None ->
      let i = Hashtbl.length label_ids in
      Hashtbl.add label_ids name i;
      let tokens = Array.of_list (List.map token_id (drop_noise (Name_sim.tokenize name))) in
      labels := { text = word name; tokens } :: !labels;
      i
  in
  let ids = Array.map label_id names in
  { ids; labels = Array.of_list (List.rev !labels); words = Array.of_list (List.rev !words) }

(* ---------------------------- edit distance ---------------------------- *)

(* Myers' bit-parallel Levenshtein distance (1999), in Hyyrö's
   formulation: one bit per pattern position, so patterns of up to
   [Sys.int_size] (63) bytes fit an immediate int. Bits above the pattern
   length hold garbage that only carries upward, so no masking is needed.
   [peq.(c)] marks the pattern positions holding byte [c]. *)
let myers peq m text =
  let last = 1 lsl (m - 1) in
  let vp = ref (-1) and vn = ref 0 and d = ref m in
  for j = 0 to String.length text - 1 do
    let eq = Array.unsafe_get peq (Char.code (String.unsafe_get text j)) in
    let d0 = (((eq land !vp) + !vp) lxor !vp) lor eq lor !vn in
    let hp = !vn lor lnot (d0 lor !vp) in
    let hn = d0 land !vp in
    if hp land last <> 0 then incr d else if hn land last <> 0 then decr d;
    let hp = (hp lsl 1) lor 1 in
    vp := (hn lsl 1) lor lnot (d0 lor hp);
    vn := d0 land hp
  done;
  !d

(* [distance_from p] is [Name_sim.levenshtein p]. Each pattern gets its
   own [peq] table, so concurrent rows (and the label and token tables)
   never share one; patterns over 63 bytes keep the reference DP. *)
let distance_from p =
  let m = String.length p in
  if m = 0 then String.length
  else if m > Sys.int_size then Name_sim.levenshtein p
  else begin
    let peq = Array.make 256 0 in
    String.iteri (fun i c -> peq.(Char.code c) <- peq.(Char.code c) lor (1 lsl i)) p;
    myers peq m
  end

(* ------------------------------ measures ------------------------------- *)

(* [Stdlib.max] on floats, monomorphic. *)
let fmax (a : float) b = if a >= b then a else b

(* The float expressions below repeat Name_sim's operand for operand, over
   integer distances and trigram counts, so every result is bitwise equal
   to the reference measure. [distance] is [distance_from a.low]. *)
let edit_similarity distance a b =
  let la = String.length a.low and lb = String.length b.low in
  if la = 0 && lb = 0 then 1.0
  else 1.0 -. (float_of_int (distance b.low) /. float_of_int (Int.max la lb))

let common_grams (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      incr n;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  !n

let trigram_similarity a b =
  if String.length a.low = 0 && String.length b.low = 0 then 1.0
  else begin
    let inter = common_grams a.grams b.grams in
    let total = Array.length a.grams + Array.length b.grams in
    if total = 0 then 0.0 else 2.0 *. float_of_int inter /. float_of_int total
  end

(* Name_sim.token_similarity over token ids and
   Structure_sim.soft_set_similarity over label ids are one fold: each
   side's average best match against the other, symmetrized. [table]
   scores a-side ids (rows) against b-side ids. *)
let soft_set (table : float array array) a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 && nb = 0 then 1.0
  else if na = 0 || nb = 0 then 0.0
  else begin
    let sum_a = ref 0.0 in
    for i = 0 to na - 1 do
      let row = table.(a.(i)) in
      let best = ref 0.0 in
      for j = 0 to nb - 1 do
        best := fmax !best row.(b.(j))
      done;
      sum_a := !sum_a +. !best
    done;
    (* The reference scores (b, a) here; every pair score is symmetric, so
       the (a, b) cell holds the same value. *)
    let sum_b = ref 0.0 in
    for j = 0 to nb - 1 do
      let col = b.(j) in
      let best = ref 0.0 in
      for i = 0 to na - 1 do
        best := fmax !best table.(a.(i)).(col)
      done;
      sum_b := !sum_b +. !best
    done;
    ((!sum_a /. float_of_int na) +. (!sum_b /. float_of_int nb)) /. 2.0
  end

(* ------------------------------- tables -------------------------------- *)

let token_table synonyms source target =
  Array.map
    (fun a ->
      let distance = distance_from a.low in
      Array.map
        (fun b ->
          match synonyms with
          | Some tbl when Name_sim.are_synonyms tbl a.low b.low -> 1.0
          | _ ->
            if String.equal a.low b.low then 1.0
            else fmax (edit_similarity distance a b) (trigram_similarity a b))
        target.words)
    source.words

let create ?(exec = Executor.sequential) ?synonyms sources targets =
  let source = intern_side sources and target = intern_side targets in
  let tokens = token_table synonyms source target in
  let table =
    (* lint: allow blocking-under-lock — runs under a catalog shard lock during register; the fan-out never blocks on the pool (try_lock or sequential fallback) and scoring is pure compute, so the hold is bounded by the table itself *)
    Executor.map_array exec
      (fun a ->
        let distance = distance_from a.text.low in
        Array.map
          (fun b ->
            (0.8 *. soft_set tokens a.tokens b.tokens)
            +. (0.1 *. trigram_similarity a.text b.text)
            +. (0.1 *. edit_similarity distance a.text b.text))
          target.labels)
      source.labels
  in
  { source; target; table }

let source_id t i = t.source.ids.(i)
let target_id t j = t.target.ids.(j)
let score t a b = t.table.(a).(b)
let soft_set_similarity t a b = soft_set t.table a b
