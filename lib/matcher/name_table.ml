module Executor = Uxsm_exec.Executor

(* An interned label or token: its lowercase text (the measures are
   case-insensitive, and lowercasing keeps the length) and its distinct
   padded character trigrams, three bytes packed per int. *)
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
  token_ids : (string, int) Hashtbl.t;  (* token -> token id *)
}

type t = {
  source : side;
  target : side;
  table : float array array;  (* [source label id].(target label id) *)
}

(* The trigrams of [s] padded with "##" on both sides, each packed into
   an int as it rolls past and kept if not seen yet: a text of [n] bytes
   has [n + 2] of them, so every word has at least one. *)
let word s =
  let low = String.lowercase_ascii s in
  let n = String.length low in
  let codes = Array.make (n + 2) 0 and distinct = ref 0 and code = ref 0 in
  for k = 0 to n + 3 do
    let byte =
      if k < 2 || k >= n + 2 then Char.code '#' else Char.code (String.unsafe_get low (k - 2))
    in
    code := ((!code lsl 8) lor byte) land 0xffffff;
    if k >= 2 then begin
      let seen = ref false in
      for i = 0 to !distinct - 1 do
        if codes.(i) = !code then seen := true
      done;
      if not !seen then begin
        codes.(!distinct) <- !code;
        incr distinct
      end
    end
  done;
  { low; grams = Array.sub codes 0 !distinct }

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
  {
    ids;
    labels = Array.of_list (List.rev !labels);
    words = Array.of_list (List.rev !words);
    token_ids;
  }

(* ------------------------- common trigram counts ------------------------ *)

(* An inverted index of one side's words by trigram, in 256 buckets by a
   multiplicative hash of the code: bucket [b] holds [code lsl 32 lor id]
   for each word [id] and each of its codes that hash to [b]. A lookup
   scans one bucket for its code. Buckets need no order and stay short
   (D7's labels put 7 keys in a bucket on average, 47 at most), so the
   index costs no sort and, at D7's size, no major-heap array. *)
let bucket code = ((code * 0x9e3779b1) land 0xffffffff) lsr 24

let index (words : word array) =
  let fill = Array.make 256 0 in
  Array.iter (fun w -> Array.iter (fun c -> fill.(bucket c) <- fill.(bucket c) + 1) w.grams) words;
  let index = Array.map (fun n -> Array.make n 0) fill in
  Array.fill fill 0 256 0;
  Array.iteri
    (fun j w ->
      Array.iter
        (fun c ->
          let b = bucket c in
          index.(b).(fill.(b)) <- (c lsl 32) lor j;
          fill.(b) <- fill.(b) + 1)
        w.grams)
    words;
  index

(* ScanCount (Li, Lu & Lu, ICDE 2008): [common.(j)] is the number of
   trigrams that [a] shares with the [j]th of the [n] indexed words, one
   bucket of the index per trigram of [a]. *)
let common_counts index n (a : word) =
  let common = Array.make n 0 in
  for g = 0 to Array.length a.grams - 1 do
    let code = a.grams.(g) in
    let keys = index.(bucket code) in
    for k = 0 to Array.length keys - 1 do
      let key = Array.unsafe_get keys k in
      if key lsr 32 = code then begin
        let j = key land 0xffffffff in
        common.(j) <- common.(j) + 1
      end
    done
  done;
  common

(* ---------------------------- edit distance ---------------------------- *)

(* [distances a targets] holds [Name_sim.levenshtein a.low b.low] for every
   [b] of [targets], in order. Patterns of up to [Sys.int_size] (63) bytes
   run Myers' bit-parallel algorithm (1999) in Hyyrö's formulation, one bit
   per pattern position in an immediate int; bits above the pattern length
   hold garbage that only carries upward, so no masking is needed.
   [peq.(c)] marks the pattern positions holding byte [c]. [hp] and [hn]
   never share a bit, so the distance steps by the difference of their top
   bits. Longer patterns keep the reference DP. *)
let distances (a : word) (targets : word array) =
  let m = String.length a.low in
  let dist = Array.make (Array.length targets) 0 in
  if m = 0 then Array.iteri (fun j b -> dist.(j) <- String.length b.low) targets
  else if m > Sys.int_size then
    Array.iteri (fun j b -> dist.(j) <- Name_sim.levenshtein a.low b.low) targets
  else begin
    let peq = Array.make 256 0 in
    for i = 0 to m - 1 do
      let c = Char.code (String.unsafe_get a.low i) in
      peq.(c) <- peq.(c) lor (1 lsl i)
    done;
    let top = m - 1 in
    for j = 0 to Array.length targets - 1 do
      let text = targets.(j).low in
      let vp = ref (-1) and vn = ref 0 and d = ref m in
      for k = 0 to String.length text - 1 do
        let eq = Array.unsafe_get peq (Char.code (String.unsafe_get text k)) in
        let d0 = (((eq land !vp) + !vp) lxor !vp) lor eq lor !vn in
        let hp = !vn lor lnot (d0 lor !vp) in
        let hn = d0 land !vp in
        d := !d + ((hp lsr top) land 1) - ((hn lsr top) land 1);
        let hp = (hp lsl 1) lor 1 in
        vp := (hn lsl 1) lor lnot (d0 lor hp);
        vn := d0 land hp
      done;
      dist.(j) <- !d
    done
  end;
  dist

(* ------------------------------ measures ------------------------------- *)

(* [Stdlib.max] on floats, monomorphic. *)
let fmax (a : float) b = if a >= b then a else b

(* The float expressions below repeat Name_sim's operand for operand, over
   integer distances and trigram counts, so every result is bitwise equal
   to the reference measure. Every word has a trigram, so the Dice
   denominator is never 0. These two and [soft_set] below are inlined into
   the row loops so that no cell boxes a float: without the attributes a
   D7 table allocates about twice the minor words. *)
let[@inline] edit_of_distance la lb distance =
  if la = 0 && lb = 0 then 1.0 else 1.0 -. (float_of_int distance /. float_of_int (Int.max la lb))

let[@inline] dice_of_common la lb common total =
  if la = 0 && lb = 0 then 1.0 else 2.0 *. float_of_int common /. float_of_int total

(* Name_sim.token_similarity over token ids and
   Structure_sim.soft_set_similarity over label ids are one fold: each
   side's average best match against the other, symmetrized. [table]
   scores a-side ids (rows) against b-side ids. *)
let[@inline] soft_set (table : float array array) a b =
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

(* A row scores one source word against every target word in three
   passes: common trigram counts, edit distances, then the float
   expression per target into a flat row. The scratch is the row's own, so
   rows may run on any domain. *)

let token_row synonyms (target : side) index (a : word) =
  let targets = target.words in
  let common = common_counts index (Array.length targets) a and dist = distances a targets in
  let la = String.length a.low and ga = Array.length a.grams in
  let row = Array.create_float (Array.length targets) in
  for j = 0 to Array.length targets - 1 do
    let b = targets.(j) in
    let lb = String.length b.low in
    row.(j) <-
      (if String.equal a.low b.low then 1.0
       else
         fmax (edit_of_distance la lb dist.(j))
           (dice_of_common la lb common.(j) (ga + Array.length b.grams)))
  done;
  (* a synonym scores 1: one lookup per source token *)
  Option.iter
    (fun tbl ->
      List.iter
        (fun s -> Option.iter (fun j -> row.(j) <- 1.0) (Hashtbl.find_opt target.token_ids s))
        (Name_sim.synonyms_of tbl a.low))
    synonyms;
  row

let label_row tokens index (texts : word array) (targets : label array) (a : label) =
  let common = common_counts index (Array.length texts) a.text and dist = distances a.text texts in
  let la = String.length a.text.low and ga = Array.length a.text.grams in
  let row = Array.create_float (Array.length texts) in
  for j = 0 to Array.length texts - 1 do
    let b = texts.(j) in
    let lb = String.length b.low in
    row.(j) <-
      (0.8 *. soft_set tokens a.tokens targets.(j).tokens)
      +. (0.1 *. dice_of_common la lb common.(j) (ga + Array.length b.grams))
      +. (0.1 *. edit_of_distance la lb dist.(j))
  done;
  row

let create ?(exec = Executor.sequential) ?synonyms sources targets =
  let source = intern_side sources and target = intern_side targets in
  let tokens = Array.map (token_row synonyms target (index target.words)) source.words in
  let texts = Array.map (fun b -> b.text) target.labels in
  let text_index = index texts in
  let table =
    (* lint: allow blocking-under-lock — runs under a catalog shard lock during register; the fan-out never blocks on the pool (try_lock or sequential fallback) and scoring is pure compute, so the hold is bounded by the table itself *)
    Executor.map_array exec (label_row tokens text_index texts target.labels) source.labels
  in
  { source; target; table }

let source_id t i = t.source.ids.(i)
let target_id t j = t.target.ids.(j)
let score t a b = t.table.(a).(b)
let soft_set_similarity t a b = soft_set t.table a b
