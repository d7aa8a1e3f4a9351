type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ------------------------------ emitter --------------------------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The runtime's float formatter, bound as [Stdlib] binds it. [Printf]
   reaches the same C call with the same format string, but interprets
   its format on every call first. *)
external format_float : string -> float -> string = "caml_format_float"

let float_literal f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then format_float "%.1f" f
  else
    (* Shortest representation that round-trips. *)
    let s = format_float "%.15g" f in
    if float_of_string s = f then s else format_float "%.17g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> escape_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun k item ->
        if k > 0 then Buffer.add_char buf ',';
        emit buf item)
      items;
    Buffer.add_char buf ']'
  | Assoc fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun k (key, value) ->
        if k > 0 then Buffer.add_char buf ',';
        escape_string buf key;
        Buffer.add_char buf ':';
        emit buf value)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

(* ------------------------------ parser ---------------------------- *)

exception Parse_error of string

type cursor = {
  text : string;
  mutable pos : int;
}

let fail cur fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (Printf.sprintf "at offset %d: %s" cur.pos s))) fmt

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      go ()
    | _ -> ()
  in
  go ()

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | Some got -> fail cur "expected %C, found %C" c got
  | None -> fail cur "expected %C, found end of input" c

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.text && String.sub cur.text cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur "expected %s" word

(* Add code point [u] to [buf] as UTF-8. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
      advance cur;
      (match peek cur with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        if cur.pos + 4 >= String.length cur.text then fail cur "truncated \\u escape";
        let hex = String.sub cur.text (cur.pos + 1) 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some u ->
          cur.pos <- cur.pos + 4;
          add_utf8 buf u
        | None -> fail cur "bad \\u escape %S" hex)
      | Some c -> fail cur "bad escape \\%C" c
      | None -> fail cur "unterminated escape");
      advance cur;
      go ())
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  let rec go () =
    match peek cur with
    | Some ('0' .. '9' | '-' | '+') ->
      advance cur;
      go ()
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance cur;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub cur.text start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail cur "bad number %S" s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      (* Out of int range: fall back to float. *)
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail cur "bad number %S" s)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> String (parse_string cur)
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let items = ref [ parse_value cur ] in
      let rec go () =
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items := parse_value cur :: !items;
          go ()
        | Some ']' -> advance cur
        | _ -> fail cur "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance cur;
    let field () =
      skip_ws cur;
      let key = parse_string cur in
      skip_ws cur;
      expect cur ':';
      (key, parse_value cur)
    in
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Assoc []
    end
    else begin
      let fields = ref [ field () ] in
      let rec go () =
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields := field () :: !fields;
          go ()
        | Some '}' -> advance cur
        | _ -> fail cur "expected ',' or '}'"
      in
      go ();
      Assoc (List.rev !fields)
    end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur "unexpected character %C" c

let of_string text =
  let cur = { text; pos = 0 } in
  try
    let v = parse_value cur in
    skip_ws cur;
    match peek cur with
    | None -> Ok v
    | Some c -> Error (Printf.sprintf "at offset %d: trailing %C after value" cur.pos c)
  with Parse_error msg -> Error msg

(* ----------------------------- accessors -------------------------- *)

let member key = function
  | Assoc fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function
  | Int i -> Some i
  | _ -> None

let to_list = function
  | List l -> Some l
  | _ -> None

let to_assoc = function
  | Assoc a -> Some a
  | _ -> None

let to_string_opt = function
  | String s -> Some s
  | _ -> None
