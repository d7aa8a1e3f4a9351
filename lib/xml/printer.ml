let escape gen s =
  if String.for_all (fun c -> gen c = None) s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match gen c with
        | Some rep -> Buffer.add_string buf rep
        | None -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let escape_text =
  escape (function
    | '&' -> Some "&amp;"
    | '<' -> Some "&lt;"
    | '>' -> Some "&gt;"
    | _ -> None)

let escape_attr =
  escape (function
    | '&' -> Some "&amp;"
    | '<' -> Some "&lt;"
    | '"' -> Some "&quot;"
    | _ -> None)

let add_attrs buf attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape_attr v);
      Buffer.add_char buf '"')
    attrs

let has_text_child children =
  List.exists
    (function
      | Tree.Text _ -> true
      | Tree.Element _ -> false)
    children

let to_buffer ?indent buf tree =
  let rec go depth t =
    match t with
    | Tree.Text s -> Buffer.add_string buf (escape_text s)
    | Tree.Element { name; attrs; children } ->
      let pad n =
        match indent with
        | Some w -> Buffer.add_string buf (String.make (n * w) ' ')
        | None -> ()
      in
      let newline () = if indent <> None then Buffer.add_char buf '\n' in
      pad depth;
      Buffer.add_char buf '<';
      Buffer.add_string buf name;
      add_attrs buf attrs;
      if children = [] then Buffer.add_string buf "/>"
      else if has_text_child children then begin
        (* Mixed or text content: keep inline to preserve whitespace. *)
        Buffer.add_char buf '>';
        List.iter go_inline children;
        Buffer.add_string buf "</";
        Buffer.add_string buf name;
        Buffer.add_char buf '>'
      end
      else begin
        Buffer.add_char buf '>';
        newline ();
        List.iter
          (fun c ->
            go (depth + 1) c;
            newline ())
          children;
        pad depth;
        Buffer.add_string buf "</";
        Buffer.add_string buf name;
        Buffer.add_char buf '>'
      end
  and go_inline t =
    match t with
    | Tree.Text s -> Buffer.add_string buf (escape_text s)
    | Tree.Element { name; attrs; children } ->
      Buffer.add_char buf '<';
      Buffer.add_string buf name;
      add_attrs buf attrs;
      if children = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        List.iter go_inline children;
        Buffer.add_string buf "</";
        Buffer.add_string buf name;
        Buffer.add_char buf '>'
      end
  in
  go 0 tree

let to_string ?indent tree =
  let buf = Buffer.create 256 in
  to_buffer ?indent buf tree;
  Buffer.contents buf

