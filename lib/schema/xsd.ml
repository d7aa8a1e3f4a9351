module Tree = Uxsm_xml.Tree

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* Accept both prefixed (xs:element, xsd:element) and unprefixed names. *)
let local_name qname =
  match String.rindex_opt qname ':' with
  | Some i -> String.sub qname (i + 1) (String.length qname - i - 1)
  | None -> qname

let is_elem tag (t : Tree.t) =
  match t with
  | Tree.Element e -> String.equal (local_name e.name) tag
  | Tree.Text _ -> false

let children_named tag (e : Tree.element) =
  List.filter_map
    (function
      | Tree.Element c when String.equal (local_name c.name) tag -> Some c
      | Tree.Element _ | Tree.Text _ -> None)
    e.children

let attr name (e : Tree.element) =
  List.find_map (fun (k, v) -> if String.equal (local_name k) name then Some v else None) e.attrs

let repeatable_of e =
  match attr "maxOccurs" e with
  | Some "unbounded" -> true
  | Some n -> (
    match int_of_string_opt n with
    | Some k -> k > 1
    | None -> fail "invalid maxOccurs %S" n)
  | None -> false

(* Collect global element declarations by name for ref= resolution. *)
let globals_of_schema (schema : Tree.element) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (g : Tree.element) ->
      match attr "name" g with
      | Some n ->
        if Hashtbl.mem tbl n then fail "duplicate global element %S" n;
        Hashtbl.add tbl n g
      | None -> fail "global xs:element without a name")
    (children_named "element" schema);
  tbl

(* Translate one xs:element declaration into a Schema.spec, resolving refs
   against the global table and rejecting cycles. *)
let rec spec_of_element globals ~in_progress (e : Tree.element) : Schema.spec =
  match (attr "name" e, attr "ref" e) with
  | None, Some r -> (
    if List.mem r in_progress then fail "recursive element reference %S" r;
    match Hashtbl.find_opt globals r with
    | Some g ->
      let s = spec_of_element globals ~in_progress:(r :: in_progress) g in
      { s with Schema.repeatable = s.Schema.repeatable || repeatable_of e }
    | None -> fail "unresolved element reference %S" r)
  | Some name, _ ->
    let kids =
      List.concat_map
        (fun (ct : Tree.element) ->
          List.concat_map
            (fun group_tag ->
              List.concat_map
                (fun (grp : Tree.element) ->
                  List.map
                    (spec_of_element globals ~in_progress)
                    (children_named "element" grp))
                (children_named group_tag ct))
            [ "sequence"; "choice"; "all" ])
        (children_named "complexType" e)
    in
    Schema.spec ~repeatable:(repeatable_of e) name kids
  | None, None -> fail "xs:element needs name= or ref="

let of_xsd ?root tree =
  match tree with
  | Tree.Text _ -> Error "not an XML element"
  | Tree.Element schema_elem -> (
    if not (is_elem "schema" tree) then Error "root element is not xs:schema"
    else
      try
        let globals = globals_of_schema schema_elem in
        let chosen =
          match root with
          | Some name -> (
            match Hashtbl.find_opt globals name with
            | Some g -> g
            | None -> fail "no global element named %S" name)
          | None -> (
            match children_named "element" schema_elem with
            | g :: _ -> g
            | [] -> fail "xs:schema has no global element")
        in
        let spec = spec_of_element globals ~in_progress:[] chosen in
        Result.map (fun () -> Schema.of_spec spec) (Schema.check_names spec)
      with Bad msg -> Error msg)

let of_xsd_string ?root s =
  match Uxsm_xml.Parser.parse s with
  | Error e -> Error (Uxsm_xml.Parser.error_to_string e)
  | Ok tree -> of_xsd ?root tree

let rec element_of_spec (s : Schema.spec) : Tree.t =
  let attrs =
    ("name", s.Schema.name)
    :: (if s.Schema.repeatable then [ ("maxOccurs", "unbounded") ] else [])
  in
  let children =
    match s.Schema.children with
    | [] -> []
    | kids ->
      [
        Tree.element "xs:complexType"
          [ Tree.element "xs:sequence" (List.map element_of_spec kids) ];
      ]
  in
  Tree.element ~attrs "xs:element" children

let to_xsd schema =
  Tree.element
    ~attrs:[ ("xmlns:xs", "http://www.w3.org/2001/XMLSchema") ]
    "xs:schema"
    [ element_of_spec (Schema.to_spec schema) ]

let to_xsd_string schema = Uxsm_xml.Printer.to_string ~indent:2 (to_xsd schema)
