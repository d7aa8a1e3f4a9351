(** Import/export of the XML Schema (XSD) subset the paper's model uses.

    The paper treats a schema as the hierarchical element structure
    extracted from an XSD. This module maps that subset both ways:

    - {!of_xsd_string} reads [xs:schema] documents with global and local element
      declarations, inline [xs:complexType]/[xs:sequence]/[xs:choice]/
      [xs:all] content, [ref=] references to global elements, and
      [maxOccurs] (["unbounded"] or > 1 becomes {!Schema.repeatable}).
      Attributes, simple-type details, namespaces other than the [xs:]
      prefix, and substitution groups are out of scope and ignored or
      rejected as noted.
    - {!to_xsd_string} writes a schema back as a single nested global
      element declaration; [of_xsd_string (to_xsd_string s)] equals [s]
      (a tested property).

    Recursive element references are rejected ({!Schema.t} is a finite
    tree, as in the paper). *)

val of_xsd_string : ?root:string -> string -> (Schema.t, string) result
(** [of_xsd_string text] parses an [xs:schema] document and interprets it.
    The tree of the global element named [root] (default: the first global
    element) becomes the schema. An element name that
    {!Schema.check_names} rejects (one containing ['.'], which XML allows
    but schema paths use as separator) is an [Error] naming it. *)

val to_xsd_string : Schema.t -> string
(** Render as an [xs:schema] document with one nested global element,
    pretty-printed. *)
