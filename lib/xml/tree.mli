(** Plain XML trees: the construction / interchange representation.

    A [Tree.t] is what the parser produces and the printer consumes. For
    query evaluation it is converted to the indexed {!Doc.t} form. *)

type t =
  | Element of element
  | Text of string

and element = {
  name : string;  (** tag name *)
  attrs : (string * string) list;  (** attributes in document order *)
  children : t list;  (** child nodes in document order *)
}

val element : ?attrs:(string * string) list -> string -> t list -> t
(** [element name children] builds an element node. *)

val text : string -> t
(** Text node. *)

val leaf : string -> string -> t
(** [leaf name value] is [element name [text value]]. *)

val name : t -> string
(** Tag name of an element; [Invalid_argument] on text nodes. *)

val node_count : t -> int
(** Number of element nodes in the tree (text nodes not counted). *)

val text_content : t -> string
(** Concatenation of all descendant text, in document order. *)

val equal : t -> t -> bool
(** Structural equality (attribute order significant). *)

