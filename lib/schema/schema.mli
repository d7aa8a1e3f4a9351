(** XML schema trees.

    Following the paper, a schema is a rooted tree of named elements (the
    hierarchical element structure extracted from an XSD). Elements are
    identified by their pre-order rank. Each element additionally carries a
    [repeatable] flag (maxOccurs > 1), used by the document generator, and
    leaves carry an optional value kind used to synthesize text content. *)

type t

type element = int
(** Pre-order rank in [\[0, size t)]; the root is [0]. *)

(** Construction-time description of an element subtree. *)
type spec = {
  name : string;
  repeatable : bool;  (** may occur more than once in an instance *)
  children : spec list;
}

val spec : ?repeatable:bool -> string -> spec list -> spec

val check_names : spec -> (unit, string) result
(** [Error] naming the first element, in pre-order, whose name is empty or
    contains ['.']. Paths join names with ['.'] ({!path_string}), so such a
    name would give two elements one path, or split into the wrong
    ancestors. *)

val of_spec : spec -> t
(** Raises [Invalid_argument] when {!check_names} rejects the spec. *)

val root : t -> element
val size : t -> int

val label : t -> element -> string
val parent : t -> element -> element option
val children : t -> element -> element list
val level : t -> element -> int
val repeatable : t -> element -> bool
val is_leaf : t -> element -> bool

val subtree_size : t -> element -> int
(** Number of elements in the subtree rooted at the element, itself included. *)

val subtree_elements : t -> element -> element list
(** Pre-order list of the subtree's elements (the element itself first). *)

val is_ancestor : t -> element -> element -> bool
(** Strict ancestorship. *)

val max_fanout : t -> int

val height : t -> int
(** Longest root-to-leaf path, counted in edges. *)

val path : t -> element -> string list
(** Root-to-element label path: the labels of the element's ancestors,
    root first, then its own. *)

val path_string : t -> element -> string
(** [path t e] joined with ['.'], e.g. ["ORDER.IP.ICN"] — the hash key format
    used by the block tree. *)

val find_by_label : t -> string -> element list
(** Elements carrying the label, in document order. *)

val find_by_path : t -> string -> element option
(** Look up an element by its ['.']-joined path. *)

val elements : t -> element list
(** All elements in pre-order. *)

val leaves : t -> element list

val to_spec : t -> spec
(** Inverse of {!of_spec}. *)

val to_xml_tree : t -> Uxsm_xml.Tree.t
(** The schema's element hierarchy as an (empty) XML tree. Because both
    sides number nodes in pre-order, indexing this tree with
    {!Uxsm_xml.Doc.of_tree} yields document node ids equal to the schema's
    element ids — which is how twig patterns are resolved against a
    schema. *)

val equal : t -> t -> bool


val of_string : string -> (t, string) result
(** Parse the {!pp} format: each line is an element name indented by two
    spaces per depth, with an optional ["*"] suffix for repeatable.
    Names {!check_names} rejects are an [Error]. *)

val to_string : t -> string
