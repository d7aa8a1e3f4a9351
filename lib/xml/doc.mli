(** Indexed XML documents.

    A [Doc.t] numbers the element nodes of a {!Tree.t} in pre-order and
    carries the region encoding [(pre, post, level)] used by structural joins
    (Al-Khalifa et al., ICDE 2002): node [a] is an ancestor of node [b] iff
    [pre a < pre b && post a > post b]. Text content is materialized per
    element for predicate evaluation. *)

type t

type node = int
(** Element-node identifier: the pre-order rank, in [\[0, size t)]. *)

val of_tree : Tree.t -> t
(** Index a tree. The root must be an element node. *)

val root : t -> node
val size : t -> int

val label : t -> node -> string
val parent : t -> node -> node option
val children : t -> node -> node list
val level : t -> node -> int
(** Depth; the root has level 0. *)

val subtree_end : t -> node -> int
(** Largest pre-order id inside the node's subtree; with the node id itself
    this forms the interval encoding used by structural joins:
    [is_ancestor t a b  <=>  a < b && b <= subtree_end t a]. *)

val text : t -> node -> string
(** Concatenated descendant text of the element. *)

val attrs : t -> node -> (string * string) list
(** The element's attributes, in document order. *)

val attr : t -> node -> string -> string option
(** One attribute's value. *)

val is_ancestor : t -> node -> node -> bool
(** [is_ancestor t a b] — strict ancestorship. *)

val is_parent : t -> node -> node -> bool
(** [is_parent t a b] — [a] is the parent of [b]. *)

val nodes_with_label : t -> string -> node list
(** All element nodes carrying the given tag name, in document order. *)

val nodes_with_path : t -> string -> node list
(** All element nodes whose root-to-node label path equals the given
    ['.']-joined path, in document order. For a document conforming to a
    schema, these are exactly the instances of the schema element with that
    path. *)

(** {2 Interned index}

    [of_tree] numbers the distinct root-to-node label paths in order of
    first occurrence and keeps, per tag name and per path, the array of its
    nodes in document order. The arrays are the document's own: callers
    must not mutate them. *)

val label_nodes : t -> string -> node array
(** [nodes_with_label] as an ascending array; empty for an absent tag. *)

val path_id : t -> node -> int
(** The id of the node's root-to-node label path: two nodes have the same
    id exactly when their paths are equal. *)

val find_path : t -> string -> int option
(** The id of a ['.']-joined label path, if some node has that path. *)

val path_nodes : t -> int -> node array
(** The nodes with the given path id, ascending. *)

val labels : t -> string list
(** Distinct tag names occurring in the document, sorted. *)

val subtree : t -> node -> Tree.t
(** Re-extract the subtree rooted at a node as a plain tree. *)

val path : t -> node -> string list
(** Root-to-node label path, e.g. [\["Order"; "DeliverTo"; "City"\]]. *)
