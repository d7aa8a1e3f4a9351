(** Twig patterns: small tree-shaped XPath queries with child ([/]) and
    descendant ([//]) axes, existence predicates ([\[./City\]]) and text
    equality predicates ([\[./City="HK"\]]).

    A node's [preds] and [next] links are semantically identical (every
    branch must match); they are kept apart only to preserve the original
    bracket syntax when printing. *)

type axis =
  | Child  (** [/] — parent-child *)
  | Descendant  (** [//] — ancestor-descendant (strict) *)

type node = {
  label : string;
      (** element name, or {!wildcard} ([*]) to match any element *)
  anchor : string option;
      (** optional schema anchor: when present, the node binds only document
          elements whose root-to-node label path equals this ['.']-joined
          path. Queries produced by rewriting through a mapping are anchored
          to the source elements the mapping names, which disambiguates
          repeated labels (a document conforming to the source schema has
          one path per schema element). The parser never sets it. *)
  value : string option;  (** text-equality predicate on this node *)
  attrs : (string * string) list;
      (** attribute-equality predicates ([\[@key="v"\]]), all must hold *)
  preds : (axis * node) list;  (** bracketed branches *)
  next : (axis * node) option;  (** main-path continuation *)
}

val wildcard : string
(** The wildcard label ["*"]. *)

val is_wildcard : node -> bool

type t = {
  axis : axis;
      (** axis of the root step relative to the document root: [Child] means
          the root step must bind the document's root element (an absolute
          path like [Order/...]); [Descendant] a [//...] query *)
  root : node;
}

val node :
  ?anchor:string ->
  ?value:string ->
  ?attrs:(string * string) list ->
  ?preds:(axis * node) list ->
  ?next:axis * node ->
  string ->
  node
val pattern : ?axis:axis -> node -> t

val branches : node -> (axis * node) list
(** [preds @ next] — all sub-branches, in syntax order. *)

val size : t -> int
(** Number of query nodes ([l] in Definition 4). *)

val labels : t -> string list
(** Labels of all query nodes, in pre-order. *)

val nodes : t -> node list
(** All query nodes in pre-order (the root first). *)

val to_string : t -> string
(** Render back to query syntax, e.g.
    ["Order\[./Buyer/Contact\]//BPID"]. *)

val equal : t -> t -> bool
