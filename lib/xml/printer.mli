(** Serialization of {!Tree.t} back to XML text. *)

val to_string : ?indent:int -> Tree.t -> string
(** Serialize a tree. With [indent] (spaces per level), element-only content
    is pretty-printed; mixed content is kept inline so that a parse/print
    round-trip preserves text exactly. Default: compact (no indentation). *)

val pp : Format.formatter -> Tree.t -> unit
(** Pretty-printer with 2-space indentation, for debugging and tests. *)
