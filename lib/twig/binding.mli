(** Bindings: one match of a twig pattern in a document.

    Pattern nodes are numbered in pre-order ({!Pattern.nodes} order); a
    binding maps each pattern-node id to the document element it matched. *)

type t = int array
(** [t.(i)] is the document node bound to pattern node [i]. *)

val compare : t -> t -> int
(** [Stdlib.compare]'s order on int arrays, without the polymorphic walk:
    shorter bindings first, then lexicographic by entry. *)

val merge : t -> t -> t
(** Combine two bindings over disjoint pattern-node sets (entries are [-1]
    where unbound); raises [Invalid_argument] if both bind the same id. *)

val unbound : int -> t
(** [unbound l] — a fresh binding of size [l] with no assignments. *)

val pp : Format.formatter -> t -> unit
