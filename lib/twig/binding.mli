(** Bindings: one match of a twig pattern in a document.

    Pattern nodes are numbered in pre-order ({!Pattern.nodes} order); a
    binding maps each pattern-node id to the document element it matched. *)

type t = int array
(** [t.(i)] is the document node bound to pattern node [i]. *)

val compare : t -> t -> int
(** [Stdlib.compare]'s order on int arrays, without the polymorphic walk:
    shorter bindings first, then lexicographic by entry. *)

val sort_uniq : t list -> t list
(** [List.sort_uniq compare], except that a list already strictly increasing
    is returned as it is (the same list, physically), after one scan. *)

val merge : t -> t -> t
(** Combine two bindings over disjoint pattern-node sets (entries are [-1]
    where unbound); raises [Invalid_argument] if both bind the same id. *)

val unbound : int -> t
(** [unbound l] — a fresh binding of size [l] with no assignments. *)

val pp : Format.formatter -> t -> unit
