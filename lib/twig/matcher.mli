(** Twig pattern matching over indexed documents.

    A match binds every pattern node to a document element such that labels
    and text predicates hold and the structural relationships ([/], [//])
    are satisfied (the paper's Section IV-A definition). The engine is a
    memoized top-down enumerator over the document's interned index
    ({!Uxsm_xml.Doc.path_nodes}, {!Uxsm_xml.Doc.label_nodes}): each pattern
    node's {e pool} is the nodes of its anchor's path, else of its label,
    and a step's candidates are the slice of the child's pool inside the
    bound node's subtree interval. It is the [match(d, q_S)] primitive of
    Algorithms 3–4 and the only twig engine: join-plan and holistic
    (TwigList) engines were measured behind the rewrite path and did not
    beat it (EXPERIMENTS.md, fig9f).

    A pattern node's matches at one pool node are kept as {e local}
    bindings over its subpattern's contiguous pre-order id range: a node's
    bindings are its branches' results multiplied out, one blit per branch.
    The memo is one array per pattern node, indexed by pool position, and
    only a node under an unanchored parent has one: a path's nodes are
    never nested, so under an anchored parent no node is asked for twice.
    At the root, local bindings are full bindings. *)

val matches : Pattern.t -> Uxsm_xml.Doc.t -> Binding.t list
(** All matches, strictly increasing by {!Binding.compare}: in document
    order of the root binding, then lexicographic. They come out in that
    order, with no sort. With [Pattern.axis = Child] the root step binds
    only the document root; with [Descendant] it binds any element with the
    right label. *)

val count : Pattern.t -> Uxsm_xml.Doc.t -> int
(** Number of matches. *)
