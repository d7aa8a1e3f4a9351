(** Twig pattern matching over indexed documents.

    A match binds every pattern node to a document element such that labels
    and text predicates hold and the structural relationships ([/], [//])
    are satisfied (the paper's Section IV-A definition). The engine is a
    memoized top-down enumerator over the document's interned index
    ({!Uxsm_xml.Doc.path_nodes}, {!Uxsm_xml.Doc.label_nodes}): anchors are
    compared as path ids, and a step's candidates are the slice of the
    child's pool (the nodes of its anchor's path, else of its label)
    inside the bound node's subtree interval. It is the [match(d, q_S)]
    primitive of Algorithms 3–4 and the only twig engine: join-plan and
    holistic (TwigList) engines were measured behind the rewrite path and
    did not beat it (EXPERIMENTS.md, fig9f). *)

val matches : Pattern.t -> Uxsm_xml.Doc.t -> Binding.t list
(** All matches, in document order of the root binding (then lexicographic).
    With [Pattern.axis = Child] the root step binds only the document root;
    with [Descendant] it binds any element with the right label. *)

val count : Pattern.t -> Uxsm_xml.Doc.t -> int
(** Number of matches. *)
