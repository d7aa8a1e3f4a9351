(** Source-document generation: the reproduction of the paper's
    [Order.xml] (an XCBL sample with 3473 nodes).

    A document instantiates every schema element once, then adds extra
    copies of repeatable subtrees (order lines first, then single-node
    repeatable leaves for the remainder) until the element-node count
    reaches [target_nodes] exactly when possible. Leaf values are drawn by
    label heuristics (cities for [City], person names for [Name], numbers
    for ids/quantities/prices, ...), deterministically from the seed. *)

val default_seed : int
(** 7 — the seed of every generated source document unless a caller (a
    [register] request's ["doc_seed"]) picks another. *)

val generate :
  ?seed:int -> ?target_nodes:int -> Uxsm_schema.Schema.t -> Uxsm_xml.Doc.t
(** [generate schema] — default seed {!default_seed}, [target_nodes 3473]. When the
    schema has no repeatable elements, or the target is below the schema
    size, the single-instance document is returned. *)

val leaf_value : Uxsm_util.Prng.t -> string -> string
(** The value heuristic, exposed for tests and examples. *)
