(** Name-based similarity measures, in the style of COMA++'s linguistic
    matchers: edit distance, character trigrams, and token-set similarity
    with synonym and abbreviation support. All similarities are in
    [\[0, 1\]].

    These are the per-call reference definitions. A matcher run scores
    labels through {!Name_table}, which interns them and computes each
    distinct pair once, bitwise equal to {!combined}. *)

val tokenize : string -> string list
(** Split an element name into lowercase tokens at underscores, hyphens,
    digit boundaries and camelCase humps:
    [tokenize "BuyerPartID" = \["buyer"; "part"; "id"\]]. *)

val levenshtein : string -> string -> int
(** Classic edit distance (insert/delete/substitute, unit costs). *)

val edit_similarity : string -> string -> float
(** [1 - levenshtein a b / max |a| |b|], case-insensitive; 1 for two empty
    strings. *)

val trigram_similarity : string -> string -> float
(** Dice coefficient over padded character trigrams, case-insensitive. *)

type synonyms

val synonyms : ?extra:(string * string) list -> unit -> synonyms
(** A synonym/abbreviation table seeded with common e-commerce vocabulary
    (buyer/customer, seller/supplier/vendor, order/purchase, id/identifier,
    ...) plus [extra] pairs. Symmetric and reflexive. *)

val synonyms_of : synonyms -> string -> string list
(** [synonyms_of tbl w]: the other words of [w]'s synonym class in [tbl],
    [\[\]] when [w] is in none. Two tokens are synonyms when they are
    equal or one is in the other's list. The table holds lowercase words,
    as {!tokenize} yields them, and is symmetric. *)

val token_similarity : ?synonyms:synonyms -> string -> string -> float
(** Soft token-set similarity: average over each side's tokens of the best
    counterpart score (synonym = 1, otherwise max of edit and trigram),
    symmetrized. This is the primary linguistic measure. *)

val combined : ?synonyms:synonyms -> string -> string -> float
(** Weighted combination of token (0.8), trigram (0.1) and edit (0.1)
    similarities — the default name matcher. Token similarity dominates so
    that synonym renamings across standards (DeliverTo / ShipTo) stay close
    to exact-name matches. *)
