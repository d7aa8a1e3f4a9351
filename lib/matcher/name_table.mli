(** Interned name similarity for one matcher run.

    [create sources targets] interns both label arrays: per distinct label
    its lowercase form, its token ids after {!Name_sim}'s noise rule and
    its distinct trigram codes. It fills a dense token-pair table once, then
    scores every distinct (source, target) label pair once into a dense
    label-pair table. A row of either table scores one source word against
    every target word in three passes: common trigram counts from an
    inverted index of the target words' trigram codes, edit distances from
    one Myers loop over the target texts (Hyyrö's bit-parallel formulation
    for patterns of up to 63 bytes, {!Name_sim.levenshtein} beyond), then
    the scores into a flat float row.

    {b Exactness.} Distances and trigram counts are integers, and every
    float expression repeats {!Name_sim}'s operands in its order, so
    [score t (source_id t i) (target_id t j)] is bitwise equal to
    [Name_sim.combined ?synonyms sources.(i) targets.(j)] (a tested
    property).

    A table is read-only once built, so any number of domains may read it
    at once. *)

type t

val create :
  ?exec:Uxsm_exec.Executor.t -> ?synonyms:Name_sim.synonyms -> string array -> string array -> t
(** [exec] (default [Sequential]) fans the label-pair rows out; the
    table is identical for every backend. *)

val source_id : t -> int -> int
(** Label id of [sources.(i)]; equal labels share an id. *)

val target_id : t -> int -> int
(** Label id of [targets.(j)]. *)

val score : t -> int -> int -> float
(** Name similarity of a source label id and a target label id. *)

val soft_set_similarity : t -> int array -> int array -> float
(** {!Structure_sim.soft_set_similarity} with {!score} as the name
    measure, over source and target label ids (same folds, same order;
    the name measure is symmetric, so reading the (source, target) cell for
    the reference's reversed calls changes no value). *)
