(** Uncertainty metrics over a set of possible mappings.

    Quantifies {e how} uncertain a schema matching is, beyond the paper's
    o-ratio: distribution entropy, per-target ambiguity and the expected
    mapping size, as [uxsm analyze] reports them. *)

val entropy : Mapping_set.t -> float
(** Shannon entropy (bits) of the mapping probability distribution; 0 when
    one mapping holds all mass, [log2 |M|] when uniform. *)

val normalized_entropy : Mapping_set.t -> float
(** [entropy / log2 |M|], in [\[0, 1\]]; 0 for singleton sets. *)

val target_ambiguity : Mapping_set.t -> Uxsm_schema.Schema.element -> int
(** Number of distinct choices the mappings make for a target element:
    distinct corresponding source elements, plus one if some mapping leaves
    it unmapped. 1 means every mapping agrees; larger means contested. *)

val ambiguity_histogram : Mapping_set.t -> (int * int) list
(** [(ambiguity, how many target elements)] pairs, ascending, over target
    elements mapped by at least one mapping. *)

val expected_mapping_size : Mapping_set.t -> float
(** Probability-weighted mean number of correspondences per mapping. *)
