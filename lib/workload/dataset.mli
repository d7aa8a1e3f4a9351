(** The ten schema-matching datasets of Table II.

    Each dataset is a (source style, target style, COMA++ option, capacity)
    tuple; {!matching} generates both schemas and runs the matcher tuned to
    the paper's correspondence count. The paper's measured o-ratios are
    carried for comparison in the experiment reports. *)

type t = {
  id : string;  (** "D1" .. "D10" *)
  source : Standards.style;
  target : Standards.style;
  strategy : Uxsm_matcher.Coma.strategy;  (** Table II's "opt": c / f *)
  capacity : int;  (** Table II's "Cap." *)
  paper_o_ratio : float;  (** Table II's measured o-ratio *)
}

val all : t list
(** D1..D10 in order. *)

val find : string -> t option

val d7 : t
(** The paper's default analysis dataset (XCBL → Apertum, capacity 226). *)

val default_seed : int
(** 42 — the schema-generation seed of every dataset unless a caller picks
    another. *)

val matching : ?seed:int -> ?exec:Uxsm_exec.Executor.t -> t -> Uxsm_mapping.Matching.t
(** Generate the dataset's matching (memoized per [(id, seed)] — schema
    generation is cheap but XCBL-sized matcher runs are not). [exec]
    (default sequential) parallelizes the matcher's pair scoring; it is not
    part of the cache key because every backend yields identical results. *)

val mapping_set :
  ?seed:int ->
  ?method_:Uxsm_mapping.Mapping_set.method_ ->
  ?exec:Uxsm_exec.Executor.t ->
  h:int ->
  t ->
  Uxsm_mapping.Mapping_set.t
(** The dataset's top-h possible mappings (memoized like {!matching},
    [exec] likewise excluded from the key). *)
