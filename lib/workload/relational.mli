(** Relational schemas — the paper's final future-work item ("study the
    effectiveness of our mapping generation method in relational schemas").

    A relational schema is modeled as a two-level element tree
    (database → tables → columns), which is exactly the shape the matcher
    and the top-h generators consume; nothing else in the pipeline changes.
    Relational matchings are even sparser than XML ones (no nesting links
    tables together), so the partitioning algorithm's advantage is expected
    to persist — the [abl_relational] bench measures it. *)

val matching :
  ?seed:int -> ?tables:int -> ?columns:int -> unit -> Uxsm_mapping.Matching.t
(** Two synthetic relational schemas of [tables] tables (default 12) of up
    to [columns] columns (default 8), drawn from one business vocabulary and
    renamed through different synonym variants like the XML standards,
    matched with the context strategy. *)
