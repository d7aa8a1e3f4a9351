(** Shared vocabulary for the synthetic e-commerce standards: canonical
    concept tokens, per-style synonym choices, and filler-subtree naming.
    Everything is deterministic given a {!Uxsm_util.Prng.t}. *)

type casing =
  | Camel  (** [BuyerPartID] *)
  | UpperSnake  (** [BUYER_PART_ID] *)
  | Lower  (** [buyerpartid] *)
  | LowerSnake  (** [buyer_part_id] *)

val render : casing -> string list -> string
(** Render canonical tokens under a casing convention. *)

val pick_synonym : variant:int -> string -> string
(** Deterministically pick the [variant]-th (mod availability) of a
    canonical token's known alternatives, itself first. The alternatives
    mirror the matcher's synonym table so that cross-style renamings stay
    discoverable. *)

val filler_tokens : ?slice:int -> Uxsm_util.Prng.t -> string list
(** 2–3 tokens for a filler element name, drawn from a 35-token window of a
    shared pool of business terms; windows of different [slice]s overlap
    partially, so filler occasionally — but not overwhelmingly — matches
    across styles. *)

val city_names : string array
val person_names : string array
val street_names : string array
val country_names : string array
val words : string array
(** Generic word pool for free-text leaf values. *)
