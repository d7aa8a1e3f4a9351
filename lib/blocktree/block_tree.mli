(** The block tree (Section III): a compact representation of a set of
    possible mappings.

    The tree mirrors the target schema; each node carries the c-blocks
    anchored there. Construction is the bottom-up post-order pass of
    Algorithms 1–2: leaf blocks come from grouping mappings by their
    correspondence for that element ([init_block]); non-leaf blocks combine
    one candidate block of the node with one c-block per child (Lemma 1),
    bounded by [max_b] created non-leaf blocks and [max_f] failed
    combination attempts. A hash table [H] maps target paths with at least
    one c-block to their node. The mapping-compression pass (Algorithm 1,
    Step 5), which replaces block correspondences inside mappings by block
    pointers, is not part of a build: query evaluation never reads it, so
    {!compress} runs it on demand for the storage accounting, {!validate}
    and {!compressed_corrs_of_mapping}.

    A tree is never patched. When a corpus' mapping set changes, the
    server's catalog keeps an unbuilt tree for the new set, and {!build}
    runs only when a forced Algorithm 4 plan or a caller of its
    [prepared] reads the tree. *)

type params = {
  tau : float;  (** confidence threshold τ — a c-block needs [≥ τ·|M|] mappings *)
  max_b : int;  (** MAX_B: cap on non-leaf c-blocks created *)
  max_f : int;  (** MAX_F: cap on failed block-combination attempts per node *)
}

val default_params : params
(** The paper's defaults: [tau = 0.2], [max_b = 500], [max_f = 500]. *)

val valid_tau : float -> bool
(** [tau] lies in (0, 1]. NaN does not. *)

type t

val build : ?params:params -> Uxsm_mapping.Mapping_set.t -> t
(** Algorithm 1, Steps 1–4: the node lists and [H]. Step 5 is
    {!compress}; [compress (build mset)] is the whole algorithm, which is
    what Figures 9(d)/(e) time. Raises [Invalid_argument] unless
    [valid_tau params.tau]. *)

val mapping_set : t -> Uxsm_mapping.Mapping_set.t

val threshold : t -> int
(** [⌈τ·|M|⌉] — the minimum mapping count of a c-block. *)

val blocks_at : t -> Uxsm_schema.Schema.element -> Block.t list
(** C-blocks anchored at a target element (the node's linked list). *)

val lookup_path : t -> string -> Uxsm_schema.Schema.element option
(** The hash table [H]: ['.']-joined target path → block-tree node, present
    only for nodes holding at least one c-block. *)

val all_blocks : t -> Block.t list
(** Every c-block, grouped by node in pre-order. *)

val n_blocks : t -> int

val block_sizes : t -> int list
(** Correspondence counts of all c-blocks (Figure 9(c)'s distribution). *)

val compress : t -> [ `Block of Block.t | `Corr of int * int ] list array
(** Mapping compression (Algorithm 1, Step 5), computed afresh on every
    call: entry [i] is mapping [i]'s compressed form. Nodes are visited
    in pre-order, and a block claims a mapping's correspondences when it
    holds the mapping and none of them is claimed yet, so the
    highest-anchored blocks win; the unclaimed correspondences follow as
    residuals. Bumps [blocktree.compression_claims] once per claim. *)

val storage_bytes : t -> int
(** Accounting for the compressed representation: block contents, hash
    table, and the compressed mappings (block pointers + residual
    correspondences), on the same cost model as
    {!Uxsm_mapping.Mapping_set.storage_bytes_naive}. Runs {!compress}. *)

val compression_ratio : t -> float
(** [1 - storage_bytes / storage_bytes_naive] (Figure 9(a)). Runs
    {!compress}. *)

val compressed_corrs_of_mapping : t -> int -> [ `Block of Block.t | `Corr of int * int ] list
(** The compressed form of mapping [i] ([(compress t).(i)]): block
    pointers plus residual correspondences. Concatenating the block
    correspondences with the residuals reconstructs the mapping exactly
    (tested property). *)

val validate : t -> (unit, string) result
(** Check Definition 2 for every stored block, plus hash-table consistency
    and lossless mapping compression (running {!compress}). *)

val pp_stats : Format.formatter -> t -> unit
