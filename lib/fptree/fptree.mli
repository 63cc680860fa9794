(** FP-tree baseline (Oukid et al., SIGMOD'16): selective persistence.

    Leaf nodes live in PM with a liveness bitmap, one-byte key
    fingerprints (to probe at most one entry line per search on
    average), and unsorted entries; inner nodes live in volatile DRAM
    and are rebuilt from the leaf chain on recovery — which is exactly
    why the paper argues FP-tree is not instantly recoverable
    (Section V: "the reconstruction of internal nodes is not very
    different from the reconstruction of the whole index").

    Leaf splits are guarded by a small PM micro-log.  Concurrency
    follows the paper's TSX modelling: inner-node accesses are
    hardware transactions (atomic in the cooperative simulator, with a
    small CPU charge), writers take a per-leaf lock, readers validate
    a per-leaf version counter (seqlock) instead of locking. *)

type t

val create :
  ?leaf_bytes:int -> ?root_slot:int ->
  ?lock_mode:Ff_index.Locks.mode -> Ff_pmem.Arena.t -> t
(** Defaults: 1 KB leaves, root slot 6.  Volatile inner nodes hold up
    to 64 keys. *)

val open_existing :
  ?leaf_bytes:int -> ?root_slot:int ->
  ?lock_mode:Ff_index.Locks.mode -> Ff_pmem.Arena.t -> t
(** Reattach to a persisted image.  The volatile inner levels are
    rebuilt from the leaf chain immediately (a restart cost every
    reopen pays — the non-instant restart the paper criticizes); after
    a crash, {!recover} must still run before relying on the tree (it
    replays the leaf-split micro-log). *)

val insert : t -> key:int -> value:int -> unit
val search : t -> int -> int option
val delete : t -> int -> bool
val range : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit

val recover : t -> unit
(** Replay the leaf-split micro-log, then rebuild the inner levels
    from the (possibly repaired) leaf chain. *)

val ops : t -> Ff_index.Intf.ops
val height : t -> int
