(** Persistent SkipList baseline (paper Section V, after the
    Log-Structured NVMM system's mapping index).

    Only the level-0 linked list lives in PM and is updated
    failure-atomically: a new node is fully written and flushed before
    the predecessor's next pointer is swung with a single 8-byte store
    + flush.  The probabilistic upper levels are volatile and rebuilt
    on recovery by walking the level-0 list.

    Each entry is its own cache line, so searches chase random
    pointers with no memory-level parallelism — the cache-locality
    weakness the paper's Figures 4 and 5 exhibit. *)

type t

val create : ?root_slot:int -> ?seed:int -> Ff_pmem.Arena.t -> t
val open_existing : ?root_slot:int -> ?seed:int -> Ff_pmem.Arena.t -> t
(** Reattach after a crash; call {!recover} to rebuild the index. *)

val insert : t -> key:int -> value:int -> unit
val search : t -> int -> int option
val delete : t -> int -> bool
val range : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit

val recover : t -> unit
(** Rebuild the volatile upper levels from the persistent level-0
    list. *)

val length : t -> int
val ops : t -> Ff_index.Intf.ops

val lock : t -> Ff_index.Locks.mutex
(** Single global writer lock used by the concurrent driver (readers
    are lock-free, as in the paper). *)

