(** wB+-tree baseline (Chen & Jin, VLDB'15): slot-array + bitmap
    nodes, evaluated by the paper as its append-only comparator.

    Entries are written append-only into any free slot; a small sorted
    {e slot array} gives the logical order, and a {e bitmap} word
    commits both the entry liveness bits and a slot-array-valid bit
    with one failure-atomic 8-byte store.  An insert therefore costs
    at least four cache-line flushes (entry, bitmap-invalidate,
    slot-array, bitmap-commit), and node splits go through a PM redo
    log — the two costs FAST+FAIR removes.

    Single-threaded, as in the paper (Section 5.7 notes wB+-tree was
    not designed for concurrent queries).

    A sibling walk (descent, range scan, recovery, {!check}) that
    takes more steps than the arena has nodes has met a cycle, which
    only a damaged image can hold; it raises [Failure] instead of
    spinning. *)

type t

val create : ?node_bytes:int -> ?root_slot:int -> Ff_pmem.Arena.t -> t
(** Default node size 1 KB (the paper's setting: at most 64 entries
    per node).  Uses arena root slots [root_slot] (root pointer) and
    [root_slot + 1] (split-log pointer). *)

val open_existing : ?node_bytes:int -> ?root_slot:int -> Ff_pmem.Arena.t -> t

val insert : t -> key:int -> value:int -> unit
val search : t -> int -> int option
val delete : t -> int -> bool
val range : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit

val recover : t -> unit
(** Replay the split redo log if committed, rebuild any invalidated
    slot arrays, and re-attach dangling split siblings. *)

val ops : t -> Ff_index.Intf.ops
val height : t -> int
val check : t -> string list
(** Structural invariants on a quiesced tree (uncharged). *)
