(** Volatile B-link tree (Lehman & Yao) — the paper's concurrency
    reference in Figure 7.

    Purely DRAM-resident: nodes are OCaml records, and time is charged
    to the accounting arena as CPU work per visited node/probe.  Every
    visit — including reads — takes the node's mutex (the paper's
    implementation uses std::mutex, Section 5.7), which is what the
    paper contrasts against FAST+FAIR's lock-free search: under the
    multicore simulator the shared root lock becomes the scalability
    bottleneck.  Not failure-atomic by design (it is the "not a
    persistent index" baseline). *)

type t

val create : ?lock_mode:Ff_index.Locks.mode -> Ff_pmem.Arena.t -> t
(** Nodes hold up to 32 keys.  The arena is used only for cost
    accounting. *)

val insert : t -> key:int -> value:int -> unit
val search : t -> int -> int option
val delete : t -> int -> bool
val range : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
val ops : t -> Ff_index.Intf.ops
val height : t -> int
