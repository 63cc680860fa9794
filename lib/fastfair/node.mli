(** Node-level FAST operations (paper Section 3.1, Algorithm 1) and
    lock-free node search (Section IV, Algorithm 3).

    Every mutation is a sequence of 8-byte stores ordered by
    [fence_if_not_tso] and cache-line-boundary flushes such that {b any
    store prefix} leaves the node in a state read operations tolerate:
    a key is valid only when its left-hand and right-hand pointers
    differ, so the transient duplicate created by a shift is invisible.

    Invariant maintained by all mutations: record slots at positions
    >= count have a zero pointer.  Right-to-left scans (used while a
    delete is shifting left) rely on it instead of a count hint, so
    they are safe even against arbitrarily stale post-crash metadata.

    Mutating entry points assume the caller holds the node's write
    lock (the tree layer's job); reads never lock. *)

type search_mode = Linear | Binary

val init :
  Ff_pmem.Arena.t -> Layout.t -> Layout.node -> level:int -> leftmost:int -> low:int -> unit
(** Initialize a freshly allocated node.  [leftmost = 0] on a leaf
    installs the self-anchor (see {!Layout}); [low] is the node's
    range lower bound (its split separator; 0 for a root).  Does not
    flush; callers flush the whole node before linking it. *)

val count : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> int
(** Charged scan for the first zero pointer. *)

val first_entry : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> (int * int) option
(** Leftmost valid (key, ptr), skipping transient garbage. *)

val last_entry : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> (int * int) option

val find_exact : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> int -> int option
(** Position of the valid entry holding exactly this key (writer-side;
    assumes the lock is held so no direction juggling is needed). *)

val search :
  Ff_pmem.Arena.t ->
  Layout.t ->
  Layout.node ->
  mode:search_mode ->
  ?tr:Ff_trace.Trace.t ->
  int ->
  int option
(** Lock-free search of one node (Algorithm 3): direction chosen by
    the switch counter's parity, validity by the duplicate-pointer
    rule, re-scan if the counter moved.  Returns the value.  [tr]
    records each duplicate-adjacent-pointer skip (the paper's
    tolerated transient inconsistency); defaults to the null tracer. *)

val route :
  Ff_pmem.Arena.t ->
  Layout.t ->
  Layout.node ->
  mode:search_mode ->
  ?tr:Ff_trace.Trace.t ->
  int ->
  int * bool
(** Lock-free routing in an internal node: the child covering [key]
    ([leftmost_ptr] when the key precedes all entries), and whether
    the scan found no valid entry greater than [key] — only then can
    a split have moved the key's range to the sibling.  [tr] as in
    {!search}. *)

val insert_nonfull :
  Ff_pmem.Arena.t -> Layout.t -> Layout.node -> key:int -> value:int -> mode:search_mode -> unit
(** FAST insertion (Algorithm 1).  Preconditions: lock held, key not
    present, [count < capacity].  Every intermediate store leaves the
    node endurable. *)

val remove_at : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> int -> unit
(** FAST left-shift removal of the record at a position (used by
    delete and by lazy recovery's garbage compaction). *)

val delete : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> int -> bool
(** Find and remove a key; flips the switch counter to odd first so
    concurrent lock-free readers scan right-to-left. *)

val update_value : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> pos:int -> value:int -> unit
(** Atomic in-place value replacement (8-byte store + flush). *)

val truncate_from : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> int -> unit
(** Zero record pointers from the top down to the given position
    inclusive — the FAIR split's in-place truncation of the donor
    node.  Every prefix of the store sequence only shrinks the node's
    visible suffix, so readers and crashes are safe. *)

val writer_fix : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> bool
(** Lazy recovery (Section 4.2): compact duplicate-pointer garbage and
    left-of-equal-key stale entries left by a crash; refresh the count
    hint.  Returns true if anything was repaired.  Lock held. *)

val entries_debug : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> (int * int) list
(** Uncharged dump of valid entries (tests and checkers). *)

(** {1 Negative control (ablation)} *)

val insert_nonfull_unordered :
  Ff_pmem.Arena.t -> Layout.t -> Layout.node -> key:int -> value:int -> unit
(** The naive shift the paper's discipline replaces: keys written
    before pointers, no fences, no boundary flushes, one final flush.
    Exists solely so tests and the [ablation] bench can demonstrate
    that without FAST's ordering, crash states and concurrent reads
    observe corruption.  Never use it for real data. *)
