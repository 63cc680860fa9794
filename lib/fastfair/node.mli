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

type location =
  | Found of int  (** position of the valid entry holding the key *)
  | Absent of { pos : int; count : int }
      (** the key is not present: [pos] is the slot it would take (the
          first valid key greater than it, or [count]), [count] the
          node's count *)

val locate : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> int -> location
(** Writer-side probe for one key: the count hint, then keys left to
    right up to the first one not below the key, which is the key's
    slot or its insertion position.  Assumes the lock is held and the
    node clean (lazy recovery done), so the count hint is the count
    and every slot below it holds a valid entry. *)

val search :
  Ff_pmem.Arena.t ->
  Layout.t ->
  Layout.node ->
  mode:search_mode ->
  ?tr:Ff_trace.Trace.t ->
  int ->
  int option
(** Lock-free search of one node (Algorithm 3): direction chosen by
    the switch counter's parity, re-walk if the counter moved.  Left
    to right the walk reads keys only up to the first one not below
    the key (a key not above the previous one also costs its pointer,
    and a zero pointer ends the array); right to left it reads each
    slot's pointer, then its key.  Either way only the slot holding
    the key is checked, in the released code's order: the key, the
    left pointer, the slot's own pointer, the key again; the entry is
    valid only if the pointers differ and the key did not change.  The
    order matters: a FAST shift can land between a reader's loads at a
    slot, and a pointer read before the key, or carried over from the
    slot to the left, then pairs the shifted neighbour's value with
    the new key.  [tr] records each duplicate-pointer skip (the paper's
    tolerated transient inconsistency); defaults to the null tracer. *)

val route :
  Ff_pmem.Arena.t ->
  Layout.t ->
  Layout.node ->
  mode:search_mode ->
  ?tr:Ff_trace.Trace.t ->
  int ->
  int * int
(** Lock-free routing in an internal node: [(child, hi)], the child
    covering [key] ([leftmost_ptr] when the key precedes all entries)
    and the first valid key greater than [key], or 0 when the walk
    found none — only then can a split have moved the key's range to
    the sibling.  The walk is always left to right and reads no
    switch: an internal node's switch stays even.  It reads each
    slot's pointer, then its key; the checked slot is that first
    greater key, in {!search}'s order, and the child is the left
    pointer its check read, taken only if it equals the pointer of the
    last slot the walk passed (the leftmost pointer when none was);
    otherwise a separator was FAST-inserted behind the walk, its child
    may start above [key], and the walk starts again.  [Binary]
    routing reports [hi] = [max_int] unless the route ran off the
    end. *)

val next_above :
  Ff_pmem.Arena.t ->
  Layout.t ->
  Layout.node ->
  ?tr:Ff_trace.Trace.t ->
  int ->
  (int * int) option
(** The smallest valid (key, value) above the argument, left to right,
    checked as {!search} checks its key ([Cursor]'s step). *)

val insert_nonfull :
  Ff_pmem.Arena.t -> Layout.t -> Layout.node -> count:int -> key:int -> value:int -> unit
(** FAST insertion (Algorithm 1).  Preconditions: lock held, key not
    present, [count] is the node's count (as {!locate} or {!count}
    returned it) and [count < capacity].  Every intermediate store
    leaves the node endurable. *)

val remove_at : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> int -> unit
(** FAST left-shift removal of the record at a position (used by
    delete and by lazy recovery's garbage compaction).  The slots up
    to the position must hold nonzero pointers, as they do wherever a
    left-to-right scan found it; the count is read from there on. *)

val delete : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> int -> bool
(** Find and remove a key; flips the switch counter to odd first so
    concurrent lock-free readers scan right-to-left. *)

val update_value : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> pos:int -> value:int -> unit
(** Atomic in-place value replacement (8-byte store + flush). *)

val truncate_from : Ff_pmem.Arena.t -> Layout.t -> Layout.node -> count:int -> int -> unit
(** Zero record pointers from slot [count - 1] down to the given position
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
