(** The FAST+FAIR persistent B+-tree.

    Wraps the node-level FAST algorithms into a full index: B-link
    style descent over sibling pointers, FAIR in-place node splits
    (Algorithm 2), non-blocking lock-free reads, root growth, deletes,
    range scans, and both lazy (writer-driven, Section 4.2) and eager
    recovery.

    A full node is cut at its median, except a leaf whose previous
    insert landed one slot left of the new key's position: it is cut
    at that position, so an ascending run leaves its leaves full.  The
    tree remembers that previous insert in a volatile run hint, kept
    and dropped with the leaf finger (see {!to_leaf}); any cut keeps
    FAIR's store order, so readers and recovery cannot tell which was
    taken (DESIGN.md deviation 11).

    Keys are positive ints; values are nonzero ints and must be unique
    across the tree (the paper's record-pointer uniqueness, which the
    duplicate-pointer validity rule depends on).  [insert] of an
    existing key updates its value in place with a single
    failure-atomic 8-byte store. *)

type split_policy =
  | Fair    (** the paper's FAIR in-place rebalance *)
  | Logged  (** legacy logged split — the "FAST+Logging" baseline of
                Figure 5 *)

type t

val create :
  ?node_bytes:int ->
  ?mode:Node.search_mode ->
  ?split_policy:split_policy ->
  ?lock_mode:Ff_index.Locks.mode ->
  ?leaf_read_locks:bool ->
  ?root_slot:int ->
  Ff_pmem.Arena.t ->
  t
(** Build a fresh empty tree.  Defaults: 512-byte nodes (the paper's
    sweet spot), linear search, FAIR splits, single-threaded locks,
    lock-free reads.  [leaf_read_locks = true] selects the
    serializable FAST+FAIR+LeafLock variant of Section 4.1.
    [root_slot] is the arena root slot holding the root pointer. *)

val open_existing :
  ?node_bytes:int ->
  ?mode:Node.search_mode ->
  ?split_policy:split_policy ->
  ?lock_mode:Ff_index.Locks.mode ->
  ?leaf_read_locks:bool ->
  ?root_slot:int ->
  Ff_pmem.Arena.t ->
  t
(** Reattach to a persisted tree (e.g. after {!Ff_pmem.Arena.power_fail});
    the caller should then run {!recover}. *)

val arena : t -> Ff_pmem.Arena.t
val layout : t -> Layout.t
val root_slot : t -> int
val root : t -> Layout.node

val insert : t -> key:int -> value:int -> unit
val search : t -> int -> int option
val delete : t -> int -> bool

val to_leaf : t -> int -> Layout.node
(** The B-link descent every operation starts with: the leaf the
    route from the root reaches for the key.  Internal nodes move
    right only when their route scan finds no entry greater than the
    key; the leaf itself is never moved past, so a caller that misses
    must follow the sibling chain (as {!search} and {!range} do).

    The tree keeps a volatile leaf finger: the leaf the last descent
    reached, bounded below by its persisted low key and above by the
    separator its routes saw.  A key inside
    those bounds starts at that leaf with no descent.  A split of the
    finger leaf narrows the bounds; a sibling chase off it,
    {!recover} and {!drop_finger} clear it, and the run hint with
    it.  [Binary] mode never sets
    it. *)

val drop_finger : t -> unit
(** Forget the leaf finger and the run hint.  A pass that frees nodes
    behind the tree's back (such as {!Compact.compact}) must call
    it. *)

val range : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** Ascending leaf-chain scan over [lo, hi], deduplicating the
    transient repetitions a concurrent shift or an untruncated split
    donor can produce.  Unlike {!search} it does not re-read the
    entries it emits (that check costs a load per entry):
    it reads each slot's pointer before its key and compares it with
    the previous slot's, so a FAST shift racing the scan can pair a
    key with its neighbour's value (see ROADMAP.md). *)

val recover : ?lazy_:bool -> t -> unit
(** Post-crash normalization.  [lazy_ = true] (paper Section 4.2)
    defers repair to write threads: each node is fixed the first time
    a writer locks it, and a dangling sibling is re-attached to the
    parent by the next writer that reaches it through the sibling
    pointer.  Only an interrupted root growth is finished up front
    (O(1) loads): a writer that splits the root's dangling sibling
    would otherwise wait forever for the dead splitter to grow the
    root.  [lazy_ = false] (default) repairs everything eagerly:
    completes interrupted splits (truncation, parent insertion, root
    growth) and compacts duplicate-pointer garbage in every reachable
    node. *)

val ops : t -> Ff_index.Intf.ops
(** Uniform driver view. *)

val set_tracer : t -> Ff_trace.Trace.t -> unit
(** Attach an observability tracer (see {!Ff_trace.Trace}): tree
    operations become spans, splits / sibling chases / root grows /
    recovery fixes become counters, per-op latency and flush counts
    feed histograms, and lock-free readers record every
    duplicate-adjacent-pointer skip — the paper's tolerated transient
    inconsistency, made visible.  Defaults to {!Ff_trace.Trace.null},
    which costs one branch per site.  PM-level store/flush/fence
    events additionally require the tracer to be built with
    {!Ff_trace.Trace.for_arena}, which installs the arena sink. *)

val tracer : t -> Ff_trace.Trace.t

val height : t -> int
val reachable_nodes : t -> Layout.node list
(** All nodes reachable from the root (uncharged; checker/debug). *)

(**/**)

val cardinal : t -> int
(** Number of keys (leaf-chain walk; uncharged entry counting). *)
