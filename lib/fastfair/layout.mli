(** Persistent node layout of the FAST+FAIR B+-tree.

    A node occupies [node_words] contiguous words (line-aligned).  The
    first cache line is the header; records follow as (key, ptr) word
    pairs, mirroring the paper's node of Figure 1:

    {v
    word 0  level           0 for leaves
    word 1  sibling_ptr     B-link right sibling (0 = none)
    word 2  switch_counter  even: last op was insert; odd: delete
    word 3  leftmost_ptr    internal: child for key < records[0].key
                            leaf: the node's own address (anchor)
    word 4  count           volatile entry-count hint (recomputed on
                            recovery; never relied upon for safety)
    word 5  low key         inclusive lower bound of the key range
    word 6..7               reserved
    word 8+2i   records[i].key
    word 9+2i   records[i].ptr   0 terminates the record array
    v}

    The {e anchor}: the paper's validity rule compares a key's left and
    right pointers, where the left pointer of records[0] is
    [leftmost_ptr].  The released C++ implementation leaves leaf
    [leftmost_ptr] NULL, so a left-shifted duplicate at position 0
    momentarily terminates scans.  We instead anchor leaf
    [leftmost_ptr] to the node's own address — a unique non-null
    pointer that can never equal a record pointer — so position-0
    duplicates are detected by exactly the same rule as everywhere
    else.  DESIGN.md discusses this deviation. *)

type t = private {
  node_words : int;  (** node size in words (node bytes / 8) *)
  capacity : int;    (** maximum number of records *)
}

val make : node_bytes:int -> t
(** [make ~node_bytes] for a power-of-two node size >= 128 bytes. *)

val header_words : int

(** {1 Field offsets} *)

val off_level : int
val off_sibling : int
val off_switch : int
val off_leftmost : int
val off_count : int
val off_low : int

val key_off : int -> int
(** Word offset of records[i].key within the node. *)

val ptr_off : int -> int
(** Word offset of records[i].ptr within the node. *)

(** {1 Charged field accessors} *)

type node = int
(** A node's base address in the arena. *)

val level : Ff_pmem.Arena.t -> node -> int
val sibling : Ff_pmem.Arena.t -> node -> int
val switch : Ff_pmem.Arena.t -> node -> int
val leftmost : Ff_pmem.Arena.t -> node -> int
val count_hint : Ff_pmem.Arena.t -> node -> int

val low : Ff_pmem.Arena.t -> node -> int
(** Inclusive lower bound of the node's key range: the separator it
    was split off with (0 for an original root).  A B-link node's
    range cannot be derived from its first entry — after an internal
    split the promoted separator is below the sibling's first key —
    so move-right decisions use this persisted bound.  The released
    C++ implementation compares the sibling's first key instead, which
    loses separator-gap keys under concurrency (see DESIGN.md). *)

val key : Ff_pmem.Arena.t -> node -> int -> int
val ptr : Ff_pmem.Arena.t -> node -> int -> int

val set_level : Ff_pmem.Arena.t -> node -> int -> unit
val set_sibling : Ff_pmem.Arena.t -> node -> int -> unit
val set_switch : Ff_pmem.Arena.t -> node -> int -> unit
val set_leftmost : Ff_pmem.Arena.t -> node -> int -> unit
val set_count_hint : Ff_pmem.Arena.t -> node -> int -> unit
val set_low : Ff_pmem.Arena.t -> node -> int -> unit
val set_key : Ff_pmem.Arena.t -> node -> int -> int -> unit
val set_ptr : Ff_pmem.Arena.t -> node -> int -> int -> unit

val is_leaf : Ff_pmem.Arena.t -> node -> bool

val left_ptr_of : Ff_pmem.Arena.t -> node -> int -> int
(** The "left-hand pointer" of records[i]: records[i-1].ptr, or
    [leftmost_ptr] for i = 0 (the validity-rule neighbour). *)
