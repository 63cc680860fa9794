(** Bottom-up bulk loading.

    Builds the whole tree in private memory — leaves packed to a fill
    factor, internal levels stacked on top — and publishes it with a
    single failure-atomic root-slot store, so a crash anywhere before
    that store leaves the previous tree (or an empty root slot)
    intact.  Each node's record lines are written back as soon as the
    node is built; its header line, which still takes the low-bound
    relaxation and the sibling link, is written back once its level
    is chained, before the root-slot store.  Every line of every node
    is flushed exactly once.  Orders of magnitude fewer shifts and
    flushes than incremental insertion (see the [ablation] bench
    target). *)

val load :
  ?node_bytes:int ->
  ?root_slot:int ->
  Ff_pmem.Arena.t ->
  (int * int) array ->
  Tree.t
(** [load arena pairs] with strictly positive unique keys and nonzero
    unique values; pairs need not be sorted.  Leaf and internal nodes
    are packed to 85% occupancy.  @raise Invalid_argument on duplicate
    keys or invalid values. *)
