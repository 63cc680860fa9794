(** Media-fault repair and reachability hooks backing the fastfair
    descriptors' [scrubbable] capability.

    Registered with {!Ff_index.Registry.register_scrub} for
    ["fastfair"], ["fastfair-logged"] and ["fastfair-leaflock"] at
    module-initialization time ([-linkall]).  All inspection is done
    with uncharged peeks so a damaged device can be examined without
    raising {!Ff_pmem.Arena.Media_error}; all repairs are ordinary
    charged stores (which clear line poison) followed by flushes.

    Repair policy: split-log lines are zeroed (an invalid log is the
    safe state); poisoned leaf record lines are quarantined and the
    surviving records compacted; a poisoned leaf header is re-derived
    from the parent level when the inner levels are sound; any
    poisoned inner node triggers a rebuild of all routing levels from
    the leaf chain — inner nodes carry no primary data, so they can be
    re-derived whenever the chain is walkable.  A poisoned inner
    header (the root's included) loses only its leftmost child
    pointer: the clean record lines still name the other children, and
    the leftmost one is the node whose sibling pointer names the first
    of them.  Abandoned inner nodes
    are zeroed and left for leak reclamation. *)

val provider :
  ?split_policy:Tree.split_policy ->
  unit ->
  Ff_index.Descriptor.config ->
  Ff_pmem.Arena.t ->
  Ff_index.Descriptor.scrub_ops
(** Build scrub hooks bound to the persisted tree instance described
    by the config (node size, root slot).  Exposed for composite
    descriptors (e.g. the sharding layer) that wrap per-shard hooks. *)
