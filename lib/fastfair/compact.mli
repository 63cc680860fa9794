(** Crash-safe in-place merging of underfull nodes — the rebalancing
    direction the paper sketches in Section 4.2 ("we check if the
    sibling node can be merged with its left node") but the released
    implementation never ships.  Deletes leave nodes underfull; this
    maintenance pass merges them with the same endurable-transient-
    inconsistency discipline as FAST/FAIR:

    + the donor's parent separator is FAST-deleted {e first}, so all
      top-down traffic routes through the left node and reaches the
      donor over the sibling chain;
    + entries migrate one at a time — FAST-insert into the left node
      (its commit makes the pair readable there), then FAST-delete
      from the donor; the transient duplicate is harmless because both
      copies carry the same value and scans deduplicate;
    + the donor is unlinked with a single failure-atomic sibling-
      pointer store, then freed;
    + an internal root left with zero separators is replaced by its
      only child (failure-atomic root-slot store), shrinking the tree.

    Every intermediate state is one the ordinary readers and the
    recovery pass already tolerate, so a crash anywhere mid-compaction
    needs no log.  The pass assumes a quiesced tree (no concurrent
    writers): it is a maintenance operation, not part of the
    concurrent protocol. *)

val compact : Tree.t -> int
(** Merge underfull sibling runs bottom-up and collapse the root while
    it has no separators.  Returns the number of nodes freed. *)
