(** Structural invariant checker for quiesced trees (tests and the
    crash harness).  All reads are uncharged peeks.

    A "quiesced" tree has no in-flight operation and has been through
    recovery if it crashed; transient B-link states (untruncated
    donors, unattached siblings) are reported as violations. *)

val check : Tree.t -> string list
(** Returns human-readable violations; [[]] means the tree is sound:
    - per node: valid entries strictly ascending, no duplicate-pointer
      garbage, zero-terminated record array, accurate count hint;
    - leaf chain strictly ascending globally, all at level 0;
    - internal nodes: even switch, children (the leftmost one
      included) at level-1, separators route correctly, every
      level-chain node attached to its parent;
    - values unique tree-wide. *)

val check_exn : Tree.t -> unit
(** @raise Failure with the violation list if any. *)

val keys : Tree.t -> int list
(** All keys in leaf-chain order (uncharged). *)
