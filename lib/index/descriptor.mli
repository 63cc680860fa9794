(** Capability-typed index descriptors.

    A descriptor packages everything a driver needs to use an index
    structure generically: how to build a fresh instance on an arena,
    how to reattach to a persisted one, and a capability record that
    says which parts of the uniform {!Intf.ops} contract the structure
    actually honours (so harnesses can skip, not crash, on structures
    that e.g. cannot recover).  Structures register their descriptors
    in {!Registry} at module-initialization time. *)

type caps = {
  has_range : bool;      (** ordered range scans *)
  has_delete : bool;
  has_recovery : bool;   (** can be reopened and validated after an
                             arbitrary crash point *)
  is_persistent : bool;  (** contents survive {!Ff_pmem.Arena.power_fail}
                             and an image save/reload *)
  lock_modes : Locks.mode list;  (** supported driver lock modes *)
  lock_free_reads : bool;
      (** readers take no locks and tolerate concurrent writers
          (FAST+FAIR's central claim); the model checker and the
          suspended-reader interleaving tests require this to run
          readers unsynchronized against writers *)
  tunable_node_bytes : bool;     (** honours [config.node_bytes] *)
  relocatable_root : bool;
      (** honours [config.root_slot]: the structure confines its root
          metadata to slots [root_slot] and [root_slot + 1], so several
          instances can share one arena (the sharding layer's
          requirement for carving an arena into shards) *)
  scrubbable : bool;
      (** a {!scrub_ops} provider is registered for this structure
          (see {!Registry.register_scrub}): the post-crash scrubber can
          enumerate its reachable blocks, validate it, and repair or
          quarantine poisoned lines — the prerequisite for leak
          reclamation and media-fault recovery *)
  txnable : bool;
      (** the structure's {!Intf.ops} transaction hooks
          ([read_for_update] / [install]) are sound under the tx
          layer's protocols: [install] is idempotent and legal at
          recovery time (after [recover]), so [Ff_tx.Tx] can log,
          commit, roll back (re-installing each pre-image) and replay
          multi-key updates against it *)
  snapshottable : bool;
      (** the structure's {!Intf.ops} snapshot hooks ([snapshot_begin]
          / [read_at] / [range_at] / [gc_before]) implement MVCC epoch
          snapshots: [snapshot_begin] publishes a crash-atomic epoch
          and [read_at]/[range_at] read strictly as-of a published
          epoch while writers proceed (see [Ff_snapshot.Snapshot]) *)
}

(** {1 Scrub hooks}

    Structure-specific knowledge the generic scrubber ([Ff_scrub])
    needs: what is reachable, how to check it, and how to repair media
    damage.  The types live here (below every structure library in the
    dependency order) so repair modules can register providers through
    {!Registry.register_scrub} without the scrubber depending on any
    particular structure. *)

type scrub_repair = {
  repaired_lines : int list;
      (** poisoned lines whose contents were re-derived in full *)
  quarantined_lines : int list;
      (** poisoned lines dropped with data loss *)
  lost_records : int;
      (** best-effort count of records lost to quarantine *)
}

type scrub_ops = {
  scrub_grain : int;
      (** preferred reclamation block size in words (typically the node
          size); [0] means free each leaked gap as one block *)
  scrub_reachable : unit -> (int * int) list;
      (** every [(addr, words)] block reachable from the structure's
          roots, including auxiliary areas (e.g. a split log) *)
  scrub_repair : int list -> scrub_repair;
      (** repair or quarantine these poisoned lines (sorted ascending);
          lines the structure does not own are left untouched *)
  scrub_validate : unit -> string list;
      (** structural invariant violations, [[]] when sound *)
}

type config = {
  node_bytes : int option;
      (** node (or leaf) size in bytes; [None] = structure default.
          Ignored by structures with [tunable_node_bytes = false]. *)
  lock_mode : Locks.mode;
  root_slot : int;
      (** first reserved root slot this instance may use (default 0).
          Ignored by structures with [relocatable_root = false]. *)
}

val default_config : config
(** [{ node_bytes = None; lock_mode = Single; root_slot = 0 }] *)

type t = {
  name : string;             (** unique registry key *)
  summary : string;          (** one-line description *)
  caps : caps;
  composite : (string * int) option;
      (** [Some (inner, shards)] for composed descriptors (e.g. the
          sharded serving layer) — the inner structure's registry name
          and the shard count; [None] for plain structures *)
  build : config -> Ff_pmem.Arena.t -> Intf.ops;
      (** fresh instance on an empty region of the arena *)
  open_existing : config -> Ff_pmem.Arena.t -> Intf.ops;
      (** reattach to a persisted instance (after a crash or an image
          reload); the caller runs [ops.recover] before relying on it *)
}

val supports_lock_mode : t -> Locks.mode -> bool

val name_hash : string -> int
(** Stable positive hash of a descriptor name; persisted in the
    root-slot manifest (see {!Registry}). *)

val caps_line : t -> string
(** Human-readable capability summary. *)
