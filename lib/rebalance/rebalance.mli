(** Elastic resharding: live shard split, merge and cross-arena
    migration over a serving {!Ff_shard.Shard} ensemble.

    The rebalancer never stops reads.  A background copy ships the
    moved key span while the source keeps serving: reads stay routed
    to the source, and point writes are {e dual-applied} — the source
    applies them and a write tap appends them to a delta buffer that
    is replayed on the target at cutover.  The copy is throttled in
    simulated time ({!throttle}), so foreground latency degrades
    smoothly instead of stalling.

    Cutover is a crash-atomic commit sequenced around one root slot,
    the {e decision word} (slot 69): drain in-flight mutations
    ({!Ff_shard.Shard.quiesce}), replay the final delta, fence the
    target, flip the decision word to [Committed], splice the volatile
    topology and persist the new shard manifest.  A {e plan block}
    (slot 70) persisted before the decision word reaches [Preparing]
    describes the rebalance, so {!resolve} can finish or abort a
    half-done rebalance from the decision word alone after a crash —
    no acknowledged write is ever lost, which the [Rebalcheck] family
    sweeps crash points to verify. *)

(** {1 Root slots} *)

val slot_generation : int
(** 68 — monotonic rebalance generation counter. *)

val slot_decision : int
(** 69 — the decision word: [0] idle, [4g+1] preparing generation
    [g], [4g+2] committed generation [g].  One failure-atomic root
    store is the whole commit. *)

val slot_plan : int
(** 70 — pointer to the persisted plan block (kind, position, pivot,
    slot, moved span, new count). *)

val reserved_slots : int list
(** All of the above, for the slot-map audit. *)

(** {1 Protocol state} *)

type kind = Split | Merge | Migrate

type phase =
  | Idle
  | Preparing of int  (** copy/dual-write running for this generation *)
  | Committed of int  (** cutover committed; finish pending *)

val phase : Ff_pmem.Arena.t -> phase
(** Decode the decision word of a (possibly just-crashed) arena. *)

val generation : Ff_pmem.Arena.t -> int

(** {1 Crash resolution} *)

type resolution =
  | Resolved_idle       (** no rebalance was in flight *)
  | Resolved_aborted of kind
      (** a [Preparing] rebalance was rolled back: the source stays
          authoritative, partial target state is unpublished *)
  | Resolved_completed of kind
      (** a [Committed] split/merge was rolled forward: the new
          topology is promoted into the shard manifest *)
  | Resolved_migrated
      (** this arena's image was migrated away — the committed
          decision word is its permanent tombstone; mount the
          destination instead *)

val resolve : Ff_pmem.Arena.t -> resolution
(** Resolve a half-done rebalance from the decision word alone, before
    the ensemble reattaches (composite: call between
    {!Ff_pmem.Arena.power_fail} and {!Ff_shard.Shard.attach}).
    Idempotent: crashing inside [resolve] and running it again reaches
    the same state.  Aborts clear the prepared target's root slots;
    roll-forward promotes the committed topology via
    {!Ff_shard.Shard.write_manifest} (skipped if the live finish
    already persisted it). *)

(** {1 Throttling} *)

type throttle = {
  bytes_per_ms : int;
      (** background-copy budget in bytes per simulated millisecond;
          [0] disables throttling (copy at full speed) *)
  chunk_ops : int;  (** keys moved per throttle charge *)
}
(** Defaults to 64 KiB per simulated ms, 64 keys per chunk. *)

(** {1 Live rebalances}

    All three run against a live ensemble and are safe under
    concurrent traffic from other simulated threads.  They return a
    {!report} of what moved and how long the copy and the cutover
    window took in simulated time.  [scanned] observes the copy: it
    gets each key the copy reads from the source, then [max_int] once
    the copy has read the whole span (a migrate's image is read whole
    at the tap), so a writer can place a change where only the
    dual-write delta carries it.  Defaults to [ignore]. *)

type report = {
  r_kind : kind;
  r_generation : int;
  r_shard : int;          (** source position (split/migrate) or left *)
  r_moved_keys : int;     (** keys shipped by the background copy *)
  r_moved_words : int;    (** arena words shipped (migrate only) *)
  r_delta_replayed : int; (** dual-written records replayed at cutover *)
  r_cleaned_keys : int;   (** stale source keys deleted after cutover *)
  r_copy_ns : int;        (** background copy, simulated ns *)
  r_cutover_ns : int;     (** quiesced commit window, simulated ns *)
}

val split :
  ?throttle:throttle -> ?scanned:(int -> unit) -> ?dst:Ff_pmem.Arena.t ->
  Ff_shard.Shard.t ->
  shard:int -> pivot:int -> report
(** Split position [shard] at [pivot]: keys [>= pivot] move to a new
    shard at position [shard+1].  Composite mode carves the new shard
    from the same arena at the next free root-slot pair ([dst] must be
    absent); serving mode builds it on the caller-supplied fresh [dst]
    arena.  Range partitions only.
    @raise Invalid_argument on a hash partition, a pivot outside the
    shard's span, or a missing/superfluous [dst]. *)

val merge :
  ?throttle:throttle -> ?scanned:(int -> unit) -> Ff_shard.Shard.t ->
  left:int -> report
(** Merge position [left+1] into [left].  The right shard keeps
    serving (reads and dual-applied writes) while its span is copied
    into the left tree; cutover drops it from the topology.  The
    landing span in the left tree is cleaned first, so a merge retried
    after an aborted predecessor cannot resurrect stale keys. *)

val migrate :
  ?throttle:throttle -> ?scanned:(int -> unit) -> Ff_shard.Shard.t -> shard:int ->
  dst:Ff_pmem.Arena.t -> report
(** Serving mode only: ship shard [shard]'s whole arena image to the
    fresh [dst] arena through a relocatable {!Ff_pmem.Segment} —
    clone-freeze the source, chunk-copy at identity offsets, attach,
    reopen via the copied registry manifest, recover, replay the
    delta, and cut over.  The source arena permanently keeps its
    committed decision word as a tombstone naming it superseded. *)

(** {1 Fault injection (model checking)} *)

val mutant_drop_delta : bool ref
(** When set, cutover replays an empty delta buffer — every write
    dual-applied during the copy is silently dropped on the target.
    The [Rebalcheck] sweep must catch this as a lost acknowledged
    write; it proves the checker's oracle has teeth. *)
