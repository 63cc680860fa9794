(** Sharded serving layer: partitioned ensembles of registry indexes
    with batched group-flush execution and a merged range cursor.

    The layer composes any capability-qualified inner structure (it
    must be persistent, recoverable, range-scannable and honour
    [config.root_slot]) into an [N]-way partitioned index:

    - {b Serving mode} ({!create}): one arena per shard, a request
      scheduler ({!submit}) that enqueues point ops per shard and
      drains each queue as one batch under an {!Ff_pmem.Arena}
      group-flush scope — flush write-backs overlap and one fence per
      batch replaces one fence per op.
    - {b Composite mode} ({!descriptor}): all shards carved from a
      single arena (shard [i]'s inner root at slots [2i, 2i+1], the
      shard manifest at slots 58-60), so the ensemble registers in
      {!Ff_index.Registry}, persists, crash-sweeps and reloads exactly
      like a plain structure.  ["sharded-fastfair"] self-registers.

    Cross-shard [range] merges per-shard ascending slices through a
    stable k-way heap cursor, so results are globally ordered even
    when a scan straddles shard boundaries.  After {!power_fail},
    {!recover_parallel} reopens and recovers every shard on its own
    simulated thread ({!Ff_mcsim.Mcsim}). *)

module Partition : sig
  type t =
    | Hash of int  (** scrambled modulo over [n] shards *)
    | Range of int array
        (** [n-1] strictly ascending upper bounds; shard [i] owns keys
            below [bounds.(i)], the last shard owns the tail *)

  val hash : shards:int -> t
  val range : bounds:int array -> t
  val even_range : shards:int -> space:int -> t
  (** Equal-width range partition of the key space [\[1, space\]]. *)

  val shards : t -> int
  val shard_of : t -> int -> int
  (** Owning shard of a key. *)

  val overlapping : t -> lo:int -> hi:int -> int * int
  (** Inclusive shard-index interval a [\[lo, hi\]] scan must visit. *)

  val tag : t -> int
  (** Persisted policy tag: 0 = hash, 1 = range. *)

  val bounds : t -> int array
  (** Range bounds ([[||]] for hash). *)

  val span : t -> int -> int * int
  (** Inclusive key interval shard [i] owns (hash shards nominally own
      the whole key space). *)

  val split : t -> shard:int -> pivot:int -> t
  (** Range partitions only: insert [pivot] so position [shard] keeps
      keys below it and a new position [shard+1] owns the rest of the
      old span.  @raise Invalid_argument for hash partitions or a
      pivot outside the shard's span. *)

  val merge : t -> left:int -> t
  (** Range partitions only: drop the bound between [left] and
      [left+1], so [left] absorbs its right neighbour's span. *)
end

val key_space_hi : int
(** Upper end of the served key space ([2^60 - 1]). *)

type t

exception Degraded of { shard : int; addr : int; attempts : int }
(** A point operation kept hitting {!Ff_pmem.Arena.Media_error} at
    [addr] on [shard] after [attempts] tries (initial attempt plus
    bounded retries with exponential backoff in simulated time).  The
    shard stays marked degraded — sibling shards keep serving — until
    a {!recover} scrub pass comes back clean. *)

val max_shards : int
(** 28 — each shard owns two reserved root slots below the manifests. *)

val retry_limit : int
(** 3: the retries a point op gets after a
    {!Ff_pmem.Arena.Media_error} before it raises {!Degraded}. *)

(** {1 Construction} *)

val create :
  ?pm_config:Ff_pmem.Config.t ->
  ?words:int ->
  ?inner_config:Ff_index.Descriptor.config ->
  ?partition:Partition.t ->
  ?batch_cap:int ->
  ?group:bool ->
  ?tracer:Ff_trace.Trace.t ->
  inner:string ->
  shards:int ->
  unit ->
  t
(** Serving mode: one arena of [words] per shard, each holding a fresh
    inner instance built through the registry (so every shard arena
    carries its own root-slot manifest).  [partition] defaults to
    {!Partition.hash}; [group] (default true) runs scheduler batches
    under a group-flush scope.  A point op that raises
    {!Ff_pmem.Arena.Media_error} is retried up to {!retry_limit} times
    with jittered exponential backoff — each retry [n] waits
    [1000 lsl n] simulated ns plus a deterministic uniform draw of the
    same magnitude, so degraded shards do not retry in lockstep —
    before surfacing as {!Degraded}.
    @raise Invalid_argument if the inner structure lacks a required
    capability, or the partition disagrees with [shards]. *)

val attach :
  ?batch_cap:int ->
  ?group:bool ->
  ?tracer:Ff_trace.Trace.t ->
  ?config:Ff_index.Descriptor.config ->
  inner:string ->
  Ff_pmem.Arena.t ->
  t
(** Reattach to a single-arena composite image from its persisted
    shard manifest (count, policy tag, range bounds plus the
    position-to-root-slot map).  The caller runs {!recover} before
    relying on the contents. *)

val create_composite :
  ?batch_cap:int ->
  ?group:bool ->
  ?tracer:Ff_trace.Trace.t ->
  ?config:Ff_index.Descriptor.config ->
  inner:string ->
  partition:Partition.t ->
  Ff_pmem.Arena.t ->
  t
(** Build a single-arena composite with an explicit partition (the
    registered ["sharded-<inner>"] descriptor is fixed at 4 hash
    shards; elastic rebalancing wants range partitions of any
    width).  Persists the shard manifest like {!descriptor}'s
    [build]. *)

(** {1 Topology} *)

val shards : t -> int
val partition : t -> Partition.t
val group : t -> bool
val arenas : t -> Ff_pmem.Arena.t array
val shard_of_key : t -> int -> int
val multi : t -> bool
(** Serving mode (one arena per shard) vs single-arena composite. *)

val inner_descriptor : t -> Ff_index.Descriptor.t
val inner_config : t -> Ff_index.Descriptor.config
val tracer : t -> Ff_trace.Trace.t
val instance_ops : t -> int -> Ff_index.Intf.ops
(** Shard [i]'s current inner ops handle (tapped while a rebalance
    dual-write tap is installed). *)

val instance_arena : t -> int -> Ff_pmem.Arena.t
val instance_slot : t -> int -> int
(** Shard [i]'s composite root-slot id (the inner sits at slots
    [2*slot, 2*slot+1]); equals the build position in serving mode. *)

val shard_span : t -> int -> int * int
(** {!Partition.span} of the live partition. *)

val free_slot : t -> int
(** Smallest composite root-slot id no current shard occupies — where
    a split installs the new shard's inner.
    @raise Invalid_argument when all {!max_shards} slot pairs are
    taken. *)

(** {1 Elastic topology (rebalance primitives)}

    The mechanism {!Ff_rebalance.Rebalance} drives: a {e write tap}
    dual-applies point writes while a background copy runs, {!quiesce}
    provides the drained window a crash-atomic cutover commits in, and
    the {e splices} swap the volatile topology (the rebalancer
    persists it separately, sequenced around its decision word). *)

val quiesce : t -> (unit -> 'a) -> 'a
(** Run [f] with the ensemble quiesced: new mutations stall, mutations
    already past the write gate (point writes, bulk inserts, executing
    batches) are waited out, and the batch queues drain.
    Reads keep flowing.  The snapshot pin commits inside this same
    window. *)

val tap_writes : t -> shard:int -> (int -> int option -> unit) -> unit
(** Wrap shard [shard]'s ops handle so every applied point write —
    insert, update, delete, bulk insert, transactional install — also
    reaches the tap with the key and its new binding ([None] =
    deleted).  @raise Invalid_argument if already tapped. *)

val untap_writes : t -> shard:int -> unit
(** Restore the untapped handle; idempotent. *)

val tapped : t -> shard:int -> bool
(** Whether shard [shard]'s writes are tapped right now (uncharged). *)

val splice_split :
  t -> shard:int -> slot:int -> pivot:int -> ops:Ff_index.Intf.ops ->
  arena:Ff_pmem.Arena.t -> unit
(** Replace the volatile topology so position [shard] keeps keys below
    [pivot] and a new position [shard+1] (inner [ops] on [arena],
    composite root-slot id [slot]) owns the rest.  Queues must be
    drained (call inside {!quiesce}); the scheduler arrays are
    rebuilt. *)

val splice_merge : t -> left:int -> unit
(** Drop position [left+1]; [left] absorbs its span (the data must
    already have been copied in). *)

val splice_replace :
  t -> shard:int -> ops:Ff_index.Intf.ops -> arena:Ff_pmem.Arena.t -> unit
(** Swap shard [shard]'s instance for a migrated replica. *)

val split_topology :
  Partition.t -> 'a array -> shard:int -> pivot:int -> 'a ->
  Partition.t * 'a array
(** The split edit, shared by {!splice_split} (over instances) and
    rebalance crash resolution (over a persisted slot map): the
    partition with [shard] split at [pivot], and the per-position
    array with the new element inserted at [shard + 1]. *)

val merge_topology :
  Partition.t -> 'a array -> left:int -> Partition.t * 'a array
(** The merge edit: [left] absorbs [left + 1]'s span, whose array
    element is dropped. *)

val ship_image :
  t -> shard:int -> freeze:(unit -> 'a) -> dst:Ff_pmem.Arena.t ->
  between:(int -> unit) -> 'a * Ff_index.Intf.ops * int
(** Ship shard [shard]'s whole arena image into the fresh [dst]
    through a relocatable {!Ff_pmem.Segment}.  Inside one {!quiesce},
    run [freeze] and then drain and clone the source; outside it,
    copy the clone chunk by chunk ([between] gets the cumulative words
    copied after each chunk, for throttling or transfer charges),
    attach, reopen through the copied registry manifest and recover.
    Returns [freeze]'s result, the reopened ops and the words shipped.
    Migration and replica resync both ship through here. *)

val persist_topology : t -> unit
(** Composite mode: rewrite the shard manifest (bounds, slot map,
    count) from the live topology.  No-op in serving mode, where
    topology is rebuilt at startup. *)

val manifest_slots : int list
(** Reserved root slots the shard manifest occupies (58-60), for the
    slot-map audit. *)

val read_manifest : Ff_pmem.Arena.t -> Partition.t * int array
(** Decode a composite arena's persisted shard manifest: the partition
    and the position-to-root-slot map.  Arena-level (no ensemble
    handle needed) so rebalance crash resolution can inspect the
    pre-crash topology. *)

val roll_forward_manifest :
  Ff_pmem.Arena.t -> count:int ->
  (Partition.t -> int array -> Partition.t * int array) -> bool
(** Crash resolution of a committed topology change: finish the
    manifest update the live cutover was making.  If the published
    bounds block is already sized for [count] shards, the update tore
    after it, and only the policy and count roots are rewritten;
    otherwise the old manifest is decoded, [edit] (a {!split_topology}
    or {!merge_topology}) derives the new one, and that is persisted
    (bounds block first, then the policy and count roots).  An
    undecodable old manifest is left as it is.  Returns [false],
    writing nothing, on an arena with no shard manifest (a serving
    arena). *)

(** {1 Routed operations} *)

val insert : t -> key:int -> value:int -> unit
val search : t -> int -> int option
val delete : t -> int -> bool
val update : t -> key:int -> value:int -> bool
(** Point ops route to the owning shard through the degradation guard:
    a {!Ff_pmem.Arena.Media_error} marks the shard degraded (bumping
    the [shard.degraded.shard<i>] metric once per episode), retries
    with exponential backoff, and raises {!Degraded} once the retry
    budget is exhausted.  Sibling shards are unaffected. *)

val bulk_insert : t -> (int * int) array -> unit

val range : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** Globally ordered scan across all overlapping shards (k-way merged
    cursor; emits one [merge] trace instant). *)

(** {1 Batched scheduler} *)

val submit : t -> Ff_workload.Workload.op array -> int
(** Run a trace shard-by-shard.  Writes enqueue on their shard; a
    shard's queue drains as one batch once [batch_cap] ops have been
    routed to the shard since its oldest queued op (and at the end of
    the call).  A [Search] whose key has no queued op on its shard
    skips the queue: it runs at once, outside any batch and fence, and
    its latency is its own service time; it still counts toward the
    queue's [batch_cap], so batch boundaries do not depend on how many
    reads skipped.  A [Search] whose key has a queued op joins the
    batch.  Within a batch, ops are stably sorted by key — same-key
    order is preserved and distinct point ops commute, so the returned
    checksum equals sequential {!Ff_workload.Workload.run_trace}.
    [Range] ops are scheduling barriers: all queues drain first, then
    the merged cursor runs.  Each batch emits a [batch] trace instant.
    Every op bumps the per-shard [shard.ops.shard<i>] metric once, on
    its own shard — a [Range] on the shard of its low key. *)

val drain_queues : t -> int
(** Force-drain every pending queue; returns the checksum sum. *)

(** {1 Cross-shard consistent snapshots}

    Serving-mode ensembles over a snapshottable inner (e.g.
    ["snap-fastfair"]) can pin {e all} shards at one global epoch.
    {!snapshot_begin} runs a two-phase protocol: stall writers, drain
    the batch queues, have every shard publish the agreed epoch [g]
    through its own crash-atomic epoch cell, then persist [g] in the
    coordinator's decision word (shard 0's arena, root slot 65).
    After a crash, a global snapshot [g] is valid iff
    [snapshot_decision t >= g]. *)

val snapshot_begin : t -> int
(** Pin every shard at one freshly published global epoch and return
    it.  @raise Invalid_argument for single-arena ensembles or a
    non-snapshottable inner. *)

val snapshot_decision : t -> int
(** The coordinator's persisted decision word — the largest global
    epoch whose 2PC completed; [0] when none ever did. *)

val read_at : t -> epoch:int -> int -> int option
(** Point read as of a pinned global epoch, routed like [find]. *)

val range_at : t -> epoch:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** Ascending merged scan of [\[lo, hi\]] as of a pinned global epoch
    — same stable k-way heap merge as {!range}. *)

val gc_before : t -> int -> int
(** Reclaim version records below [epoch] on every shard; returns
    total freed lines. *)

(** {1 Statistics} *)

val occupancy : t -> int array
(** Keys resident per shard (by full-range count). *)

val imbalance : t -> int * float
(** [(max, mean)] of {!occupancy} — max/mean is the skew factor. *)

val routed : t -> int array
(** Ops routed to each shard since construction. *)

val batches : t -> int
val latency : t -> int -> Ff_util.Histogram.t
(** Per-op simulated-ns latency histogram of one shard's batches. *)

val merged_latency : t -> Ff_util.Histogram.t
(** All shards' latency histograms merged
    ({!Ff_util.Histogram.merge}). *)

val healthy : t -> bool array
(** Per-shard health: [false] once a media error degraded the shard,
    [true] again after a clean {!recover} scrub re-admits it. *)

val degraded_stats : t -> (int * int * int) array
(** Per-shard [(media_errors, retries, rejected)]: raw media-error
    hits, backoff retries taken, and ops rejected with {!Degraded}. *)

val scrub_reports : t -> Ff_scrub.Scrub.report list
(** Reports from the most recent {!recover} — one per shard in
    serving mode, one composite report in single-arena mode; [[]] if
    recovery never ran or the inner structure is not scrubbable. *)

(** {1 Crash and recovery} *)

val close : t -> unit

val power_fail : t -> Ff_pmem.Storelog.crash_mode -> unit
(** Drain pending queues, then crash every shard arena (one arena in
    composite mode). *)

val recover : t -> unit
(** Sequentially reopen ([open_existing]) and recover every shard.
    When the inner structure is scrubbable, each shard instead gets a
    full {!Ff_scrub.Scrub.run} pass (media repair, recovery,
    validation, leak reclamation) and is re-admitted — marked healthy
    — only if its report came back clean; in single-arena mode one
    composite scrub (provider ["sharded-<inner>"]) covers all shards
    plus the partition metadata.  Reports land in {!scrub_reports}.
    Recovery reopens the inner structures only: a transaction log in a
    shard arena is left to whoever runs [Ff_tx.Tx.recover] on it. *)

val recover_parallel : ?cores:int -> t -> Ff_mcsim.Mcsim.outcome
(** Recover every shard on its own simulated thread; the outcome's
    makespan is the parallel recovery time.  [cores] defaults to the
    shard count.  Like {!recover}, it resolves no transaction log. *)

(** {1 Registry composition} *)

val descriptor :
  ?policy:[ `Hash | `Range of int array ] ->
  inner:string ->
  shards:int ->
  unit ->
  Ff_index.Descriptor.t
(** Composite descriptor ["sharded-<inner>"] over a registered inner
    structure: [build] carves one arena into [shards] instances and
    persists the shard manifest; [open_existing] reattaches from it.
    The composite keeps the inner capabilities but clears
    [relocatable_root] (composites cannot be nested).
    @raise Invalid_argument if the inner structure lacks persistence,
    recovery, range scans or a relocatable root. *)
