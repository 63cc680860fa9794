(** Event tracing on the simulator's deterministic clock.

    A tracer owns one fixed-capacity ring buffer per simulated thread,
    allocated on that thread's first event (wraparound overwrites the
    oldest events), plus a {!Metrics} registry.  Every event carries a timestamp from the tracer's clock:
    inside {!Ff_mcsim.Mcsim.run} that is the global simulated time (so
    multicore traces align on one timeline); outside it falls back to
    the current thread's accumulated simulated nanoseconds.

    Tracing must never perturb what it measures: events are recorded
    with plain integer stores into the rings, no simulated
    time is charged, and every emitter is a no-op on a disabled tracer
    ({!null}) after a single field test.  Hot paths may therefore call
    these functions unconditionally. *)

type t

val null : t
(** The shared disabled tracer: {!enabled} is false, every emitter
    returns immediately, and its metrics registry is never written.
    Default value of every instrumented component's tracer slot. *)

val create :
  ?capacity:int ->
  ?threads:int ->
  ?clock:(unit -> int) ->
  ?tid:(unit -> int) ->
  unit ->
  t
(** A standalone enabled tracer.  [capacity] is events per thread ring
    (default 65536), [threads] the ring count (default 1).  The default
    [clock] counts emitted events (deterministic and monotonic); the
    default [tid] is the constant 0. *)

val for_arena : ?capacity:int -> Ff_pmem.Arena.t -> t
(** Tracer wired to an arena: installs the arena's event sink (PM
    stores/flushes/fences/allocs/crashes become events), takes thread
    ids from {!Ff_pmem.Arena.tid}, has a ring for each of the arena's
    [max_threads] (only threads that emit allocate one), and uses the simulated-time clock described
    above.  Detach with [Arena.set_event_sink a None]. *)

val enabled : t -> bool
val metrics : t -> Metrics.t
val now : t -> int
(** Current clock value (0 on {!null}). *)

(** {1 Span / instant names}

    Interned to small ints so hot-path emitters store an id, not a
    string.  The fixed tree-level names are pre-interned: *)

val id_insert : int
val id_delete : int
val id_search : int
val id_range : int
val id_split : int
val id_fast_shift : int
val id_sibling_chase : int
val id_dup_skip : int
val id_recovery : int
val id_crash : int

val id_batch : int
(** One scheduler batch executed under a group-flush scope
    (detail = number of ops drained). *)

val id_merge : int
val id_scrub : int
(** One cross-shard k-way merge (detail = number of shards touched). *)

val id_op : int
(** One client operation completed end-to-end through the serving
    path (detail = op id assigned at submit time). *)

val id_degraded : int
(** A shard entered degraded mode (detail = shard index). *)

val id_readmit : int
(** A degraded shard was re-admitted after a clean scrub
    (detail = shard index). *)

val id_slo_violation : int
(** An SLO rule fired (detail = rule index in the evaluated set). *)

val id_tx_begin : int
(** A transaction opened (detail = tx id). *)

val id_tx_log : int
(** Log-region traffic for one tx op (detail = records so far). *)

val id_tx_commit : int
(** A commit-record protocol run (detail = ops committed). *)

val id_tx_abort : int
(** A transaction rolled back (detail = ops undone). *)

val id_tx_replay : int
(** Recovery replayed or rolled back a logged tx
    (detail = records resolved). *)

val id_rebal_copy : int
(** Rebalance background copy — one span per copied chunk
    (detail = cumulative keys or words moved). *)

val id_rebal_cutover : int
(** Rebalance cutover — the quiesced commit window
    (detail = delta records replayed). *)

val id_rebal_replay : int
(** Rebalance delta-buffer replay (detail = records applied). *)

val id_rpc : int
(** One fabric RPC call completed (detail = attempts taken). *)

val id_repl : int
(** One replication record durably acked by a backup (detail = seq). *)

val id_failover : int
(** A backup was promoted to primary (detail = shard). *)

val id_catchup : int
(** A rejoining replica finished a segment resync (detail = shard). *)

val intern : t -> string -> int
(** Id for an arbitrary name (stable within this tracer). *)

(** {1 Emitters} (all no-ops when disabled) *)

val span_begin : t -> int -> int -> unit
(** [span_begin t name_id detail] *)

val span_end : t -> int -> unit
val instant : t -> int -> int -> unit

val dup_skip : t -> leaf:bool -> unit
(** A lock-free reader observed duplicate adjacent pointers and
    skipped the entry — the paper's transient-inconsistency tolerance,
    counted under ["fastfair.dup_skip.leaf"/".internal"] and emitted
    as an instant event. *)

val dup_skips : t -> int
(** Total duplicate-pointer detections recorded so far. *)

val incr : t -> string -> unit
(** Metrics counter increment, gated on {!enabled}. *)

val observe : t -> string -> int -> unit
(** Metrics histogram sample, gated on {!enabled}. *)

(** {1 Code-site attribution}

    Every ordered store, flush and fence is attributed to the
    innermost open span (or explicit {!site_enter} frame) on the
    emitting thread — insert, split, merge, scrub, batch, recovery —
    or to the pseudo-site ["untagged"] when nothing is open.  The
    per-site counters feed the fences/op audit table (MOD's cost
    model: fences are the currency of PM structures). *)

val site_enter : t -> int -> unit
(** Open an attribution frame without emitting a ring event (for
    sites that are not spans). *)

val site_exit : t -> unit

type site_row = {
  site : string;
  spans : int;  (** frames opened under this name *)
  stores : int;
  flushes : int;
  fences : int;
}

val site_table : t -> site_row list
(** Nonzero rows, sorted by site name (deterministic). *)

val attach_arena : t -> Ff_pmem.Arena.t -> unit
(** Install this tracer's event sink on an additional arena so one
    tracer observes a whole sharded serving layer; thread ids come
    from that arena's {!Ff_pmem.Arena.tid}. *)

(** {1 Reading the rings} *)

type event =
  | Pm_store of { addr : int }
  | Pm_flush of { addr : int }
  | Pm_fence
  | Pm_alloc of { addr : int; words : int }
  | Pm_free of { addr : int; words : int }
  | Span_b of { name : string; detail : int }
  | Span_e of { name : string }
  | Inst of { name : string; detail : int }

val iter_events : t -> (tid:int -> ts:int -> event -> unit) -> unit
(** Oldest-to-newest per thread ring, thread 0 first. *)

val threads : t -> int
val event_count : t -> int
(** Events currently retained across all rings. *)

val dropped_count : t -> int
(** Events lost to ring wraparound. *)
