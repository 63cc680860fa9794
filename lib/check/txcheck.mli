(** Durable-serializability checker for the transaction layer.

    Where {!Check} validates individual index operations, this engine
    validates whole {!Ff_tx.Tx} transactions: one writer thread runs a
    deterministic script of multi-key transactions while
    lock-free reader threads observe.  The {!Sweep} driver explores
    the schedule x crash product; every crash point is replayed {e
    through transaction recovery} (index [recover] first, then
    {!Ff_tx.Tx.recover} over the persisted log).

    The durable-serializability oracle: the script is a {!Spec} commit
    log with one entry per transaction.  With [C] = transactions whose
    commit call returned before the crash, the post-recovery state
    must equal a prefix in the window [[C, S]], where [S] counts the
    transactions whose commit call began (an in-flight commit may land
    atomically or not at all, never partially).  A violation is
    reported as [Durability]; its detail names the nearest prefix —
    one outside the window lost or fabricated a whole commit, a state
    differing from every prefix is torn.

    Reader threads are additionally checked for tolerance: no
    fabricated bindings before or after the crash.  (Isolation of
    in-flight reads is {e not} checked: the [Logged] commit path
    installs effects eagerly, so concurrent readers legitimately see
    read-uncommitted data; the [Shadow] path stages privately and
    gives read-committed.)

    [torn_commit] arms the injected mutant (commit record persisted
    before the log payload it covers, and eager-path undo records left
    volatile).  A sweep over a torn run must produce violations; each
    carries a {!Counterexample} with the [tx] extension populated so
    [ffcli check --replay] re-executes it deterministically. *)

type config = {
  txns : int;             (** transactions in the writer script (default 3) *)
  ops_per_txn : int;      (** puts/deletes per transaction (default 2) *)
  readers : int;          (** concurrent reader threads (default 1) *)
  keyspace : int;
  prefill : int;
  seed : int;
  path : Ff_tx.Tx.path;   (** commit path under test (default [Logged]) *)
  torn_commit : bool;     (** arm the torn-commit mutant (default false) *)
  explorer : Sweep.explorer;
  schedules : int;
  max_crash_points : int;
  crash_budget : int;
  non_tso : bool;
  node_bytes : int option;
}

val default : config

val checkable : Ff_index.Descriptor.t -> config -> string option
(** [None] when the descriptor is transaction-checkable: [txnable],
    persistent with recovery, and — when [readers > 0] — safe for
    concurrent lock-free reads (or Sim locks). *)

val run : ?config:config -> ?tracer:Ff_trace.Trace.t -> string -> Sweep.report
(** [run name] checks the registry index [name] and returns a report
    in {!Sweep.report} form ([Durability] counts cover both atomicity
    and durability failures; see module docs).  Counterexamples carry
    [Counterexample.tx = Some _]. *)

val replay : Counterexample.t -> Sweep.report
(** Re-execute one recorded transaction counterexample (the artifact
    must carry the [tx] extension).
    @raise Invalid_argument if [cx.tx = None]. *)

val config_of_counterexample : Counterexample.t -> config
(** @raise Invalid_argument if [cx.tx = None] or the recorded path
    name is unknown. *)
