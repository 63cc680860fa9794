(** Durable-serializability checker for the transaction layer.

    Where {!Check} validates individual index operations, this engine
    validates whole {!Ff_tx.Tx} transactions: one writer thread runs a
    deterministic script of multi-key transactions while
    lock-free reader threads observe.  The {!Sweep} driver explores
    the schedule x crash product; the image of every crash point is
    checked {e through transaction recovery} (index [recover] first,
    then {!Ff_tx.Tx.recover} over the persisted log).

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

    The config's [rounds] transactions of [ops] puts/deletes each run
    on its [tx_path] beside [readers] readers.  [mutant] arms the
    torn-commit mutant (commit record persisted before the log payload
    it covers, and eager-path undo records left volatile).  A sweep
    over a torn run must produce violations; each carries a
    {!Counterexample} of family ["tx"] so [ffcli check --replay]
    re-executes it deterministically. *)

val default : Counterexample.config
(** 3 transactions of 2 ops on the [Logged] path, 1 reader, 8 PCT
    schedules; otherwise {!Sweep.default}. *)

val run :
  ?config:Counterexample.config -> ?tracer:Ff_trace.Trace.t -> string -> Sweep.report
(** [run name] checks the registry index [name] and returns a report
    in {!Sweep.report} form ([Durability] counts cover both atomicity
    and durability failures; see module docs).  An index that is not
    [txnable], persistent with recovery and — with readers — safe for
    concurrent lock-free reads (or Sim locks) is skipped. *)

val replay : Counterexample.t -> Sweep.report
(** Re-execute one recorded transaction counterexample. *)
