(** Replication checker: no lost acknowledged writes across the
    network-fault x node-crash x failover product
    ({!Ff_cluster.Cluster}).

    Each scenario drives a deterministic client script (puts, deletes
    and interleaved reads derived from the workload seed) against a
    simulated cluster whose fabric injects seeded faults.  The
    scenario product varies the fabric fault seed, the kill point
    (primary of the hot shard power-failed after [k] acknowledged
    writes, with the crash mode alternating between [Keep_all] and
    [Keep_none]), and whether a primary/backup partition precedes the
    kill.  After the kill the script keeps writing through the
    failover; the run then heals, restarts the dead node (segment
    resync) and audits.

    The client script is a {!Spec} commit log (entry [j] is the op at
    script position [j]); both oracles are its per-key query over the
    window from the key's last acknowledged write to the op being
    issued.  Two oracles:

    - {b no lost acks} (durability): every key's last {e acknowledged}
      value must read back after the dust settles.  Writes that
      errored or timed out are indeterminate — the ack may have been
      lost in flight — so any such later attempt on the key is also
      accepted, but nothing older than the last ack is.
    - {b no stale reads} (linearizability): a successful read, at any
      point in the run, must return the last acknowledged value or an
      indeterminate later attempt — never an earlier state.

    [mutant] arms {!Ff_cluster.Cluster.mutant_ack_before_replicate}
    (the primary acks before the backup is durable).  A mutant run
    under partition + kill must produce lost-ack violations; each
    counterexample carries the [repl] extension so
    [ffcli check --replay] re-executes it deterministically. *)

type config = {
  nodes : int;  (** cluster nodes (default 3) *)
  shards : int;  (** logical shards (default 2) *)
  ops : int;  (** client script length per scenario (default 60) *)
  keyspace : int;
  seed : int;  (** workload seed (scripts and scenario derivation) *)
  mutant : bool;  (** arm the ack-before-replicate mutant *)
  schedules : int;  (** scenario budget (default 12) *)
  node_bytes : int option;
}

val default : config

val checkable : Ff_index.Descriptor.t -> config -> string option
(** [None] when the descriptor can host a replicated ensemble:
    persistent with recovery (replicas crash and resync). *)

val run : ?config:config -> ?tracer:Ff_trace.Trace.t -> string -> Sweep.report
(** [run name] checks a cluster over the registry index [name] and
    returns a {!Sweep.report}.  Counterexamples carry
    [Counterexample.repl = Some _]. *)

val replay : Counterexample.t -> Sweep.report
(** Re-execute one recorded replication counterexample (the artifact
    must carry the [repl] extension).
    @raise Invalid_argument if [cx.repl = None], or the recorded crash
    mode or recovery name is unknown. *)

val config_of_counterexample : Counterexample.t -> config
(** @raise Invalid_argument if [cx.repl = None]. *)
