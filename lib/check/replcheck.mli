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
    under partition + kill must produce lost-ack violations.

    The config's [ops] is the script length over [keyspace] keys on
    [nodes] nodes of [shards] shards, and [schedules] counts the
    scenarios.  The Mcsim fields do not apply: a config that turns
    [crashes] off, asks for [non_tso], the [Dfs] explorer or a
    [prefill] other than the default's is refused with a reason.
    Scenario [i] derives its fault seed, kill point, recovery,
    partition and crash mode from the seed and [i] alone, so a
    counterexample, of family ["replica"], records [i] as its one
    decision, and [ffcli check --replay] re-executes it
    deterministically. *)

val default : Counterexample.config
(** 3 nodes of 2 shards, a 60-op script over 12 keys, seed 42, 12
    scenarios; otherwise {!Sweep.default}. *)

val run :
  ?config:Counterexample.config -> ?tracer:Ff_trace.Trace.t -> string -> Sweep.report
(** [run name] checks a cluster over the registry index [name] and
    returns a {!Sweep.report}; an index that cannot host a replicated
    ensemble (persistent with recovery: replicas crash and resync),
    fewer than 2 nodes, no op, fewer than 2 keys or a refused Mcsim
    field is skipped with the reason. *)

val replay : Counterexample.t -> Sweep.report
(** Re-execute one recorded replication counterexample: the scenario
    its one decision names.
    @raise Invalid_argument if the artifact does not record exactly
    one scenario index, the index is negative, or its crash record
    names an unknown crash mode. *)
