(** Crash x schedule model checker for elastic resharding
    ({!Ff_rebalance.Rebalance}).

    One writer thread applies a deterministic commit log ({!Spec})
    through the routed serving layer while a rebalancer thread splits,
    merges or migrates a shard underneath it.  The {!Sweep} driver
    explores the schedule x crash product, starting from the canonical
    Fifo schedule, and every store count of every involved arena is a
    crash candidate — covering plan publication, the throttled
    background copy, the dual-write window, the cutover commit and the
    finish phase.

    The single oracle is the rebalancer's contract: {e zero lost
    acknowledged writes}.  The writer counts fully-applied ops (no
    yield point separates an op's return from the increment, so the
    count is exact).  After a crash anywhere in the protocol the
    surviving authority — resolved from the decision word alone via
    {!Ff_rebalance.Rebalance.resolve} — must read back the model
    state at that acknowledged prefix, give or take the single op
    that was in flight.  Crash-free runs additionally check that the
    rebalance completed and reshaped the topology.

    Split and merge run against a single-arena composite (the whole
    ensemble crashes and reattaches as one image); migrate runs a
    serving ensemble and sweeps crash points on {e both} the source
    and the destination arena, resolving which image is authoritative
    from the source's decision word.

    [mutant] arms {!Ff_rebalance.Rebalance.mutant_drop_delta} (cutover
    silently discards the dual-written delta records).  A run over
    the mutant must produce lost-write violations; each
    counterexample carries the [rebal] extension so
    [ffcli check --replay] re-executes it deterministically. *)

type rkind = Rb_split | Rb_merge | Rb_migrate

val rkind_to_string : rkind -> string
val rkind_of_string : string -> rkind

type config = {
  kind : rkind;          (** which rebalance runs under the writer *)
  ops : int;             (** writer commit-log length (default 10) *)
  keyspace : int;
  prefill : int;
  seed : int;
  mutant : bool;         (** arm the drop-delta mutant (default false) *)
  explorer : Sweep.explorer;
  schedules : int;
  max_crash_points : int;
  crash_budget : int;
  node_bytes : int option;
}

val default : config

val checkable : Ff_index.Descriptor.t -> config -> string option
(** [None] when the descriptor is rebalance-checkable: persistent,
    recoverable, range-scannable, and (for split/merge) with a
    relocatable root. *)

val run : ?config:config -> ?tracer:Ff_trace.Trace.t -> string -> Sweep.report
(** [run name] checks the registry index [name] (e.g. ["fastfair"])
    and returns a {!Sweep.report}.  Counterexamples carry
    [Counterexample.rebal = Some _]. *)

val replay : Counterexample.t -> Sweep.report
(** Re-execute one recorded rebalance counterexample (the artifact
    must carry the [rebal] extension).
    @raise Invalid_argument if [cx.rebal = None]. *)

val config_of_counterexample : Counterexample.t -> config
(** @raise Invalid_argument if [cx.rebal = None]. *)
