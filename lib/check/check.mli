(** The model checker: systematic schedule exploration, WGL
    linearizability checking, and a crash x schedule product engine
    with replayable counterexamples — plus the entry points that run
    and replay every checker family.

    {b Families.}  Five checker families back the paper's claims:
    linearizability (this module), {!Txcheck}, {!Snapcheck},
    {!Rebalcheck} and {!Replcheck}.  The first four are small
    descriptions ({!Sweep.t}: a [checkable] gate, a setup that builds
    one run, a live oracle, a crash oracle and a counterexample
    extension) run by the one {!Sweep} driver.  Replcheck keeps its
    own scenario product (it has no Mcsim schedules) and shares the
    report, crash-mode parsing and replay dispatch.  {!families}
    lists all five; {!replay} picks the family from a
    counterexample's extension.

    {b The linearizability family}:

    - {b Schedule explorer}: runs a deterministic workload (generated
      from a seed) on {!Ff_mcsim.Mcsim} with [cores = 1] and
      [quantum_ns = 1], so every PM access is a preemption point and a
      {!Ff_mcsim.Mcsim.Choose} policy's decision sequence is a total
      order.  Exploration is either bounded-exhaustive DFS over the
      decision tree or PCT-style randomized priority sampling
      ({!Schedule}).

    - {b Linearizability}: every explored schedule records per-thread
      invocation/response histories, checked WGL-style against the
      sequential {!Spec} model and the observed final state
      ({!Linearize}).

    - {b Crash product}: for every sampled store count of an explored
      schedule's concurrent phase, the run is replayed
      decision-for-decision up to that count, the arena is crashed
      through each {!Ff_pmem.Storelog.crash_mode}
      (exhaustive per-epoch [Non_tso_cutoff] sweeps under non-TSO),
      and the result is validated for pre-recovery reader tolerance
      (lock-free readers must not fabricate bindings or raise) and
      durable linearizability (completed ops must survive recovery;
      in-flight ops may).

    Every violation carries a {!Counterexample} artifact that
    {!replay} (and [ffcli check --replay]) re-executes
    deterministically.

    {b Soundness caveats}: exploration is bounded (a pass is evidence,
    not proof, unless [exhausted] is reported); crash modes are gated
    on the arena's memory-order model; histories are capped at
    {!Linearize.max_ops} operations. *)

type explorer = Sweep.explorer = Dfs | Pct

type config = {
  writers : int;          (** concurrent writer threads (default 2) *)
  readers : int;          (** concurrent reader threads (default 1) *)
  ops_per_thread : int;   (** script length per thread (default 2) *)
  keyspace : int;         (** keys drawn from [1..keyspace] (default 8) *)
  prefill : int;          (** keys inserted before the concurrent phase *)
  seed : int;             (** workload + exploration seed *)
  explorer : explorer;    (** default [Pct]; [Dfs] for tiny workloads *)
  schedules : int;        (** exploration budget (default 16) *)
  max_crash_points : int; (** store counts sampled per schedule *)
  crash_budget : int;     (** global cap on crash executions; 0 turns
                              the crash product engine off *)
  non_tso : bool;         (** run under [Non_tso] memory order and sweep
                              per-epoch cutoffs exhaustively *)
  elide_flush : bool;     (** fault injection: drop every flush during
                              the concurrent phase (test-only mutant) *)
  node_bytes : int option;
}

val default : config

type kind = Sweep.kind = Linearizability | Tolerance | Durability

val kind_to_string : kind -> string

type violation = Sweep.violation = {
  kind : kind;
  detail : string;
  counterexample : Counterexample.t;
}

type report = Sweep.report = {
  index : string;
  schedules_run : int;
  exhausted : bool;       (** DFS covered the entire decision tree *)
  crash_runs : int;       (** crash executions performed *)
  crash_points : int;     (** store counts crashed *)
  stores : int;           (** stores of the explored concurrent phases *)
  ops_checked : int;      (** history operations across all schedules *)
  violations : violation list;
  skipped : string option;  (** reason when the index is not checkable *)
  crash_note : string option;
      (** why the crash engine was skipped or truncated, if it was *)
}

val checkable : Ff_index.Descriptor.t -> config -> string option
(** [None] when the descriptor can be checked under this config: any
    index with one thread (a sequential run crashed at every sampled
    store), and from two threads on one that supports concurrency
    (Sim lock mode, or lock-free reads with at most one writer);
    [Some reason] otherwise. *)

val run : ?config:config -> ?tracer:Ff_trace.Trace.t -> string -> report
(** [run name] checks the registry index [name] for linearizability
    and durable linearizability.  Never raises on an uncheckable index
    — returns a [skipped] report.  The optional tracer receives one
    ["check.schedule"] span per explored schedule and a
    ["check.crash_point"] instant per crash execution.
    @raise Invalid_argument on an unknown registry name. *)

val config_of_counterexample : Counterexample.t -> config

val report_summary : report -> string
(** One-line human-readable summary. *)

(** {1 Every family} *)

type family = {
  name : string;  (** ["linearizability"], ["tx"], ["snapshot"], ... *)
  banner : string;  (** replay banner prefix, e.g. ["transaction "] *)
  owns : Counterexample.t -> bool;
      (** the counterexample carries this family's extension (none,
          for linearizability) *)
  smoke : index:string -> seed:int -> report;
      (** a bounded smoke sweep of [index] ([ffcli check --all]) *)
  replay : Counterexample.t -> report;
}

val families : family list
(** linearizability, tx, snapshot, rebalance, replica — in that
    order. *)

val family_of : Counterexample.t -> family
(** The family that produced a counterexample, from its extension. *)

val replay : Counterexample.t -> report
(** Re-execute one recorded counterexample through the family that
    produced it: exactly one schedule (and crash, if any).  A faithful
    counterexample yields the same violation(s); an empty
    [violations] list means the artifact did not reproduce.
    @raise Invalid_argument if the artifact names an unknown index,
    crash mode, tx path, rebalance kind or replica recovery. *)
