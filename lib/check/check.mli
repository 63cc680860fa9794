(** The model checker: systematic schedule exploration, WGL
    linearizability checking, and a crash x schedule product engine
    with replayable counterexamples — plus the entry points that run
    and replay every checker family.

    {b Families.}  Five checker families back the paper's claims:
    linearizability (this module), {!Txcheck}, {!Snapcheck},
    {!Rebalcheck} and {!Replcheck}.  All five read the one
    {!Counterexample.config} record, each with its own defaults, and
    a counterexample stores that record as is.  The first four are
    small descriptions ({!Sweep.t}: a [checkable] gate, a setup that
    builds one run, a live oracle and a crash oracle's [read] and
    [judge]) run by the one {!Sweep} driver.  Replcheck keeps its own
    scenario product (it has no Mcsim schedules) and shares the report,
    crash-mode parsing and replay dispatch.  {!families} lists all
    five; {!replay} picks the family a counterexample names.

    {b The linearizability family} runs a seeded workload through the
    {!Sweep} driver, which explores schedules and crashes every store
    count of each.  Its live oracle checks each schedule's per-thread
    invocation/response history WGL-style against the sequential
    {!Spec} model and the observed final state ({!Linearize}).  Its
    crash oracle reads each distinct crashed image once (a lock-free
    reader before recovery must not fabricate a binding or raise; then
    recovery and a dump) and judges each execution's history against
    that dump: completed ops must survive recovery, in-flight ops may.

    Every violation carries a {!Counterexample} artifact that
    {!replay} (and [ffcli check --replay]) re-executes
    deterministically.

    {b Soundness caveats}: exploration is bounded (a pass is evidence,
    not proof, unless [exhausted] is reported); crash modes are gated
    on the arena's memory-order model; histories are capped at
    {!Linearize.max_ops} operations. *)

type explorer = Sweep.explorer = Dfs | Pct

type config = Counterexample.config
(** [writers] + [readers] threads each run [ops] operations; [mutant]
    drops every flush during the concurrent phase (flush elision). *)

val default : config
(** 2 writers and 1 reader, 2 ops each, keyspace 8, prefill 4, seed
    1, 16 PCT schedules, crashes on. *)

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
      (** why the crash engine was skipped, if it was *)
}

val run : ?config:config -> ?tracer:Ff_trace.Trace.t -> string -> report
(** [run name] checks the registry index [name] for linearizability
    and durable linearizability.  Never raises on an uncheckable index
    — returns a [skipped] report: any index is checkable with one
    thread (a sequential run crashed at every store), and from
    two threads on one that supports concurrency (Sim lock mode, or
    lock-free reads with at most one writer).  The optional tracer
    receives one ["check.schedule"] span per explored schedule and a
    ["check.crash_point"] instant per crash execution.
    @raise Invalid_argument on an unknown registry name. *)

val report_summary : report -> string
(** One-line human-readable summary. *)

(** {1 Every family} *)

type family = {
  name : string;  (** ["linearizability"], ["tx"], ["snapshot"], ... *)
  banner : string;  (** replay banner prefix, e.g. ["transaction "] *)
  default : config;  (** the family's own defaults *)
  run : ?config:config -> ?tracer:Ff_trace.Trace.t -> string -> report;
      (** check one index; an uncheckable one yields a [skipped]
          report *)
  smoke : index:string -> seed:int -> report;
      (** a smoke sweep of [index] ([ffcli check --all]): fewer
          schedules than the family's default, every crash point of
          each *)
  replay : Counterexample.t -> report;
}

val families : family list
(** linearizability, tx, snapshot, rebalance, replica — in that
    order. *)

val family_named : string -> family
(** @raise Invalid_argument on a name not in {!families}. *)

val family_of : Counterexample.t -> family
(** The family a counterexample names.
    @raise Invalid_argument on an unknown family. *)

val replay : Counterexample.t -> report
(** Re-execute one recorded counterexample through the family that
    produced it: exactly one schedule (and crash, if any).  A faithful
    counterexample yields the same violation(s); an empty
    [violations] list means the artifact did not reproduce.
    @raise Invalid_argument if the artifact names an unknown family,
    index or crash mode, or a replica scenario index below 0. *)
