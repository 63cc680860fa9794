(** The crash x schedule sweep driver shared by the Mcsim-based checker
    families (linearizability, tx, snapshot, rebalance), plus the
    report, crash-mode parsing and counterexample plumbing every
    family, replica included, reports through.

    A family is a small description ({!t}): how to set up one run,
    what its live and crash oracles check, and which counterexample
    extension it stamps.  The driver owns everything else:

    - {b One controlled execution}: the family's setup builds and
      prefills on fresh arenas, the driver notes every arena's store
      count, optionally arms a crash plan, and runs the concurrent
      phase on {!Ff_mcsim.Mcsim} with [cores = 1] and
      [quantum_ns = 1], so every PM access is a preemption point and
      the policy's decision sequence is a total order.
    - {b Exploration}: PCT sampling or bounded-exhaustive DFS
      ({!Schedule}), optionally preceded by the canonical Fifo
      schedule.  Each explored schedule runs the live oracle.
    - {b Crash product}: every store count the concurrent phase
      passes through, on every arena it stores to, is a crash
      candidate (flushes and fences included: each falls between two
      stores).  For every candidate picked by
      {!Ff_pmem.Arena.crash_points}, the explored schedule is replayed
      decision-for-decision up to that store count and crashed under
      each {!Ff_pmem.Storelog.crash_mode} — plus every pending epoch
      cutoff under non-TSO — within a global budget; each crash runs
      the crash oracle.
    - {b Counterexamples}: every violation carries a {!Counterexample}
      that {!replay} re-executes along the recorded decisions. *)

type explorer = Dfs | Pct

type kind = Linearizability | Tolerance | Durability

val kind_to_string : kind -> string

type violation = {
  kind : kind;
  detail : string;
  counterexample : Counterexample.t;
}

type report = {
  index : string;
  schedules_run : int;
  exhausted : bool;       (** DFS covered the entire decision tree *)
  crash_runs : int;       (** crash executions performed *)
  crash_points : int;
      (** store counts crashed (each under every crash mode the budget
          left room for) *)
  stores : int;
      (** stores the explored schedules' concurrent phases performed,
          over every arena *)
  ops_checked : int;      (** operations across all schedules *)
  violations : violation list;
  skipped : string option;  (** reason when the index is not checkable *)
  crash_note : string option;
      (** why the crash engine was skipped or truncated, if it was *)
}

val empty_report : string -> report

val report_summary : report -> string
(** One-line human-readable summary. *)

val mode_of_crash : Counterexample.crash -> Ff_pmem.Storelog.crash_mode
(** The crash mode a counterexample names.
    @raise Invalid_argument on an unknown mode name, or
    ["non_tso_cutoff"] without a cutoff. *)

val with_mutant : (bool ref * bool) option -> (unit -> 'a) -> 'a
(** [with_mutant (Some (flag, armed)) f] runs [f] with the global
    mutant [flag] set to [armed], restoring it afterwards. *)

val counterexample :
  index:string ->
  node_bytes:int option ->
  ?writers:int ->
  ?readers:int ->
  ?non_tso:bool ->
  ?elide_flush:bool ->
  ops_per_thread:int ->
  keyspace:int ->
  prefill:int ->
  seed:int ->
  unit ->
  Counterexample.t
(** A counterexample for this workload (one writer, no readers, TSO
    and no flush elision unless given) with no extension, no
    decisions, no crash and empty kind and detail: the template a
    family extends. *)

(** {1 Helpers for setups and oracles} *)

val arena : ?non_tso:bool -> keys:int -> unit -> Ff_pmem.Arena.t
(** A fresh arena for a run that writes at most [keys] keys (its
    keyspace, prefill and ops together), under [Non_tso] memory order
    if asked: 64 words per key, and at least 64 Ki words. *)

val index_config :
  Ff_index.Descriptor.t -> node_bytes:int option -> Ff_index.Descriptor.config
(** Build config for a checked index: Sim locks where the descriptor
    supports them (threads then contend through the simulator),
    Single otherwise. *)

val in_sim : Ff_pmem.Arena.t -> (unit -> unit) -> unit
(** Run [f] as the only thread of a one-core simulation on [arena]
    (prefill, and reads through a handle that may hold Sim locks). *)

val dump : keyspace:int -> (int -> int option) -> (int * int) list
(** Bindings of keys [1 .. keyspace] through [search], key-ascending. *)

val pre_recovery_tolerance :
  keyspace:int ->
  written:(int -> int -> bool) ->
  (unit -> Ff_index.Intf.ops) ->
  (kind * string) list
(** Open a crashed image (before recovery) and search every key: a
    binding [k -> v] that was never [written] ({!Spec.written}), or an
    exception, is a [Tolerance] finding. *)

(** {1 Family descriptions} *)

type 'x setup = {
  arenas : Ff_pmem.Arena.t array;
      (** Every arena the run touches; arena 0 hosts the simulator. *)
  threads : (int -> unit) array;  (** the concurrent phase *)
  finish : unit -> 'x;
      (** Collect the run's outcome once the phase ended or crashed. *)
}

type 'x run = {
  result : 'x;
  arenas : Ff_pmem.Arena.t array;
  crashed : bool;
  candidates : (int * int * int) list;
      (** the crash candidates: for every arena the concurrent phase
          stored to, in arena order, [(arena, first, last)], its store
          counts at the phase's start and end; every count from
          [first] to [last] is a candidate *)
}

type finding = kind * string

type budget = {
  explorer : explorer;
  schedules : int;
  seed : int;
  max_crash_points : int;  (** candidates sampled per schedule *)
  crash_budget : int;      (** global cap on crash executions *)
}

type 'x t = {
  index : string;
  gate : string option;  (** the family's [checkable] verdict *)
  crash_gate : string option;
      (** [None] runs the crash product; [Some note] skips it and
          reports [note] *)
  budget : budget;
  probe_cutoffs : bool;
      (** non-TSO: probe each crash point for pending epochs and sweep
          every [non_tso_cutoff] *)
  canonical_fifo : bool;
      (** explore the Fifo schedule first (not counted in
          [schedules_run]) *)
  crashed_only : bool;
      (** run the crash oracle only when the crash plan fired *)
  mutant : (bool ref * bool) option;
      (** global mutant flag armed for the whole run *)
  setup : unit -> 'x setup;
  ops : 'x -> int;  (** operations a run contributes to [ops_checked] *)
  live : 'x run -> finding list;  (** oracle on a crash-free run *)
  crash : 'x run -> Counterexample.crash -> finding list;
      (** power-fail the run's arenas under the given crash, recover,
          and check the recovered state *)
  counterexample : arena:int -> Counterexample.t;
      (** template stamped on this family's violations (workload and
          extension; the driver fills kind, decisions, crash, detail).
          [arena] is the crashed arena, 0 for live violations. *)
}

val run : ?tracer:Ff_trace.Trace.t -> 'x t -> report
(** Explore and crash within the family's budget.  Returns a [skipped]
    report when [gate] is [Some _].  The tracer receives one
    ["check.schedule"] span per explored schedule and a
    ["check.crash_point"] instant per crash execution. *)

val replay : ?arena:int -> 'x t -> Counterexample.t -> report
(** Re-execute one recorded schedule (crashing [arena], default 0, if
    the counterexample records a crash) and re-run exactly the
    recorded oracle.  An empty [violations] list means the artifact
    did not reproduce. *)
