(** The crash x schedule sweep driver shared by the Mcsim-based checker
    families (linearizability, tx, snapshot, rebalance), plus the
    report, crash-mode parsing and counterexample plumbing every
    family, replica included, reports through.

    A family is a small description ({!t}): the {!Counterexample.config}
    it runs, how to set up one run, and what its live and crash oracles
    check.  The driver owns everything else:

    - {b One controlled execution}: the family's setup builds and
      prefills on fresh arenas, the driver notes every arena's store
      count and runs the concurrent phase on {!Ff_mcsim.Mcsim} with
      [cores = 1] and [quantum_ns = 1], so every PM access is a
      preemption point and the policy's decision sequence is a total
      order.
    - {b Exploration}: PCT sampling or bounded-exhaustive DFS
      ({!Schedule}), optionally preceded by the canonical Fifo
      schedule.  Each explored schedule runs the live oracle.
    - {b Crash product}: every store count the concurrent phase
      passes through, on every arena it stores to, is a crash point
      (flushes and fences included: each falls between two stores),
      and every crash point of every explored schedule is crashed on
      the schedule's one execution: just before each store (and for
      each arena's last count once the phase ends), for each
      {!Ff_pmem.Storelog.crash_mode} — plus every epoch cutoff still
      pending there under [non_tso] — the crash oracle sees
      {!Ff_pmem.Arena.crashed_copy} of every arena of the run.  Its
      [read] of those images runs once per distinct image of the
      family run, memoized under an exact key
      ({!Ff_pmem.Arena.image_key} against the run's first crashed
      images); its [judge] runs for every execution, and its findings
      follow the live ones in (arena, store count, mode) order.
      [crashes = false] turns the product off.
    - {b Counterexamples}: every violation carries a {!Counterexample}
      holding the family's config as is, which {!replay} re-executes
      along the recorded decisions, crashing the recorded arena at the
      recorded store count. *)

type explorer = Counterexample.explorer = Dfs | Pct

val default : Counterexample.config
(** The linearizability family's defaults, which every other family
    overrides where its own differ. *)

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
  crash_runs : int;       (** crash executions: one per mode per point *)
  crash_points : int;     (** store counts crashed, each under every mode *)
  stores : int;
      (** stores the explored schedules' concurrent phases performed,
          over every arena *)
  ops_checked : int;      (** operations across all schedules *)
  violations : violation list;
  skipped : string option;  (** reason when the index is not checkable *)
  crash_note : string option;
      (** why the crash engine was skipped, if it was *)
}

val empty_report : string -> report

val report_summary : report -> string
(** One-line human-readable summary. *)

val mode_of_crash : Counterexample.crash -> Ff_pmem.Storelog.crash_mode
(** The crash mode a counterexample names.
    @raise Invalid_argument on an unknown mode name, or
    ["non_tso_cutoff"] without a cutoff. *)

val with_mutant : bool ref option -> bool -> (unit -> 'a) -> 'a
(** [with_mutant (Some flag) armed f] runs [f] with the global mutant
    [flag] set to [armed], restoring it afterwards. *)

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

type finding = kind * string

type image = {
  before : finding list;  (** what a reader finds before recovery *)
  recovered : ((int * int) list, string) result;
      (** the bindings after recovery, or what recovery raised *)
}

val read_index :
  Ff_index.Descriptor.t ->
  node_bytes:int option ->
  keyspace:int ->
  written:(int -> int -> bool) ->
  recover:(Ff_index.Intf.ops -> unit) ->
  Ff_pmem.Arena.t ->
  image
(** What a crashed index image shows: if the index claims lock-free
    reads, a search of keys [1 .. keyspace] before recovery that
    returns a binding never [written] ({!Spec.written}), or an open or
    search that raises, is a [Tolerance] finding; then the image is
    reopened, [recover]ed and dumped.  Nothing it raises escapes. *)

(** {1 Family descriptions} *)

type 'x setup = {
  arenas : Ff_pmem.Arena.t array;
      (** Every arena the run touches (the driver owns their event
          sinks); arena 0 hosts the simulator. *)
  threads : (int -> unit) array;  (** the concurrent phase *)
  finish : unit -> 'x;
      (** Snapshot the run's outcome, at every crash point of the phase
          and once it ended; it must not change the run. *)
}

type 'x run = {
  result : 'x;
  arenas : Ff_pmem.Arena.t array;
  crashed : bool;  (** taken at a crash point before the phase ended *)
}

type ('x, 'o) t = {
  family : string;  (** stamped on every counterexample *)
  index : string;
  config : Counterexample.config;
      (** explorer, schedules, seed, [crashes] and [non_tso] drive the
          sweep; the whole record is stamped on every counterexample *)
  gate : string option;  (** the family's [checkable] verdict *)
  crash_gate : string option;
      (** [None] runs the crash product; [Some note] skips it and
          reports [note] *)
  canonical_fifo : bool;
      (** explore the Fifo schedule first (not counted in
          [schedules_run]) *)
  mutant : bool ref option;
      (** global mutant flag, set to [config.mutant] for the whole run *)
  setup : unit -> 'x setup;
  ops : 'x -> int;  (** operations a run contributes to [ops_checked] *)
  live : 'x run -> finding list;  (** oracle on a crash-free run *)
  read : Ff_pmem.Arena.t array -> 'o;
      (** what the crashed copies of the run's arenas show, as a
          function of their images alone, an exception included; a
          plain value, compared structurally *)
  judge : 'x run -> 'o -> finding list;
      (** hold what [read] saw against this execution *)
}

val run : ?tracer:Ff_trace.Trace.t -> ('x, 'o) t -> report
(** Explore, and crash every crash point of every explored schedule.
    Returns a [skipped] report when [gate] is [Some _], and notes
    ["crash engine disabled"] when [crashes] is [false].  The tracer
    receives one ["check.schedule"] span per explored schedule and a
    ["check.crash_point"] instant per crash execution. *)

val replay : ('x, 'o) t -> Counterexample.t -> report
(** Re-execute one recorded schedule and re-run exactly the recorded
    oracle: the live one, or the crash oracle at the recorded crash
    point of the execution, whose [read] sees that image itself.  An
    empty [violations] list means the artifact did not reproduce. *)
