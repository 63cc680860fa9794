(** Replayable counterexample artifacts, and the one configuration
    every checker family reads.

    A failure found by the model checker is fully determined by: the
    family and index, the family's configuration (every script is
    derived from its seed), the recorded scheduling decisions, and —
    for crash failures — the crashed arena, the crash point (absolute
    store count), the crash-mode name, its PRNG seed and an optional
    epoch cutoff.  This module round-trips that tuple through JSON so
    [ffcli check --replay] can re-execute it deterministically on any
    build. *)

type explorer = Dfs | Pct

type rebal_kind = Rb_split | Rb_merge | Rb_migrate

type config = {
  writers : int;          (** concurrent writer threads (linearizability) *)
  readers : int;          (** concurrent reader threads (linearizability, tx) *)
  ops : int;
      (** ops per thread (linearizability), per transaction (tx), per
          round (snapshot); the writer's log length (rebalance) or the
          client script length (replica) *)
  rounds : int;           (** transactions (tx) or write rounds (snapshot) *)
  keyspace : int;         (** keys drawn from [1..keyspace] *)
  prefill : int;          (** keys inserted before the concurrent phase *)
  seed : int;             (** workload + exploration seed *)
  explorer : explorer;
  schedules : int;        (** exploration budget (replica: scenarios) *)
  crashes : bool;         (** run the crash product: every store count
                              of every explored schedule, crashed under
                              every mode; [false] turns it off *)
  non_tso : bool;         (** run under [Non_tso] memory order and sweep
                              every pending epoch cutoff *)
  mutant : bool;          (** arm the family's own seeded mutant *)
  node_bytes : int option;
  tx_path : Ff_tx.Tx.path;  (** commit path under test (tx) *)
  rebal_kind : rebal_kind;  (** rebalance run under the writer *)
  nodes : int;            (** cluster nodes (replica) *)
  shards : int;           (** shards per node ensemble (replica) *)
}

val explorers : (string * explorer) list
val tx_paths : (string * Ff_tx.Tx.path) list
val rebal_kinds : (string * rebal_kind) list
(** The names the JSON codec and the command line use. *)

val name_of : (string * 'a) list -> 'a -> string

type crash = {
  arena : int;          (** crashed arena: 0, or 1 for a migrate destination *)
  store_count : int;    (** crash fires at this absolute store count *)
  mode : string;        (** "keep_none" | "keep_all" | "random_eviction"
                            | "non_tso_cutoff" *)
  crash_seed : int;
  cutoff : int option;  (** epoch cutoff for "non_tso_cutoff" *)
}

type t = {
  family : string;      (** ["linearizability"], ["tx"], ["snapshot"], ... *)
  index : string;       (** registry name *)
  config : config;      (** the configuration the sweep ran, as is *)
  kind : string;        (** "linearizability" | "tolerance" | "durability" *)
  decisions : int array;
      (** the schedule's decisions; a replica artifact records its
          scenario index as its one decision *)
  crash : crash option;
  detail : string;      (** human-readable failure description *)
}

val version : int

val to_json : t -> string
val of_json : string -> (t, string) result
(** Rejects any other [version] with ["counterexample: unsupported
    version N"]. *)

val save : t -> string -> unit
val load : string -> (t, string) result
