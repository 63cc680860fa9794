(** Simulated message fabric with seeded fault injection.

    The fabric connects [endpoints] numbered [0 .. endpoints-1] (node
    replicas plus control-plane and client endpoints) on the simulated
    clock.  Every {!transmit} consults a deterministic fault model —
    drop, duplicate, delay with jitter, reorder (a late outlier
    delay), and pairwise partitions (one-shot or timed) — and returns
    a {e verdict}: the list of one-way delivery delays for each copy
    of the message that arrives ([[]] when the message is lost).  The
    caller charges those delays to the simulated clock; the fabric
    itself never blocks.

    Determinism: the PRNG draws per {!transmit} are fixed in number
    and order regardless of the outcome, so the same seed and the
    same call sequence replay to an identical verdict sequence — the
    property QCheck pins down in [test/test_cluster.ml], and what
    makes `repl` counterexamples replayable. *)

type faults = {
  drop_per_1k : int;  (** message loss probability (per mille) *)
  dup_per_1k : int;  (** duplicate-delivery probability (per mille) *)
  delay_ns : int;  (** base one-way delay *)
  jitter_ns : int;  (** uniform extra delay in [0, jitter_ns) *)
  reorder_per_1k : int;  (** probability of a late outlier (per mille) *)
  reorder_extra_ns : int;  (** extra delay a reordered message suffers *)
}

val default_faults : faults
(** A mildly hostile WAN: 2% drop, 1% duplicate, 1.5us +- 0.5us delay,
    3% reordered with a 4us outlier. *)

val calm : faults
(** No faults, fixed 1us delay — for overhead baselines. *)

type verdict = {
  v_seq : int;  (** transmit sequence number (fabric-global) *)
  v_src : int;
  v_dst : int;
  v_deliveries : int list;
      (** one-way delay of each delivered copy; [[]] = lost *)
  v_cut : bool;  (** lost to a partition (counted under drops too) *)
}

type t

val create : ?faults:faults -> seed:int -> endpoints:int -> unit -> t
val endpoints : t -> int

val now : t -> int
(** Simulated time: {!Ff_mcsim.Mcsim.sim_now} inside a simulation,
    otherwise the fabric's own virtual clock (advanced by {!charge}). *)

val charge : t -> int -> unit
(** Consume simulated nanoseconds: {!Ff_mcsim.Mcsim.charge} inside a
    simulation, otherwise the fabric's virtual clock. *)

val partition : t -> a:int -> b:int -> unit
(** Cut the [a]<->[b] link (both directions) until {!heal}. *)

val partition_for : t -> a:int -> b:int -> ns:int -> unit
(** Timed partition: the link heals itself once {!now} passes
    [now + ns]. *)

val heal : t -> unit
(** Lift every partition, timed or not. *)

val partitioned : t -> a:int -> b:int -> bool
(** Whether the [a]<->[b] link is currently cut. *)

val transmit : t -> src:int -> dst:int -> verdict
(** Ask the fault model about one message send.  Bumps the counters;
    keeps nothing else and charges nothing. *)

val sends : t -> int

val drops : t -> int
(** Messages lost (fault model and partitions combined). *)

val dups : t -> int
