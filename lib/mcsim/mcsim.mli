(** Deterministic discrete-event multicore simulator.

    The paper's Figure 7 runs 1-32 threads on a 16-vCPU machine; this
    host has one core, so scalability is reproduced in {e simulated}
    time.  Logical threads are OCaml 5 effect-handler coroutines that
    yield at every instrumented PM access (via {!Ff_pmem.Arena}'s
    yield hook) and at every synchronization operation.  A scheduler
    multiplexes them over [cores] simulated cores, advancing a
    simulated clock; mutexes and read/write locks block threads in
    simulated time, so lock-free readers (FAST+FAIR, SkipList) scale
    while lock-based readers (B-link, leaf-lock mode) serialize —
    exactly the mechanism behind the paper's scalability results.

    With [quantum_ns = 1] the scheduler preempts at {e every} memory
    access, which is how the Section IV suspended-reader interleavings
    are tested deterministically. *)

(** {1 Synchronization primitives (usable only inside {!run})} *)

type mutex

val create_mutex : unit -> mutex
val lock : mutex -> unit
val unlock : mutex -> unit

type rwlock

val create_rwlock : unit -> rwlock
val rd_lock : rwlock -> unit
val rd_unlock : rwlock -> unit
val wr_lock : rwlock -> unit
val wr_unlock : rwlock -> unit

val await : (unit -> bool) -> unit
(** Block until the condition holds: the one way a simulated thread
    waits.  The scheduler re-evaluates it after every segment, so a
    waiter is never runnable (and charges no time) while it is false:
    the blocking form of a spin-wait, which a priority scheduler would
    starve.  A woken waiter re-checks on resuming and parks again if
    another thread made the condition false meanwhile, so [await]
    returns only once it holds, with no yield point before the
    caller's next step: [await (fun () -> not busy); busy <- true] is
    a test-and-set.  The condition must be pure: no PM access, no
    effects.  Returns at once if it already holds.
    @raise Failure if it does not and no {!run} is active (nothing
    else could ever make it hold). *)

val charge : int -> unit
(** Consume simulated CPU nanoseconds. *)

val my_tid : unit -> int
(** Index of the current logical thread.  @raise Failure outside {!run}. *)

val sim_now : unit -> int option
(** Current simulated time in nanoseconds — the scheduler clock plus
    the running segment's consumed charge, so events stamped with it
    align across threads on one timeline.  [None] outside {!run};
    tracers then fall back to a per-thread clock.  Outside {!run} it
    performs no effect and allocates nothing. *)

(** {1 Running} *)

type policy =
  | Fifo  (** deterministic round-robin *)
  | Random of Ff_util.Prng.t  (** seeded random runnable-thread choice *)
  | Choose of (int array -> int)
      (** Controlled scheduling: at every scheduling decision the
          callback receives the runnable thread ids in queue order and
          returns the index (into that array) of the thread to run
          next; out-of-range returns fall back to 0.  Everything else
          in the simulator is deterministic, so the sequence of
          returned indices fully determines the schedule — the model
          checker ({!Ff_check.Check}) uses this both to enumerate
          interleavings and to replay a recorded counterexample
          decision-for-decision. *)

val pct_policy : seed:int -> policy
(** PCT-style probabilistic concurrency testing: distinct random
    priorities per thread, highest-priority runnable thread runs, and
    at 3 decision steps drawn uniformly from [\[0, 4096)] the running
    thread is demoted below all others.  Deterministic for a given
    seed. *)

val policy_of_spec : ?seed:int -> string -> policy
(** ["fifo"], ["random"] or ["pct"], seeded; for CLI/bench flags.
    @raise Invalid_argument on other names. *)

type outcome = {
  makespan_ns : int;  (** simulated time at which the last thread finished *)
  thread_end_ns : int array;  (** per-thread completion times *)
}

val run :
  ?cores:int ->
  ?quantum_ns:int ->
  ?lock_ns:int ->
  ?contention_ns:int ->
  ?policy:policy ->
  ?arena:Ff_pmem.Arena.t ->
  (int -> unit) array ->
  outcome
(** [run bodies] executes [bodies.(i) i] as logical thread [i].
    If [arena] is given, its yield hook and thread id are managed so
    that all PM costs advance the simulated clock of the running
    thread.  Defaults: [cores = 16], [quantum_ns = 400],
    [lock_ns = 20] (cost of an uncontended lock operation),
    [contention_ns = lock_ns] (every acquire/release owns the lock's
    cache line for this long, serialized per lock — the cache-line
    bouncing that makes every-node read locking collapse while
    per-leaf locking stays cheap).  @raise Failure on deadlock. *)
