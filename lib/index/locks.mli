(** Lock abstraction so the same index code runs both single-threaded
    (no-op locks, used by the latency experiments) and inside the
    multicore simulator (simulated mutexes that block in simulated
    time, used by the Figure 7 scalability experiments). *)

type mode =
  | Single  (** no-op locks for single-threaded runs *)
  | Sim     (** {!Ff_mcsim.Mcsim} locks; only valid inside [Mcsim.run] *)

type mutex

val make_mutex : mode -> mutex
val lock : mutex -> unit
val unlock : mutex -> unit

type rwlock

val rd_lock : rwlock -> unit
val rd_unlock : rwlock -> unit
val wr_lock : rwlock -> unit
val wr_unlock : rwlock -> unit

(** Lazily-created lock tables keyed by node address. *)

module Table : sig
  type t

  val create : mode -> t
  val mode : t -> mode
  val mutex_of : t -> int -> mutex
  val rwlock_of : t -> int -> rwlock
end
