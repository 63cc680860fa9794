(** The writer's commit log shared by the tx, snapshot and rebalance
    checker families: a seed-derived sequence of puts and deletes over
    a small keyspace, with the model state after every prefix.

    Every value is drawn from one counter of distinct odd numbers
    (prefill included), so a binding no writer ever wrote is
    recognisable as fabricated. *)

type op = Put of int * int | Del of int

type values
(** Source of distinct values for one workload. *)

val values : unit -> values

val prefill : values -> prefill:int -> keyspace:int -> (int * int) list
(** Bindings [1 .. min prefill keyspace], each with a fresh value. *)

val draw : values -> Ff_util.Prng.t -> keyspace:int -> op
(** One random op: a key from [1 .. keyspace], then a delete with
    probability 1/4, else a put of a fresh value. *)

val key : op -> int

type t = {
  initial : (int * int) list;  (** prefill bindings *)
  log : op array;              (** the commit log, in order *)
  states : (int * int) list array;
      (** [states.(i)]: sorted model state after the first [i] entries *)
}

val create : Ff_util.Prng.t -> prefill:int -> keyspace:int -> int -> t
(** [create rng ~prefill ~keyspace n]: the prefill, then [n] ops drawn
    from [rng]. *)

val writable : t -> (int * int) list
(** Every binding the prefill or any put may write. *)

val show_state : (int * int) list -> string
val show_binding : int option -> string
