(** LRU cache-line residency simulator: an arena's one last-level
    cache, shared by all its simulated threads.

    Decides whether a line access is an LLC hit or a PM miss, and
    whether a miss is sequentially adjacent to the previous miss (in
    which case the hardware prefetcher / memory-level parallelism
    discount of the cost model applies).  The previous miss is the
    cache's, whichever thread took it: one stream per LLC. *)

type t

val create : capacity:int -> t

type outcome =
  | Hit
  | Miss      (** PM miss at the full read latency *)
  | Seq_miss  (** miss on the line after the previous miss: the MLP discount applies *)

val access : t -> int -> outcome
(** [access t line] records an access to [line] and classifies it. *)

val clear : t -> unit
(** Drop every line (a crash discards the volatile image). *)

val resident : t -> int -> bool
