(** Fence/flush attribution profile: the tracer's per-site counters
    ({!Ff_trace.Trace.site_table}) normalised per op.

    Fence count is the cost model for PM structures (MOD, Circ-Tree),
    so the audit question is not "how many fences" but "which code
    path issued them" — this table answers it per site (insert, split,
    merge, scrub, batch, recovery, or "untagged"). *)

type row = {
  site : string;
  spans : int;
  stores : int;
  flushes : int;
  fences : int;
  fences_per_op : float;
}

type t = {
  ops : int;
  total_stores : int;
  total_flushes : int;
  total_fences : int;
  rows : row list;  (** sorted by site name *)
}

val of_trace : ops:int -> Ff_trace.Trace.t -> t
(** Snapshot the tracer's attribution counters; [ops] is the op count
    the per-op columns divide by. *)

val fences_per_op : t -> float
val flushes_per_op : t -> float

val pp : Format.formatter -> t -> unit
(** Fixed-width text table with a totals line. *)
