(** Run snapshot: the headline numbers of one run (throughput, fence
    economy, latency tail), the per-site fence attribution table, and
    the SLO report if one was evaluated.  [bench soak] and
    [ffcli top] print it.

    Everything derives from simulated time, so a snapshot is exactly
    reproducible from its scale and seed. *)

type t = {
  label : string;
  scale : float;
  seed : int;
  ops : int;
  elapsed_ns : int;
  kops : float;  (** ops per simulated millisecond *)
  fences_per_op : float;
  flushes_per_op : float;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  profile : Profile.t;
  slo : Slo.report option;
}

val make :
  label:string ->
  scale:float ->
  seed:int ->
  ops:int ->
  elapsed_ns:int ->
  latency:Ff_util.Histogram.t ->
  ?slo:Slo.report ->
  profile:Profile.t ->
  unit ->
  t

val pp : Format.formatter -> t -> unit
