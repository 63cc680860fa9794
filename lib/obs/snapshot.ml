module Histogram = Ff_util.Histogram

(* The headline of one run (throughput, fence economy, latency tail)
   next to its attribution table and SLO verdict.  Everything derives
   from simulated time, so a snapshot is reproducible from its seed. *)

type t = {
  label : string;
  scale : float;
  seed : int;
  ops : int;
  elapsed_ns : int;
  kops : float; (* ops per simulated millisecond = kops/s of sim time *)
  fences_per_op : float;
  flushes_per_op : float;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  profile : Profile.t;
  slo : Slo.report option;
}

let kops_of ~ops ~elapsed_ns =
  if elapsed_ns <= 0 then 0.
  else float_of_int ops /. (float_of_int elapsed_ns /. 1e6)

let make ~label ~scale ~seed ~ops ~elapsed_ns ~latency ?slo ~profile () =
  {
    label;
    scale;
    seed;
    ops;
    elapsed_ns;
    kops = kops_of ~ops ~elapsed_ns;
    fences_per_op = Profile.fences_per_op profile;
    flushes_per_op = Profile.flushes_per_op profile;
    p50_ns = Histogram.percentile latency 50.;
    p99_ns = Histogram.percentile latency 99.;
    p999_ns = Histogram.percentile latency 99.9;
    profile;
    slo;
  }

let pp ppf s =
  Format.fprintf ppf
    "%s: %d ops in %dns (scale %g, seed %d)@.  %.1f kops  %.3f fences/op  \
     %.3f flushes/op@.  latency p50=%dns p99=%dns p999=%dns@."
    s.label s.ops s.elapsed_ns s.scale s.seed s.kops s.fences_per_op
    s.flushes_per_op s.p50_ns s.p99_ns s.p999_ns;
  Profile.pp ppf s.profile;
  match s.slo with None -> () | Some r -> Slo.pp_report ppf r
