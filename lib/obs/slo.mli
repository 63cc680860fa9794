(** Declarative SLO rules evaluated over a tracer's metrics registry,
    with a continuous monitor that emits violations as trace instants.

    Two rule shapes cover the serving-layer objectives: a latency
    bound on a percentile of a named histogram, and an error-budget
    burn rate — bad events (counter prefix, so per-shard labels sum)
    per 1000 ops.  Violations carry the rule name, a human-readable
    detail line, the observed value and the bound. *)

type rule =
  | Latency of {
      rule : string;  (** name quoted in violations *)
      metric : string;  (** histogram name, e.g. ["shard.latency_ns.insert"] *)
      percentile : float;
      bound_ns : int;
    }
  | Burn_rate of {
      rule : string;
      events : string;  (** counter prefix, e.g. ["shard.degraded"] *)
      ops : string;  (** counter prefix, e.g. ["shard.ops"] *)
      max_per_1k : float;
    }
  | Burn_rate_multi of {
      rule : string;
      events : string;
      ops : string;
      max_per_1k : float;
      short_ns : int;  (** fast window: the problem is happening now *)
      long_ns : int;  (** slow window: it has lasted long enough to page *)
    }
      (** SRE-style multi-window burn rate: fires only when the event
          rate exceeds the budget over {e both} windows, suppressing
          one-off blips (short window recovers) and stale alerts (long
          window never accumulates).  Windowed evaluation needs sample
          history and therefore lives in {!Monitor}; the stateless
          {!evaluate} degrades the rule to its lifetime rate. *)

type violation = {
  rule : string;
  detail : string;
  observed : float;
  bound : float;
  at_ns : int;
}

type report = { evaluated : int; at_ns : int; violations : violation list }

val ok : report -> bool

val evaluate : tracer:Ff_trace.Trace.t -> now:int -> rule list -> report
(** One-shot evaluation against current metric values.  Rules whose
    metric has no samples yet pass vacuously. *)

val report_to_json : report -> Ff_trace.Json.t
val pp_report : Format.formatter -> report -> unit

(** Windowed continuous evaluation on the simulated clock.  Each
    violating window emits an [id_slo_violation] instant (detail =
    rule index) into the tracer — visible in the Perfetto export — and
    bumps the ["slo.violations.<rule>"] counter; the final report
    keeps the worst observed violation per rule.

    For {!Burn_rate_multi} rules the monitor records a counter sample
    at every check and evaluates the rate over the short and long
    windows against that history (pruned to the long window); the rule
    fires only when both windows exceed the budget. *)
module Monitor : sig
  type t

  val create : ?window_ns:int -> tracer:Ff_trace.Trace.t -> rule list -> t
  (** [window_ns] defaults to 100us of simulated time. *)

  val tick : t -> now:int -> unit
  (** Evaluate if a window has elapsed; callers may tick per op. *)

  val check : t -> now:int -> unit
  (** Force an evaluation now. *)

  val checks : t -> int
  val report : t -> now:int -> report
end
