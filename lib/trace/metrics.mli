(** Metrics registry: named counters, gauges and log-bucketed
    histograms with JSON and text exposition.

    Names are flat dotted strings; dimension values are folded into the
    name by the caller (e.g. ["fastfair.splits.level1"],
    ["fastfair.latency_ns.insert"]).  Getters create on first use, so
    emitting code never registers anything up front.  Exposition sorts
    names, making output deterministic regardless of update order. *)

type t

val create : unit -> t
val reset : t -> unit

(** {1 Counters} *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit

val counter_value : t -> string -> int
(** 0 when the counter was never touched. *)

val counter_prefix_sum : t -> string -> int
(** Sum of every counter whose name starts with the prefix — recovers
    an ensemble-wide total from per-shard labels
    (["shard.degraded"] matches ["shard.degraded.shard0"], ...). *)

(** {1 Gauges} *)

val set_gauge : t -> string -> float -> unit

(** {1 Histograms} *)

val observe : t -> string -> int -> unit
(** Record one sample into the named {!Ff_util.Histogram}. *)

val histogram : t -> string -> Ff_util.Histogram.t option

val shard_label : string -> int -> string
(** [shard_label base i] is ["<base>.shard<i>"], memoized so hot-path
    emitters don't allocate a fresh name per op. *)

(** {1 Exposition} *)

val to_json : t -> Json.t
(** [{"counters":{..},"gauges":{..},"histograms":{name:{count,mean,
    p50,p90,p99,max}}}], keys sorted. *)

val to_json_string : t -> string

val pp_text : Format.formatter -> t -> unit
(** Prometheus-flavoured plain text: one [name value] line per counter
    and gauge, one [name{quantile}] block per histogram. *)
