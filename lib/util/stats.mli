(** Small numeric summaries used by the benchmark harness. *)

val mean : float array -> float
(** Arithmetic mean; 0. for an empty array. *)

val stddev : float array -> float
(** Sample standard deviation; 0. for fewer than two points. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]]; sorts a copy.
    Nearest-rank definition; 0. for an empty array. *)

val min_max : float array -> float * float
(** (min, max); (0., 0.) for an empty array. *)
