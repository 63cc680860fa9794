(** Workload generation and drivers for the experiments.

    Keys follow the paper's setups: uniform random 8-byte integers
    (Figures 3-5, 7), with optional Zipfian skew for the ablation
    benches.  Values are derived from keys ([value_of]) so they meet
    the uniqueness contract of {!Ff_index.Intf}. *)

val value_of : int -> int
(** Unique nonzero odd value for a key (never collides with the
    line-aligned node addresses a tree stores internally). *)

val distinct_uniform : Ff_util.Prng.t -> n:int -> space:int -> int array
(** [n] distinct keys uniform in [\[1, space\]].  [space >= 2 * n]. *)

val sequential : n:int -> int array
(** Keys 1..n. *)

val shuffled_sequential : Ff_util.Prng.t -> n:int -> int array

val zipfian : Ff_util.Prng.t -> n:int -> space:int -> theta:float -> int array
(** [n] draws (with repetition) from a Zipfian over [space] ranks,
    rank-scrambled so hot keys are spread across the key space. *)

(** {1 Operation traces} *)

type op =
  | Insert of int
  | Search of int
  | Delete of int
  | Range of int * int  (** lo, length target in keys *)

type mix = {
  insert_pct : int;
  search_pct : int;
  delete_pct : int;
  range_pct : int;
  range_len : int;  (** fixed scan length target when [scan_len_max = 0] *)
  read_latest : bool;
      (** reads draw from the last 16 inserted keys (YCSB-D's "latest"
          distribution, windowed) *)
  scan_len_max : int;
      (** when positive, each [Range] draws its length uniformly from
          [\[1, scan_len_max\]] (YCSB-E) *)
}

val mix_names : string list
(** Canonical accepted preset names (["ycsb-a"] .. ["ycsb-e"]) — the
    single source for CLI validation and error messages. *)

val ycsb_mix : string -> mix option
(** Preset lookup by name: ["a"|"b"|"c"|"d"|"e"], with or without a
    ["ycsb-"] prefix, case-insensitive.  A: 50% read / 50% update
    (update = insert on a loaded key); B: 95% read / 5% update; C:
    read-only; D: 95% read / 5% insert, reads biased to the latest
    inserts ([read_latest]); E: 95% scan / 5% insert, scan length
    uniform in [\[1, 100\]]. *)

val mixed_trace :
  Ff_util.Prng.t -> n:int -> space:int -> mix -> op array
(** Random trace over the key space with the given percentages
    (must sum to 100).  Presets A/B/C consume the PRNG identically to
    earlier releases; only the [read_latest] / [scan_len_max] paths add
    draws, so existing soak checksums are stable. *)

val run_op : Ff_index.Intf.ops -> op -> int
(** Execute one op; returns a small checksum (found values / counts)
    so the work cannot be optimized away. *)

val run_trace : Ff_index.Intf.ops -> op array -> int

val shard_seed : base:int -> shard:int -> int
(** Deterministic per-shard PRNG seed derived from a base seed and a
    shard id, scrambled so neighbouring shards get uncorrelated
    streams.  Benches use this so a sharded run is reproducible from
    one [--seed]. *)

val load_keys : Ff_index.Intf.ops -> int array -> unit
(** Bulk-insert keys with their standard values. *)
