(** Configuration of the simulated persistent-memory device and CPU.

    The latency model follows the paper's experimental setup: a
    Quartz-style emulator that charges a configurable read latency per
    LLC-missing cache-line load and a configurable write latency per
    cache-line flush, with a memory-level-parallelism (MLP) discount
    for sequential line accesses (hardware prefetcher), exactly the
    effect Section 5.4 relies on to explain why B+-tree search is less
    latency-sensitive than WORT or SkipList. *)

type memory_order =
  | Tso      (** x86-like: stores are not reordered with stores. *)
  | Non_tso  (** ARM-like: stores between fences are unordered. *)

type t = {
  memory_order : memory_order;
  read_latency_ns : int;   (** PM cache-line read latency (LLC miss). *)
  write_latency_ns : int;  (** PM cache-line write-back (clflush wait). *)
  l1_hit_ns : int;         (** Cost of a load served by the cache sim. *)
  store_ns : int;          (** Cost of a store (absorbed by the cache). *)
  fence_ns : int;          (** mfence on TSO; dmb on non-TSO configs. *)
  branch_miss_ns : int;    (** Mispredict penalty (binary-search probes). *)
  mlp_factor : int;
      (** Divisor applied to [read_latency_ns] for a line access that is
          sequentially adjacent to the previous miss (prefetch hit). *)
  cache_lines : int;       (** LRU capacity of the arena's one shared cache. *)
  max_threads : int;
      (** Bound on simulated thread ids; each keeps its own
          {!Stats.t}. *)
}

val default : t
(** DRAM-speed TSO machine resembling the paper's Haswell testbed. *)

val pm : ?read_ns:int -> ?write_ns:int -> unit -> t
(** TSO machine with PM latencies (defaults 300/300 like Section 5.3). *)

val arm : ?read_ns:int -> ?write_ns:int -> unit -> t
(** Non-TSO machine with dmb fences, modelling the paper's Nexus 5
    setup of Section 5.5 (its 4-byte atomic stores are not modelled:
    every store is one failure-atomic 8-byte word). *)
