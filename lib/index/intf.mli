(** Uniform driver interface over every index structure.

    Keys are positive OCaml ints (the paper's 8-byte integer keys).
    Values are nonzero ints; like the paper's record pointers, values
    inserted into one index must be {b unique} — FAST's transient-
    inconsistency detection relies on pointer uniqueness (Section 3.1),
    and the common interface imposes the same contract on every
    comparator for fairness.  [Workload] generators derive unique
    values from keys. *)

type ops = {
  name : string;
  insert : int -> int -> unit;  (** [insert key value] (or update) *)
  search : int -> int option;
  delete : int -> bool;  (** true if the key was present *)
  range : int -> int -> (int -> int -> unit) -> unit;
      (** [range lo hi f] calls [f key value] for keys in [\[lo, hi\]]
          in ascending order. *)
  recover : unit -> unit;
      (** Reattach/rebuild after a crash ({!Ff_pmem.Arena.power_fail}). *)
  update : int -> int -> bool;
      (** [update key value] overwrites an existing binding; returns
          false (and stores nothing) when the key is absent. *)
  bulk_insert : (int * int) array -> unit;
      (** Insert many (key, value) pairs; structures with a cheaper
          bulk path may override the default insert loop. *)
  close : unit -> unit;
      (** Quiesce the index: persist pending stores so the arena image
          is complete.  The handle must not be used afterwards. *)
  set_tracer : Ff_trace.Trace.t -> unit;
      (** Attach a tracer so the structure's spans (insert, split,
          recovery, ...) land on its timeline — and its ordered stores
          get code-site attribution.  No-op for uninstrumented
          structures. *)
  read_for_update : int -> int option;
      (** Pre-image read on behalf of a transaction about to write the
          key.  Defaults to [search]; structures with version counters
          or intent locks may override. *)
  install : int -> int option -> unit;
      (** Force a binding: [install k (Some v)] makes [k -> v] current
          (insert or overwrite), [install k None] removes [k]
          (tolerating an already-absent key).  This is the primitive
          transactions commit, roll back, and {e replay} through, so it
          must be idempotent.  Derived from [insert]/[delete]. *)
  snapshot_begin : int -> int;
      (** [snapshot_begin at] quiesces in-flight writers and publishes
          a fresh epoch [e >= max at (current + 1)] crash-atomically
          (payload persisted, then one ordered epoch-word store);
          returns [e].  All mutations committed before the call are
          visible at [e]; later ones are not.  The [at] floor lets a
          cross-shard coordinator align every shard at one global
          epoch (pass [0] for a local snapshot).  Only meaningful on
          structures whose descriptor claims [snapshottable]; the
          default raises [Invalid_argument]. *)
  read_at : int -> int -> int option;
      (** [read_at e k]: the value of [k] as of published epoch [e],
          immune to concurrent and later mutations. *)
  range_at : int -> int -> int -> (int -> int -> unit) -> unit;
      (** [range_at e lo hi f]: ascending scan of [\[lo, hi\]] as of
          epoch [e]. *)
  gc_before : int -> int;
      (** [gc_before e] reclaims superseded versions only needed by
          epochs [< e] (through the hardened [Arena.free]) and
          persists [e] as the GC floor — pinning an epoch below the
          floor is refused afterwards.  Returns the number of version
          lines freed. *)
}

val make :
  name:string ->
  insert:(int -> int -> unit) ->
  search:(int -> int option) ->
  delete:(int -> bool) ->
  range:(int -> int -> (int -> int -> unit) -> unit) ->
  recover:(unit -> unit) ->
  ?update:(int -> int -> bool) ->
  ?bulk_insert:((int * int) array -> unit) ->
  ?close:(unit -> unit) ->
  ?set_tracer:(Ff_trace.Trace.t -> unit) ->
  ?read_for_update:(int -> int option) ->
  ?install:(int -> int option -> unit) ->
  ?snapshot_begin:(int -> int) ->
  ?read_at:(int -> int -> int option) ->
  ?range_at:(int -> int -> int -> (int -> int -> unit) -> unit) ->
  ?gc_before:(int -> int) ->
  unit ->
  ops
(** Smart constructor.  [update] defaults to search-then-insert,
    [bulk_insert] to an insert loop, [close] and [set_tracer] to
    no-ops, and the transaction hooks ([read_for_update], [install])
    to derivations from [search]/[insert]/[delete].  The
    snapshot hooks default to raising [Invalid_argument] — only
    structures claiming [Descriptor.caps.snapshottable] provide
    them. *)

val range_count : ops -> int -> int -> int
(** Number of entries a range query visits. *)

val range_list : ops -> int -> int -> (int * int) list
(** Materialized range result, ascending. *)
