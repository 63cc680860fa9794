(** Generic crash-point enumeration over any index.

    Encapsulates the pattern the paper's recoverability argument
    requires (and that the test suite applies to FAST+FAIR at every
    granularity): build a base image, probe how many 8-byte stores an
    operation batch performs, then for (sampled or exhaustive) crash
    points k = 0..N, clone the device, crash before store k+1, apply a
    crash semantics, and validate the reopened index — both {e before}
    recovery (reader tolerance) and after.  The span probe and every
    crash image come from {!Ff_pmem.Arena.store_span} and
    {!Ff_pmem.Arena.crash_image}, the crash-at-store primitive the
    rest of the tree uses too. *)

type outcome = {
  points : int;      (** crash points exercised *)
  tolerated : int;   (** validation passed before recovery ran *)
  recovered : int;   (** validation passed after recovery *)
  store_span : int;  (** total stores of the operation batch *)
  failed_tolerance : int list;
      (** crash-point indices (store counts) whose pre-recovery
          validation failed, ascending — which store broke the readers *)
  failed_recovery : int list;
      (** crash-point indices whose post-recovery validation failed —
          any entry here is a durability bug *)
}

val default_mode : int -> Ff_pmem.Storelog.crash_mode
(** The default crash semantics for point [k]:
    [Random_eviction (Prng.create k)].  The PRNG is seeded from the
    point index alone via {!Ff_util.Prng.create} (SplitMix64) — never
    [Hashtbl.hash] or anything else version-dependent — and
    {!Ff_pmem.Storelog.apply_crash} draws in sorted line order, so a
    recorded (point, seed) pair replays to the identical crash image
    on every OCaml version. *)

val crash_points : max_points:int -> int -> int list
(** [crash_points ~max_points span] picks the crash points of a
    sampled sweep over stores [0 .. span]: every point when there are
    at most [max_points] of them, otherwise exactly [max_points]
    ascending, distinct points spread evenly from [0] to [span], both
    ends included.  A [max_points] below 2 counts as 2. *)

val enumerate :
  ?max_points:int ->
  ?exhaustive:bool ->
  ?mode:(int -> Ff_pmem.Storelog.crash_mode) ->
  base:Ff_pmem.Arena.t ->
  reopen:(Ff_pmem.Arena.t -> Ff_index.Intf.ops) ->
  batch:(Ff_index.Intf.ops -> unit) ->
  validate:(Ff_index.Intf.ops -> bool) ->
  unit ->
  outcome
(** [enumerate ~base ~reopen ~batch ~validate ()] — [base] must be
    quiesced (it is drained and cloned, never mutated).  [reopen]
    reattaches an index to a cloned arena; [batch] runs the operations
    to crash; [validate] checks the committed data (it runs once
    pre-recovery and once after calling the ops' [recover]).
    [max_points] (default 256) caps the points, picked by
    {!crash_points};
    [exhaustive] (default false) ignores [max_points] and tests every
    store as a crash point — the model checker's non-sampled mode;
    [mode] picks the crash semantics per point (default
    {!default_mode}).  A [validate] call that raises counts as failed
    validation (a reader may crash, not just miss, on an intolerable
    transient state). *)

val enumerate_descriptor :
  ?max_points:int ->
  ?exhaustive:bool ->
  ?mode:(int -> Ff_pmem.Storelog.crash_mode) ->
  ?config:Ff_index.Descriptor.config ->
  base:Ff_pmem.Arena.t ->
  descriptor:Ff_index.Descriptor.t ->
  batch:(Ff_index.Intf.ops -> unit) ->
  validate:(Ff_index.Intf.ops -> bool) ->
  unit ->
  outcome option
(** {!enumerate} with [reopen] supplied by a registry descriptor.
    Returns [None] when the descriptor's capabilities exclude recovery
    (e.g. a volatile structure), so generic sweeps can skip instead of
    fail. *)
