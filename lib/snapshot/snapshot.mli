(** MVCC epoch snapshots, time-travel reads and online backup over any
    registry index.

    The wrapper interposes on every mutation of an inner structure and
    keeps a persistent {e version store} beside it: one entry per
    ever-written key anchoring a prepend-only chain of superseded
    versions, each a closed epoch span [\[begin, end)].  Epochs are
    published crash-atomically through {!Ff_pmem.Epoch} (payload
    persisted, then one ordered epoch-word store), so a pinned
    snapshot's reads are stable against concurrent writers {e and}
    survive [power_fail] + recovery: re-pinning the same epoch after a
    crash returns byte-identical results.

    The registered descriptor ["snap-fastfair"] wraps the FAST+FAIR
    tree and claims [Descriptor.caps.snapshottable]; generic drivers
    reach the machinery through the {!Ff_index.Intf.ops} hooks
    ([snapshot_begin] / [read_at] / [range_at] / [gc_before]).  The
    shadow-transaction path composes for free: staged installs run
    inside a group-flush scope, and publication refuses to pin while a
    scope is open, so a snapshot never observes half a transaction. *)

type t
(** A snapshot-wrapped index instance. *)

val slot_anchor : int
(** Root slot (66) holding the version-store base address; written
    last, manifest-magic style, so store creation is crash-atomic. *)

val create : Ff_pmem.Arena.t -> Ff_index.Intf.ops -> t
(** Wrap a freshly built inner index, allocating and anchoring an
    empty version store of 64 hash chains. *)

val attach : Ff_pmem.Arena.t -> Ff_index.Intf.ops -> t
(** Reattach to a persisted version store from its anchor (after a
    crash or an image reload).
    @raise Invalid_argument when the arena carries none. *)

val ops_of : t -> string -> Ff_index.Intf.ops
(** The wrapped ops: mutations preserve superseded versions, reads and
    scans pass through, and the snapshot hooks are live. *)

val inner : t -> Ff_index.Intf.ops
val arena : t -> Ff_pmem.Arena.t

val recover : t -> unit
(** Inner recovery plus a volatile-cache rebuild from the persisted
    chains. *)

(** {1 Publication and raw epoch reads} *)

val snapshot_begin : t -> int -> int
(** [snapshot_begin t at]: quiesce in-flight writers and any open
    group-flush scope, then publish and return
    [max at (current + 1)].  Idempotent on retry: when [at > 0] is
    already the published epoch (a coordinator re-issuing a pin after
    a transient fault), returns [at] without publishing again.
    @raise Invalid_argument when [at > 0] and the published epoch has
    already moved beyond it.  See
    {!Ff_index.Intf.ops.snapshot_begin}. *)

val read_at : t -> int -> int -> int option
(** [read_at t e k]: the value of [k] as of published epoch [e].
    @raise Invalid_argument below the GC floor. *)

val range_at : t -> int -> int -> int -> (int -> int -> unit) -> unit
(** [range_at t e lo hi f]: ascending scan of [\[lo, hi\]] as of
    epoch [e]. *)

val gc_floor : t -> int
(** Oldest epoch still pinnable; [0] before any {!gc_before}. *)

val gc_before : t -> int -> int
(** [gc_before t e]: persist [e] as the GC floor (first, so a crash
    mid-reclamation cannot resurrect a half-collected epoch), then
    free every version record with [end <= e] and every entry that no
    longer distinguishes a pinnable epoch from the live tree — all
    through the hardened {!Ff_pmem.Arena.free}.  Runs exclusive with
    writers {e and} readers (both quiesce on the publication gate), so
    no walk can hold a pointer into a reclaimed line.  Returns freed
    lines. *)

(** {1 Pinned snapshot handles} *)

type snap

val take : t -> snap
(** Publish a fresh epoch and pin it. *)

val at : t -> epoch:int -> snap
(** Re-pin a previously published epoch (e.g. after recovery).
    @raise Invalid_argument if it was never published or was GC'd. *)

val epoch : snap -> int
val get : snap -> int -> int option
val range : snap -> lo:int -> hi:int -> (int -> int -> unit) -> unit
val release : snap -> unit
(** Unpin; the handle is dead afterwards (reads raise). *)

val gc : t -> int
(** {!gc_before} up to the oldest live pin (everything when none). *)

(** {1 Online backup} *)

val backup :
  t ->
  epoch:int ->
  dest:Ff_index.Intf.ops ->
  ?chunk:int ->
  ?between:(unit -> unit) ->
  unit ->
  int
(** Stream the pinned epoch into [dest] in [chunk]-key batches
    (default 512), calling [between] after each batch lands — the
    hook where a live source keeps serving traffic.  Returns the pair
    count.  The destination is typically a plain inner index built on
    a second arena with a non-default [root_slot] (the
    [relocatable_root] capability). *)

(** {1 Checker fault injection} *)

val mutant_read_latest : bool ref
(** Test-only mutant: resolve reads against the live tree, ignoring
    the pinned epoch.  The model checker's snapshot-serializability
    family must fail with this set. *)

(** {1 Composition}

    Descriptor ["snap-fastfair"] (plus its scrub provider, which adds
    the version store's blocks to the reachability set and quarantines
    poisoned version lines with counted loss) self-registers at load. *)
