(** Log of stores that have reached the (volatile) CPU cache but have
    not yet been flushed to persistent memory.

    This is what gives the simulator real crash semantics: at a crash,
    the persisted image may additionally contain any subset of the
    pending stores that the memory-order model allows —
    - under TSO, an arbitrary per-line {e prefix} of that line's store
      sequence (a cache line is evicted as a snapshot, and stores to a
      line land in program order);
    - under non-TSO strict persistency, any downward-closed set with
      respect to fence ordering and per-word program order.

    The arena keeps a single {e image}, which every store updates at
    once; the log keeps what a crash can still take back.  Each pending
    store carries its {e undo} value, the word's value just before it,
    so the persisted image is the image with every dirty word rolled
    back to the undo value of its oldest pending store.  It is never
    kept: {!persisted} reads one word of it, {!roll_back} builds it and
    {!apply_crash} starts from it.

    The log maps each dirty cache line to its pending stores in program
    order (a chain through flat slab arrays, found through an
    open-addressed line table); a clean line has no entry.
    [flush_line] models [clflush]: the line's stores become persisted,
    which drops them from the log and copies nothing, so the log's size
    follows the dirty state, not the number of stores ever made.  A
    background write-back bounds it: past {!high_water} pending stores,
    the oldest are persisted (always a legal persisted state).
    Recording and flushing allocate nothing once the log's arrays have
    grown; a log that empties gives back arrays a flood grew. *)

type t

val create : unit -> t

val high_water : int
(** [2^16]: when a {!record} leaves more stores than this pending, the
    globally oldest stores are persisted until half remain. *)

val record : t -> addr:int -> value:int -> undo:int -> line:int -> epoch:int -> unit
(** Log a store of [value] that has been applied to the image, where
    [undo] is the word's value just before it.  May persist the oldest
    pending stores (see {!high_water}). *)

val pending : t -> int
(** Number of stores not yet persisted. *)

val flush_line : t -> int -> unit
(** Persist all pending stores of the given line: drop the line from
    the log. *)

val drain : t -> unit
(** Persist every pending store: empty the log ({!Keep_all} without a
    crash). *)

val persisted : t -> image:int array -> line:int -> int -> int
(** [persisted t ~image ~line addr] is the persisted value of word
    [addr] on [line]: the undo value of its oldest pending store, or
    [image.(addr)] if it has none.  O(pending stores of the line). *)

val roll_back : t -> image:int array -> unit
(** Undo every pending store in [image], each line's in reverse program
    order, leaving the persisted image; the log is unchanged.  O(pending
    stores). *)

val rebase_line : t -> image:int array -> int -> unit
(** Set the undo value of each pending store of the line to its word's
    value in [image]: the line's persisted contents become what the
    image holds now, and its pending stores stay pending. *)

type fault_spec = {
  fault_seed : int;  (** seeds a private PRNG; faults replay from it alone *)
  flip_words : int;  (** number of single-bit flips to inject *)
  stuck_words : int; (** number of words forced to all-ones ([max_int]) *)
  fault_lo : int;    (** first word address eligible for a fault *)
  fault_hi : int;    (** one past the last eligible word address *)
}
(** Uncorrectable-media damage applied to the post-crash image:
    [flip_words] random single-bit flips followed by [stuck_words]
    words stuck at all-ones, drawn uniformly from [fault_lo, fault_hi).  The draw order is fixed (flips first, in
    index order, then stuck words), so every fault is replayable from
    [(fault_seed, index)]. *)

type crash_mode =
  | Keep_none
      (** Only explicitly flushed data survives: the adversarial
          "everything still in cache is lost" outcome. *)
  | Keep_all
      (** Every pending store survives (the crash happened after all
          lines were incidentally evicted): together with crash-point
          enumeration this realizes every TSO store-prefix state. *)
  | Random_eviction of Ff_util.Prng.t
      (** Independent random per-line prefixes (TSO). *)
  | Non_tso_random of Ff_util.Prng.t
      (** Random downward-closed set under fence ordering: picks an
          epoch cutoff and random per-word prefixes at the cutoff. *)
  | Non_tso_cutoff of int * Ff_util.Prng.t
      (** Like {!Non_tso_random} but with the epoch cutoff fixed by the
          caller: all pending stores with epoch < cutoff persist, and
          each word at the cutoff epoch persists a random prefix of its
          store sequence.  {!Ff_check} uses this to sweep every fence
          epoch exhaustively instead of sampling one. *)

val apply_faults : image:int array -> fault_spec -> ([ `Flip | `Stuck ] * int) list
(** Apply the media damage of a {!fault_spec} to [image] and return
    the injected faults in injection order (kind, word address).
    {!Arena.power_fail} calls it on the post-crash image when a fault
    plan is armed — the media-error pattern of real PM, where a power
    event damages lines that were otherwise durable — and records the
    fault stats. *)

val pending_epochs : t -> int list
(** Distinct fence epochs among pending stores, sorted ascending —
    the set of meaningful {!Non_tso_cutoff} values for this log. *)

val apply_mode : t -> image:int array -> crash_mode -> unit
(** On an [image] {!roll_back} left, apply again the pending stores the
    mode keeps; the log is unchanged. *)

val apply_crash : t -> image:int array -> crash_mode -> unit
(** Turn [image] into a crash state and clear the log: {!roll_back},
    then {!apply_mode}, so the work is O(pending stores).  [Keep_all]
    leaves [image] as it was.
    Randomized modes iterate lines/words in sorted order (never table order), so for
    a fixed log content and PRNG seed the resulting image is identical
    across OCaml versions — recorded counterexamples replay
    bit-for-bit. *)

val dirty_lines : t -> int list
(** Lines with at least one pending store, in no particular order. *)

val dirty_line_count : t -> int
(** [List.length (dirty_lines t)], in O(1). *)
