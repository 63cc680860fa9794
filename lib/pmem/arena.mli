(** Simulated byte-addressable persistent memory.

    The arena is word-addressed (one OCaml [int] per 8-byte word, which
    OCaml 5 stores without tearing — the paper's 8-byte failure-atomic
    store granularity).  A cache line is {!words_per_line} words.

    One image is kept: what the CPU sees, always current.  What PM
    holds, the {e persisted} image, differs from it only on words with
    pending stores, so it is not kept: a {!write} updates the image and
    logs the store as pending together with the word's old value, and
    the persisted image is the image with those stores undone (see
    {!Storelog}).  {!flush} ([clflush] + [mfence] in the paper's
    pseudo-code) persists the pending stores of one line.
    {!power_fail} rolls the image back and applies a
    {!Storelog.crash_mode} — this is how crash experiments enumerate
    every transient state the paper's Section III argues readers must
    tolerate.

    Every access charges simulated nanoseconds to the current thread
    context according to {!Config.t}: LLC misses cost the PM read
    latency (with an MLP/prefetch discount for sequential lines),
    flushes cost the PM write latency, fences cost fence time.  The
    accounting powers every latency figure of the paper. *)

type t

exception Crashed
(** Raised by {!write} / {!flush} when the injected crash plan fires.
    The triggering store is {e not} applied. *)

exception Media_error of int
(** Raised by {!read} when the accessed word lies on a poisoned cache
    line — the simulator's uncorrectable media error.  The payload is
    the word address of the failed load.  {!peek} and {!peek_persisted}
    never raise it (they are the scrubber's diagnostic view of the
    damaged device). *)

type crash_plan =
  | Never
  | After_stores of int  (** raise on store number [k+1] *)
  | After_flushes of int (** raise on flush number [k+1] *)

val words_per_line : int
(** 8 — a 64-byte cache line. *)

val reserved_words : int
(** Words [0 .. reserved_words-1] are root/metadata slots; {!alloc}
    never returns them.  Currently 80: shard inner roots (0-55), the
    transaction log anchor (56-57), the shard manifest (58-60), the
    registry manifest (61-63), the published snapshot epoch cell (64),
    the cross-shard snapshot decision word (65), the snapshot
    version-store anchor (66-67), the rebalance generation, decision
    word and plan-block pointer (68-70), and the replication term/role
    word, applied-seqno high-water and resync marker (71-73; 74-79 are
    spare, keeping the window line-aligned).  The slot map is audited
    against every consumer by [test/test_rebalance.ml]. *)

val create : ?config:Config.t -> words:int -> unit -> t
val config : t -> Config.t
val capacity : t -> int

(** {1 Thread contexts and accounting} *)

val set_tid : t -> int -> unit
(** Select the accounting context (simulated thread); default 0.  A
    thread's context (its cache simulator and {!Stats.t}) is built the
    first time the thread is selected, so an arena holds only the
    contexts of threads it has run.  The id must be below the config's
    [max_threads]. *)

val tid : t -> int

val stats : t -> int -> Stats.t
(** A thread's live statistics.  A thread that was never selected has
    no context and reads as fresh zeroed stats, which are not kept. *)

val total_stats : t -> Stats.t
(** Sum over the threads that have a context. *)

val elapsed_ns : t -> int
(** [Stats.total_ns (total_stats t)], without building the sum: the
    arena's clock outside {!Ff_mcsim.Mcsim.run}.  Allocates nothing. *)

val reset_stats : t -> unit
val set_phase : t -> Stats.phase -> unit

val set_yield_hook : t -> (int -> unit) option -> unit
(** Called after every charged access with the simulated ns of that
    access; the multicore simulator uses it to preempt threads. *)

(** {1 Event sink (observability)}

    An optional hook through which the tracing layer observes PM
    events.  The arena stays below the tracer in the dependency order:
    it only calls plain closures and never learns what records them.
    With no sink installed (the default) the cost is one branch per
    operation; no simulated time is ever charged for eventing, so
    enabling a sink cannot change measured results. *)

type event_sink = {
  ev_store : int -> unit;  (** word store at this address *)
  ev_flush : int -> unit;  (** line flush containing this address *)
  ev_fence : unit -> unit;
  ev_alloc : int -> int -> unit;  (** [addr words] block allocated *)
  ev_free : int -> int -> unit;   (** [addr words] block freed *)
  ev_crash : unit -> unit;        (** {!power_fail} applied *)
}

val set_event_sink : t -> event_sink option -> unit
val event_sink : t -> event_sink option

(** {1 Memory operations} *)

val read : t -> int -> int
(** Charged word load from the image. *)

val write : t -> int -> int -> unit
(** Charged, failure-atomic word store (image + store log). *)

val flush : t -> int -> unit
(** [clflush_with_mfence] of the line containing the address. *)

val flush_range : t -> int -> int -> unit
(** Flush every line overlapping [addr, addr+words). *)

val fence : t -> unit
(** Explicit memory fence ([mfence] / [dmb]); bumps the store epoch. *)

val fence_if_not_tso : t -> unit
(** The paper's [mfence_IF_NOT_TSO]: free on TSO configurations,
    a real fence otherwise. *)

val cpu_work : t -> int -> unit
(** Charge pure CPU time (key comparisons, branch penalties). *)

(** {1 Group flush}

    Inside a group-flush scope every {!flush} behaves like [clwb]
    instead of [clflush_with_mfence]: the line's stores still persist
    immediately (a legal TSO state, so crash
    semantics are unchanged and every crash-sweep result carries over),
    but no fence is implied — the write-back cost overlaps with other
    in-flight write-backs at the MLP discount and no per-flush fence is
    counted.  {!group_end} issues the single fence that makes the whole
    batch durable.  This is the serving layer's group-commit primitive:
    durability is acknowledged at batch granularity, fence and flush
    costs amortize across the batch. *)

val group_begin : t -> unit
(** @raise Invalid_argument if a scope is already open. *)

val group_end : t -> unit
(** Close the scope and issue the batch's durability {!fence}.
    @raise Invalid_argument if no scope is open. *)

val in_group : t -> bool

val peek : t -> int -> int
(** Uncharged read of the image (checkers and debugging only). *)

val peek_persisted : t -> int -> int
(** Uncharged read of the persisted image: the value the word's oldest
    pending store overwrote, or the image word if it has none — what a
    {!Storelog.Keep_none} power failure would leave.  O(pending stores
    of the word's line). *)

(** {1 Allocation} *)

val alloc : t -> int -> int
(** [alloc t words] returns a line-aligned address.  The memory is
    zeroed with ordinary (logged, charged) stores, as a real allocator
    would initialize a fresh node.  @raise Out_of_memory if full. *)

val alloc_raw : t -> int -> int
(** Like {!alloc} but without zeroing: for structures that fully
    initialize their memory themselves.  Reused memory retains stale
    contents, exactly like real PM. *)

val free : t -> int -> int -> unit
(** [free t addr words] returns a block to the size-class free list,
    or shrinks the heap when the block ends at the bump pointer (then
    keeps absorbing free blocks newly exposed at the top, so reclaimed
    tail leaks genuinely reduce {!used_words}).

    Hardened against scrub and caller bugs.
    @raise Invalid_argument if the block is out of the allocated
    region, not line-aligned, already on a free list, or sized
    differently from its recorded live allocation.  Blocks unknown to
    the live table (e.g. leaks reclaimed after a crash destroyed the
    volatile allocator state) are accepted. *)

val used_words : t -> int

val free_words : t -> int
(** Total words currently on free lists. *)

val free_blocks : t -> (int * int) list
(** Free-listed [(addr, words)] blocks, sorted by address. *)

(** {1 Roots} *)

val root_get : t -> int -> int
val root_set : t -> int -> int -> unit
(** Failure-atomic root update: store + flush + fence. *)

(** {1 Crash machinery} *)

val set_crash_plan : t -> crash_plan -> unit
(** Arm a plan by absolute counter value.  Crash experiments use the
    three functions below instead; only code that arms several arenas
    at once needs this. *)

val store_count : t -> int
val flush_count : t -> int

val crash_after : t -> int -> (unit -> unit) -> bool
(** [crash_after a k f] arms a crash [k] stores from now (the store
    that would make the count [store_count a + k + 1] raises, and is
    not applied), runs [f], and returns whether the crash fired.
    {!Crashed} is swallowed; any other exception from [f] propagates.
    The plan is disarmed on every return, so a later store never
    raises.  The arena is left as the crash found it: call
    {!power_fail} to turn it into a post-crash image. *)

val store_span : t -> reopen:(t -> 'h) -> ('h -> unit) -> int
(** [store_span base ~reopen run] is the number of stores [run]
    performs on a reopened clone of [base]: the span of crash points
    [0 .. span] to sweep.  [base] is drained, never otherwise mutated.
    [reopen] attaches a handle ([Fun.id] for node-level code, an index
    or a transaction manager above it) and its own stores are not
    counted. *)

val crash_image :
  t -> reopen:(t -> 'h) -> ('h -> unit) -> at:int -> Storelog.crash_mode -> t
(** [crash_image base ~reopen run ~at mode] clones [base], reopens
    the clone, runs [run] under [crash_after … at] (so the crash
    lands before the [at+1]-th store of [run]; [at >= span] runs to
    completion), then {!power_fail}s the clone under [mode] and
    returns it.  [reopen] runs before the crash is armed, so its
    stores never count towards [at]; the returned clone is disarmed.
    Reopen it again to validate and recover. *)

val crash_points : max_points:int -> int -> int list
(** [crash_points ~max_points span] picks the crash points of a
    sampled sweep over stores [0 .. span]: every point when there are
    at most [max_points] of them, otherwise exactly [max_points]
    ascending, distinct points spread evenly from [0] to [span], both
    ends included.  A [max_points] below 2 counts as 2.  The one
    sampler of every crash sweep: the model checker's candidates and
    the sequential sweeps over {!store_span}. *)

val epoch : t -> int
(** Current store epoch (bumped by every {!fence} and every non-group
    {!flush}).  The model checker records epochs at fence events to
    enumerate crash cutoffs. *)

val pending_epochs : t -> int list
(** Distinct epochs among not-yet-persisted stores, sorted ascending:
    the meaningful {!Storelog.Non_tso_cutoff} values right now. *)

val set_flush_elision : t -> bool -> unit
(** Fault injection: while enabled, {!flush} does all its accounting
    (events, counters, simulated cost, epoch bump) but does {e not}
    persist the line — the missing-[clflush] bug pattern the model
    checker's mutant descriptors use to prove the crash engine can
    detect real durability violations.  Disabled by {!power_fail}
    (recovery code always runs with real flushes) and never inherited
    by {!clone}. *)

val power_fail : t -> Storelog.crash_mode -> unit
(** Turn the image into a crash state: roll every dirty line back to
    its persisted contents and apply the pending stores the mode keeps
    ({!Storelog.apply_crash}, O(pending stores), not O(capacity)).
    Then clear caches and the store log, and disarm the crash plan.
    Free lists and the live-block table are also dropped (allocator
    metadata is volatile, as across {!save_to_file}/{!load_from_file}),
    and an armed {!fault_plan} fires on the post-crash image before
    disarming.  Execution can continue (recovery). *)

(** {1 Media faults}

    A seeded, deterministic model of uncorrectable PM media errors.
    Arm a {!fault_plan} and the next {!power_fail} poisons whole cache
    lines (subsequent charged reads raise {!Media_error}) and injects
    bit flips / stuck words via {!Storelog.Media_fault}.  Poisoning
    scrambles the line's contents with seed-derived garbage, in the
    image and in the persisted state its pending stores would roll
    back to, so repair code must re-derive the data from surviving
    structure rather than peek at it.  An ordinary {!write} to a
    poisoned line clears the poison (the full-line-overwrite repair of
    real platforms).  Poison survives further power failures but is
    {e not} carried through {!save_to_file} — scrub before saving. *)

type fault_kind = Fault_poison | Fault_flip | Fault_stuck

type fault = {
  fault_kind : fault_kind;
  fault_addr : int;  (** word address (line base for poison) *)
  fault_index : int; (** position in the injection sequence *)
}

type fault_plan = {
  fault_seed : int;    (** sole source of randomness; replays exactly *)
  poison_lines : int;  (** lines to poison in [reserved, bump) *)
  flip_words : int;    (** single-bit flips to inject *)
  stuck_words : int;   (** words stuck at all-ones *)
}

type fault_stats = {
  poisoned : int;          (** lines poisoned (plan + {!poison_line}) *)
  flipped : int;
  stuck : int;
  media_error_reads : int; (** charged reads that raised {!Media_error} *)
}

val set_fault_plan : t -> fault_plan option -> unit
(** Arm (or disarm) the one-shot fault plan for the next
    {!power_fail}.  Never inherited by {!clone}. *)

val fault_plan : t -> fault_plan option

val injected_faults : t -> fault list
(** Every fault injected into this arena, in injection order — the
    [(seed, index)] replay record. *)

val fault_stats : t -> fault_stats

val poison_line : t -> int -> unit
(** [poison_line t line] poisons one cache line directly (tests and
    targeted experiments); idempotent. *)

val is_poisoned : t -> int -> bool
(** Whether the line containing this word address is poisoned. *)

val poisoned_lines : t -> int list
(** Poisoned line numbers, sorted ascending. *)

val drain : t -> unit
(** Quiesce: persist all pending stores (legal under TSO — it is the
    all-lines-evicted state, {!Storelog.Keep_all}).  The image already
    holds them, so this only empties the store log.  {!clone} drains
    first. *)

val forget_allocations : t -> unit
(** Drop the volatile allocator metadata (live-block table and free
    lists) while keeping the heap contents and bump pointer — the
    fresh-mount state a reattached {!Segment} or reloaded image starts
    from.  Subsequent {!free}s of pre-existing blocks take the
    unknown-block path, exactly as after {!power_fail}. *)

val clone : t -> t
(** Deep copy for crash-point enumeration.  Drains [t] first, then
    builds the copy with the same constructor as {!create} and carries
    over the image (one array copy), the store/flush/epoch counters,
    the allocator state and the poisoned lines.  Everything else starts fresh: an
    empty store log, tid 0's context only with zeroed statistics, and
    no crash plan, fault plan, event sink or yield hook. *)

val dirty_line_count : t -> int
(** Cache lines holding stores that are not yet persisted. *)

(** {1 File-backed durability}

    The simulated device can be written to and reread from a file,
    which lets tools demonstrate cross-process durability: only the
    {e persisted} image is saved — exactly what would survive a real
    power failure. *)

val save_to_file : t -> string -> unit
(** Serialize the persisted image: a copy of the image rolled back
    through the store log (pending stores are NOT included — call
    {!drain} first if you want them; the arena is not changed). *)

val load_from_file : ?config:Config.t -> string -> t
(** Recreate an arena whose image equals the saved persisted image
    (i.e. the post-crash, post-power-on state).  Allocation metadata
    (bump pointer) is restored; free lists are not (they are volatile,
    as on real PM). *)
