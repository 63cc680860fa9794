(** Failure-atomic multi-key transactions over any registered index.

    A manager ({!t}) binds an arena's {!Ff_pmem.Txlog} region to one
    index handle (any structure whose descriptor claims [txnable]) and
    runs multi-key transactions through one of two commit paths, both
    behind the same {!commit}:

    - {b Logged} (undo): every write persists a combined undo/redo
      record, the header and the optional payload line as one
      write-back group closed by one fence, {e before} the eager
      in-place install.  Each install is durable when it returns, so
      truncating the log ({!Ff_pmem.Txlog.discard}) is the commit
      point; there is no commit word.  A crash before truncation rolls
      back from the undo images.  Classic persistent-memory
      transactions.
    - {b Shadow} (MOD-style minimally ordered): writes stage in a
      volatile write set; commit group-flushes the whole payload with
      a single fence, persists the commit word, then installs under a
      group-flush scope.  O(1) fences per transaction regardless of
      size.

    Per-path costs are attributed to the [tx_begin] / [tx_log] /
    [tx_commit] / [tx_abort] / [tx_replay] profile sites when a tracer
    is attached, so `bench` can report measured fences/op for each.

    The two-phase-commit hooks ({!prepare} / {!decide} / {!apply} /
    {!finish}) expose the commit sequence step-by-step for the shard
    layer, which coordinates one deferred transaction per participant
    shard. *)

type path = Logged | Shadow

exception Abort of string
(** Raised by {!abort} (and usable by user code inside {!run}) to roll
    the transaction back. *)

type t
(** A transaction manager: one arena + its log region + one index. *)

type tx
(** An open transaction.  Not reusable after {!commit}, {!rollback},
    or {!finish}. *)

val create :
  ?path:path -> ?capacity:int -> Ff_pmem.Arena.t -> Ff_index.Intf.ops -> t
(** Bind a manager to [arena]'s log region (created on first use with
    [capacity] records, default {!Ff_pmem.Txlog.default_capacity}) and
    the given index handle.  [path] defaults to [Logged].  Re-creating
    a manager after a crash attaches to the surviving region —
    {!recover} then resolves whatever it holds. *)

val path : t -> path
val set_tracer : t -> Ff_trace.Trace.t -> unit
val txlog : t -> Ff_pmem.Txlog.t
val set_torn_commit : t -> bool -> unit
(** Enable the torn-commit mutant on the underlying log: per-append
    persists and pre-commit payload flushes are skipped, so the commit
    point (Shadow's commit word, Logged's in-place installs and
    truncation) goes durable with no ordered persist of the records it
    relies on.  Test-only. *)

(** {1 Transactions} *)

val begin_tx : ?deferred:bool -> t -> tx
(** Open a transaction.  [deferred] forces shadow staging regardless
    of the manager's path (the two-phase-commit hooks require it);
    default follows [path t]. *)

val get : tx -> int -> int option
(** Read through the transaction: sees the transaction's own
    uncommitted writes. *)

val put : ?payload:int -> tx -> int -> int -> unit
(** Write [key -> value] (insert or overwrite).  Values must be
    nonzero (index contract).

    [payload] is the address of a word the caller stored and [value]
    points to (a fresh row cell).  The transaction persists it for the
    caller, so the caller issues no flush of its own: on [Logged] its
    line joins the log append's write-back group, ordered by the same
    fence before the in-place install; on [Shadow] (and in {!prepare})
    it joins the payload group ahead of the commit word (or prepared
    marker). *)

val del : tx -> int -> bool
(** Delete; true if the key was visible beforehand. *)

val abort : ?reason:string -> tx -> 'a
(** Raise {!Abort}; pair with {!run} or roll back manually. *)

val commit : tx -> unit
(** Run the commit protocol for the transaction's path.  When this
    returns, the transaction's effects are durable and the log is
    truncated.  On [Logged] the truncation itself is the commit point;
    on [Shadow] the commit word is, and the installs follow it. *)

val rollback : tx -> unit
(** Undo every effect (logged path: re-install each pre-image through
    the index's [install], newest first; shadow path: drop the write
    set) and truncate the log. *)

val run : t -> (tx -> 'a) -> ('a, string) result
(** [run t f] opens a transaction, applies [f], and commits.  {!Abort}
    rolls back and returns [Error reason]; any other exception rolls
    back and re-raises. *)

(** {1 Two-phase commit hooks}

    For a coordinator shard [c] and participants [p1..pn], the shard
    layer runs: [prepare] on every participant (payload + prepared
    marker), [prepare] then [decide] on the coordinator (its commit
    word is the global decision record), [apply] everywhere, [finish]
    on every participant, and [finish] on the coordinator {e last} —
    so a prepared participant can always still consult the
    coordinator's decision at recovery. *)

val prepare : tx -> gtid:int -> coord:int -> unit
(** Persist the staged payload and the prepared marker.  The
    transaction must be deferred.
    @raise Invalid_argument on an eager transaction. *)

val decide : tx -> unit
(** Coordinator only, after {!prepare}: persist the commit word — the
    global decision point. *)

val decision : t -> gtid:int -> bool
(** Does this manager's log carry a durable commit decision for
    [gtid]?  (The [decided] closure participants use at recovery.) *)

val apply : tx -> unit
(** Install the staged writes in-place under one group-flush scope. *)

val finish : tx -> unit
(** Truncate the log and retire the transaction (counts as a commit). *)

val cancel : tx -> unit
(** Participant-side abort of a staged (possibly prepared)
    transaction: nothing was installed, so just truncate and retire
    (counts as an abort). *)

(** {1 Recovery} *)

val recover :
  ?decided:(gtid:int -> coord:int -> bool) ->
  t ->
  [ `Clean | `Redone of int | `Undone of int | `Aborted of int ]
(** Resolve whatever the log region holds after a crash — redo a
    committed payload, roll back an in-flight one, consult [decided]
    for a prepared one (default: abort) — replaying logically through
    the index's [install] hook.  Call after the index's own
    [recover]. *)

(** {1 Stats} *)

val commits : t -> int
val aborts : t -> int
val replays : t -> int
(** Transactions resolved by {!recover} (redone, undone, or aborted). *)
