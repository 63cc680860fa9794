(** Failure-atomic multi-key transactions over any registered index.

    A manager ({!t}) binds an arena's {!Ff_pmem.Txlog} region to one
    index handle (any structure whose descriptor claims [txnable]) and
    runs multi-key transactions through one of two commit paths, both
    behind the same {!commit}:

    - {b Logged} (undo): the transaction runs under one group-flush
      scope, opened at its first write (or the caller's, if one is
      already open) and closed when it retires.  Every write persists
      a combined undo/redo record line (the first write, the log
      header too) as [clwb]s closed by one fence, {e before} the eager
      in-place install.  The payload cells' and the installs' own
      write-backs are [clwb]s too, made durable by one fence before
      commit truncates the log ({!Ff_pmem.Txlog.discard}); that
      truncation is the commit point, and there is no commit word.  A
      crash before truncation rolls back from the undo images, which
      name the old, durable cells.  Classic persistent-memory
      transactions, one fence and one record write-back per write.
    - {b Shadow} (MOD-style minimally ordered): writes stage in a
      volatile write set; commit group-flushes the whole payload with
      a single fence, persists the commit word, then installs under a
      group-flush scope.  O(1) fences per transaction regardless of
      size.

    Per-path costs are attributed to the [tx_begin] / [tx_log] /
    [tx_commit] / [tx_abort] / [tx_replay] profile sites when a tracer
    is attached, so `bench` can report measured fences/op for each. *)

type path = Logged | Shadow

exception Abort of string
(** Raised by {!abort} (and usable by user code inside {!run}) to roll
    the transaction back. *)

type t
(** A transaction manager: one arena + its log region + one index. *)

type tx
(** An open transaction.  Not reusable after {!commit} or
    {!rollback}. *)

val create :
  ?path:path -> ?capacity:int -> Ff_pmem.Arena.t -> Ff_index.Intf.ops -> t
(** Bind a manager to [arena]'s log region (created on first use with
    [capacity] records, default 64) and
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

val begin_tx : t -> tx
(** Open a transaction: staged privately until commit on a [Shadow]
    manager, installed eagerly on a [Logged] one. *)

val get : tx -> int -> int option
(** Read through the transaction: sees the transaction's own
    uncommitted writes. *)

val put : ?payload:int -> tx -> int -> int -> unit
(** Write [key -> value] (insert or overwrite).  Values must be
    nonzero (index contract).

    [payload] is the address of a word the caller stored and [value]
    points to (a fresh row cell).  The transaction persists it for the
    caller, so the caller issues no flush of its own: on [Logged]
    commit writes its line back (each distinct line once) under the
    fence before truncation, and until then recovery would bind the
    key back to its old cell; on [Shadow] it joins the payload group
    ahead of the commit word. *)

val del : tx -> int -> bool
(** Delete; true if the key was visible beforehand. *)

val abort : ?reason:string -> tx -> 'a
(** Raise {!Abort}; pair with {!run} or roll back manually. *)

val commit : tx -> unit
(** Run the commit protocol for the transaction's path.  When this
    returns, the transaction's effects are durable and the log is
    truncated.  On [Logged] the truncation itself is the commit point,
    after one fence covering every payload cell and install; on
    [Shadow] the commit word is, and the installs follow it. *)

val rollback : tx -> unit
(** Undo every effect (logged path: re-install each pre-image through
    the index's [install], newest first, and fence them; shadow path:
    drop the write set) and truncate the log.  A rollback that raises
    still closes the transaction's scope and leaves the log for
    {!recover}. *)

val run : t -> (tx -> 'a) -> ('a, string) result
(** [run t f] opens a transaction, applies [f], and commits.  {!Abort}
    rolls back and returns [Error reason]; any other exception rolls
    back and re-raises.  If that rollback raises too, the transaction
    retires with its log left for {!recover}.  On every way out the
    arena's group scope is as [run] found it. *)

(** {1 Recovery} *)

val recover : t -> [ `Clean | `Redone of int | `Undone of int ]
(** Resolve whatever the log region holds after a crash — redo a
    committed payload, roll back an in-flight one — replaying
    logically through the index's [install] hook.  Call after the
    index's own [recover]. *)

(** {1 Stats} *)

val commits : t -> int
val aborts : t -> int
val replays : t -> int
(** Transactions resolved by {!recover} (redone or undone). *)
