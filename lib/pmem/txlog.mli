(** Failure-atomic transaction log region.

    A reserved, root-anchored segment of the arena holding combined
    undo/redo records plus a commit-record header — the PM-side half of
    the transaction layer ([Ff_tx.Tx] drives it; [Ff_shard] runs a
    two-phase commit over one log per shard).

    {b Layout.}  Root slot {!slot_addr} holds the region's base word
    address (nonzero once initialized; written {e last}, so a crash
    mid-initialization leaves the arena without a log rather than with
    a torn one) and {!slot_words} its size.  The region starts with one
    header line:

    {v
    +0 magic     +1 commit    +2 head      +3 prepared  +4 coord
    +5 txid
    v}

    followed by one line per record: [tag, seq, key, old, new, chk]
    (values use [0] for "absent"/"delete", legal because index values
    are nonzero by contract; [chk] is an always-odd integrity word
    written last, so a crash mode that persists only a prefix of the
    line's stores leaves a detectably torn record).  [txid] is written
    at begin time, before any [head] store on the same line: since
    crash modes persist per-line store prefixes, a surviving nonzero
    [head] always comes with the matching [txid], and a record slot
    still holding a stale image — internally consistent, checksum and
    all — fails the tag check instead of being replayed at recovery.
    Ids only grow, across reopens too ({!attach} continues past every
    id the region carries), so a stale slot never carries the current
    tag.

    {b Commit-record protocol.}  Records are appended and persisted
    {e before} the in-place updates they guard.  A nonzero [head] puts
    the log in flight; the records are the slots, read up to capacity,
    that validate (tag, sequence number, checksum), so a torn append
    ends the log and [head] itself need only be durable once: the
    first append writes the header back with its record.  An undo-only
    user writes back payload cells at commit ({!write_back_payload}):
    until truncation, recovery binds the key back to its old, durable
    cell.  {!set_commit} persists the commit word
    {e last}: recovery treats a nonzero commit word as "all effects are
    (re)applicable from the redo images", a zero commit word with
    [head > 0] as "roll back from the undo images".  {!discard} clears
    the header, which is the log's only truncation point.  An undo-only
    user whose in-place writes are durable before it truncates (the
    [Logged] path of [Ff_tx.Tx]) needs no commit word: {!discard} is
    its commit point.

    {b Two-phase commit.}  A participant persists its payload, then a
    [prepared] marker naming the coordinator shard; the coordinator's
    commit word is the global decision record.  Recovery consults the
    coordinator (via the closure given to {!resolve}) before choosing
    redo or discard.

    {b Mutant.}  {!set_torn_commit} breaks the protocol — appends and
    the pre-commit payload are never persisted, so the commit word (or,
    on an undo-only path, the truncation) goes durable ahead of the
    records it relies on — reproducing the classic torn-commit bug the
    model checker must detect. *)

type t

type record = {
  key : int;
  old_v : int;  (** pre-image value, [0] when the key was absent *)
  new_v : int;  (** post-image value, [0] for a delete *)
}

val slot_addr : int
(** 56 — root slot holding the region base address. *)

val slot_words : int
(** 57 — root slot holding the region size in words. *)

val ensure : ?capacity:int -> Arena.t -> t
(** Attach to the arena's log region, creating (and root-anchoring) it
    first if the arena has none.  Idempotent; [capacity] (default 64
    records) only applies on creation. *)

val attach : Arena.t -> t option
(** Attach to an existing region; [None] if the arena carries none.
    Transaction ids continue after the largest id the region carries:
    {!begin_tx} after a reopen returns the header's durable [txid] + 1,
    or more when a crash kept a first append's record line but not the
    header line, whose slot then carries the larger tag. *)

val arena : t -> Arena.t
val capacity : t -> int

val set_torn_commit : t -> bool -> unit
(** Fault injection: persist the commit word before the payload (and
    skip the per-append persist), the bug pattern the checker's
    torn-commit mutant proves it can catch.  Test-only. *)

val torn_commit : t -> bool

(** {1 Writing the log} *)

val begin_tx : t -> int
(** Start a transaction; returns its id (monotonic across reopens,
    nonzero).  The log must be idle (discarded).
    @raise Invalid_argument if a transaction is already in flight. *)

val append : ?persist:bool -> ?payload:int -> t -> record -> unit
(** Append one record under the open transaction.  [payload] is the
    address of a word the caller stored and the record's new value
    points to (a fresh row cell); it is remembered for
    {!write_back_payload} (or {!persist_payload}), never written back
    here.

    With [persist = true] (the default) the record line is written back
    (on the transaction's first append, the header line too, carrying
    [txid] and a nonzero [head]) and a fence closes them before
    returning — the undo-logging contract: the pre-image is durable
    before the caller's in-place write.  The caller is expected to hold
    a group-flush scope ({!Arena.group_begin}): the write-backs are
    then [clwb]s and that fence is the append's only one, and the scope
    stays open.  Outside a scope each write-back carries its own fence.
    With [persist = false] the stores are merely issued (shadow path:
    the caller persists the whole payload at once).
    @raise Invalid_argument when the region is full or no transaction
    is open. *)

val write_back_payload : t -> unit
(** Write back every remembered payload line, each line once, with no
    fence: the undo path's payload ordering, closed by the fence
    before {!discard}. *)

val persist_payload : t -> unit
(** Write back every remembered payload line (each line once), every
    appended record line and the header as one group, and fence once —
    the shadow and prepare paths' single payload ordering point, before
    the commit word or prepared marker. *)

val set_commit : t -> unit
(** Persist the commit word (store + flush + fence), {e after} the
    payload per the protocol — unless {!set_torn_commit} inverted it. *)

val set_prepared : t -> gtid:int -> coord:int -> unit
(** Persist the two-phase-commit participant marker: global
    transaction id and coordinator shard index.  Payload must already
    be persisted. *)

val discard : t -> unit
(** Clear commit/head/prepared/coord (one line flush + fence) and
    close the in-flight transaction.  The log is idle afterwards. *)

val abandon : t -> unit
(** Close an open transaction that appended {e nothing}: purely
    volatile, no flush or fence (read-only transactions commit for
    free).
    @raise Invalid_argument if records were appended. *)

(** {1 Reading and recovery} *)

type state =
  | Idle
  | In_flight of int  (** head: records logged, no commit word *)
  | Committed of int  (** commit word set; payload count *)
  | Prepared of { gtid : int; coord : int; count : int }

val state : t -> state
(** Decode the header (post-crash this reads the surviving image). *)

val decision : t -> gtid:int -> bool
(** Coordinator-side query for two-phase-commit recovery: does this
    log carry a durable commit decision for global transaction
    [gtid] (commit word set, prepared marker matching)? *)

val records : t -> record list
(** The logged transaction's records, oldest first: none when [head] is
    zero, else the slots up to capacity while each one's tag matches
    the header's [txid], its sequence number its slot, and its checksum
    its contents.  The first slot that fails (a torn append, or one an
    earlier transaction left) ends the list. *)

val commit_torn : t -> bool
(** True when the commit word is durable but the payload it covers is
    not fully trusted — impossible under the correct protocol (the
    payload's durability fence precedes the commit word's), so this is
    direct evidence of a torn commit.  {!resolve} still replays the
    trusted prefix; the model checker reports it as a durability
    violation. *)

val resolve :
  t ->
  decided:(gtid:int -> coord:int -> bool) ->
  redo:(record -> unit) ->
  undo:(record -> unit) ->
  [ `Clean | `Redone of int | `Undone of int | `Aborted of int ]
(** Recovery: replay or roll back whatever the log holds, then
    {!discard}.

    - [Committed] — replay every record through [redo] (idempotent
      logical re-application), [`Redone n].
    - [In_flight] — roll back through [undo] in reverse append order,
      [`Undone n].
    - [Prepared] — ask [decided] whether the coordinator's decision
      record exists; redo if so, otherwise abort without applying
      anything ([`Aborted n] — a prepared participant made no in-place
      writes).
    - [Idle] — [`Clean]. *)
