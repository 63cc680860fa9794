(** Snapshot-serializability checker for the MVCC snapshot layer.

    One writer thread applies a deterministic commit log ({!Spec})
    through a snapshot-wrapped index ({!Ff_snapshot.Snapshot}), while a
    reader thread pins an epoch racing a seed-drawn writer op, before
    at least one more, and reads the whole keyspace at that epoch —
    twice — racing the rest of the log.  The {!Sweep} driver explores
    the schedule x crash product.

    Three oracles:

    - {e Prefix-window isolation}: the reader records how many log
      entries were fully applied immediately before and after its
      [snapshot_begin] call.  The pinned read vector must equal the
      model state at some commit-log prefix inside that window
      ({!Spec.window}) — a vector matching only a later prefix read
      the future; one matching no prefix is torn.  Reported as
      [Tolerance].
    - {e Stability}: a second full pass over the same pinned epoch,
      taken while the writer keeps committing, must be identical to
      the first.  Reported as [Tolerance].
    - {e Durability}: every crash point is crashed under each crash
      mode.  The recovered image's published epoch, and every key's
      binding at each epoch up to it, depend on the image alone; the
      pre-crash epoch must still be published and re-pinning it must
      reproduce every pre-crash observation.  Reported as [Durability].

    The writer runs the config's [rounds] rounds of [ops] puts/deletes,
    under [Non_tso] memory order if [non_tso] asks for it.  [mutant] arms
    {!Ff_snapshot.Snapshot.mutant_read_latest} (pinned reads silently
    resolve against the live tree).  A run over the mutant must
    produce violations; each counterexample, of family ["snapshot"],
    lets [ffcli check --replay] re-execute it deterministically. *)

val default : Counterexample.config
(** 3 rounds of 4 ops, 8 PCT schedules; otherwise {!Sweep.default}. *)

val pin_after : Counterexample.config -> int
(** The writer op before which the reader's pin lands, drawn from the
    config's seed in [2 .. n-1] for a log of [n >= 3] entries: the
    reader pins once [pin_after - 1 >= 1] ops are applied, racing op
    [pin_after - 1] in flight, and the writer awaits the pin before op
    [pin_after]. *)

val run :
  ?config:Counterexample.config -> ?tracer:Ff_trace.Trace.t -> string -> Sweep.report
(** [run name] checks the registry index [name] (e.g.
    ["snap-fastfair"]) and returns a {!Sweep.report}; an index that is
    not [snapshottable] and persistent with recovery is skipped. *)

val replay : Counterexample.t -> Sweep.report
(** Re-execute one recorded snapshot counterexample. *)
