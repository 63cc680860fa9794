(** WGL-style linearizability checking over invocation/response
    histories.

    A history is an array of {!call}s stamped with a global counter:
    [inv] when the operation was invoked, [ret] when its response was
    observed ([max_int] while pending — i.e. in flight when a crash
    cut the schedule short).  The checker searches for a total order
    that (1) respects real time — an op can only linearize before
    another if it was invoked before that other's response — and (2)
    agrees with the sequential {!Spec} on every observed response.
    Memoization on (remaining-set, model state) keeps the search
    polynomial on commuting histories. *)

type call = {
  opid : int;
  tid : int;
  op : Spec.op;
  mutable inv : int;   (** global stamp at invocation; -1 = never ran *)
  mutable resp : Spec.resp option;  (** [None] = pending at crash *)
  mutable ret : int;   (** global stamp at response; [max_int] = pending *)
}

val make_call : opid:int -> tid:int -> Spec.op -> call

val max_ops : int
(** History length limit (62: remaining ops are a bitmask in one
    OCaml int). *)

val check :
  ?initial:(int * int) list ->
  ?final:(int * int) list ->
  call array ->
  (unit, string) result
(** [check ~initial history] — [Ok ()] iff the history is
    linearizable against {!Spec} started from [initial].

    With [~final] this is the {e durable} variant: completed ops must
    linearize, pending ops may linearize or vanish, and the resulting
    model state must equal [final] (the post-recovery dump).  [Error]
    carries a human-readable explanation including the history.
    @raise Invalid_argument when the history exceeds {!max_ops}. *)
