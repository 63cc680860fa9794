(** Controlled-schedule exploration over {!Ff_mcsim.Mcsim}.

    Everything in the simulator is deterministic except which runnable
    thread runs next, so a schedule {e is} its sequence of scheduling
    choices.  This module records those choices during a run, replays
    a recorded sequence decision-for-decision, and drives two
    exploration strategies over the decision tree: bounded-exhaustive
    DFS (small thread counts) and PCT-style randomized priority
    sampling (everything else). *)

type decision = { arity : int; choice : int }
(** One scheduling decision: [arity] runnable threads, index [choice]
    was picked. *)

type recorder

val recorder : unit -> recorder
val decisions : recorder -> decision array
val choices : recorder -> int array
(** Just the chosen indices — what a counterexample artifact stores. *)

val record_policy :
  ?prefix:int array ->
  fallback:Ff_mcsim.Mcsim.policy ->
  recorder ->
  Ff_mcsim.Mcsim.policy
(** A policy that plays [prefix] first (clamped to the runnable
    count), then delegates to [fallback], recording every decision
    into the recorder.  Replaying the same prefix over the same
    deterministic workload reproduces the execution exactly. *)

type 'a exploration = {
  results : 'a list;
  schedules : int;   (** schedules actually executed *)
  exhausted : bool;  (** DFS covered the whole decision tree *)
}

val dfs :
  max_schedules:int ->
  (prefix:int array -> decision array * 'a) ->
  'a exploration
(** Stateless bounded-exhaustive DFS.  [run ~prefix] must re-execute
    the workload from scratch following [prefix] (extending with its
    own default) and return the full decision trace plus a result. *)

val pct :
  schedules:int ->
  seed:int ->
  (policy:Ff_mcsim.Mcsim.policy -> 'a) ->
  'a exploration
(** One run per seed in [seed .. seed+schedules-1], each under a fresh
    {!Ff_mcsim.Mcsim.pct_policy}. *)
