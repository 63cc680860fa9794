(* Crash points for the suites, all cut by [Arena.crash_each]: a run
   executes once, and each point is a crashed copy taken on the way. *)

open Ff_pmem

(* The stores [run] makes on a reopened clone of [base]: its crash
   points are [0 .. stores]. *)
let stores_of base ~reopen run =
  let c = Arena.clone base in
  let h = reopen c in
  let start = Arena.store_count c in
  run h;
  Arena.store_count c - start

(* Run [run] once on a reopened clone of [base] (the reopen's own
   stores are not crash points) and call [f k crash] at each of its
   crash points in turn: just before its store [k + 1], and at [k] =
   its stores once it returns.  Checks that every one of the
   [stores_of] store counts was visited, and returns that count. *)
let crash_every base ~reopen run f =
  let stores = stores_of base ~reopen run in
  let c = Arena.clone base in
  let h = reopen c in
  let points = ref 0 in
  Arena.crash_each [| c |] (fun () -> run h) (fun _ k crash ->
      incr points;
      f k crash);
  Alcotest.(check int) "a crash at every store count" (stores + 1) !points;
  stores

exception Cut

(* Run [run] on [a] and stop it just before the store that would make
   [a]'s count, from the call, [k + 1], leaving [a] as the crash found
   it for a [power_fail].  Returns whether the run was stopped: a run
   of [k] stores or fewer completes. *)
let crash_at a k run =
  let ended = ref false in
  let stop _ j _ = if j = k && not !ended then raise Cut in
  match Arena.crash_each [| a |] (fun () -> run (); ended := true) stop with
  | () -> false
  | exception Cut -> true
