(* The model checker's own acceptance tests: a correct FAST+FAIR must
   pass linearizability + durable-linearizability checking, a
   fence-elided mutant must fail with a counterexample that replays
   deterministically, and the suspended-reader interleaving sweep runs
   registry-wide, gated on the lock-free-reads capability. *)

open Ff_pmem
module Mcsim = Ff_mcsim.Mcsim
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Harness = Ff_workload.Crash_harness
module C = Ff_check.Check
module Cx = Ff_check.Counterexample
module Spec = Ff_check.Spec
module Lin = Ff_check.Linearize

let value_of k = (2 * k) + 1

(* Small budgets keep the suite fast; the CI check-smoke job runs the
   wider sweeps. *)
let small_config =
  {
    C.default with
    C.writers = 2;
    readers = 1;
    ops_per_thread = 2;
    schedules = 6;
    max_crash_points = 6;
    crash_budget = 36;
  }

(* Acceptance: 2 writers + 1 lock-free reader on the real tree — no
   linearizability violation, no crash-state violation. *)
let test_fastfair_clean () =
  let r = C.run ~config:small_config "fastfair" in
  Alcotest.(check (option string)) "not skipped" None r.C.skipped;
  Alcotest.(check int) "schedules explored" small_config.C.schedules r.C.schedules_run;
  Alcotest.(check bool) "crash product ran" true (r.C.crash_runs > 0);
  Alcotest.(check bool) "histories checked" true (r.C.ops_checked > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.C.violations)

let test_fastfair_clean_non_tso () =
  let config = { small_config with C.non_tso = true; schedules = 3; crash_budget = 24 } in
  let r = C.run ~config "fastfair" in
  Alcotest.(check (option string)) "not skipped" None r.C.skipped;
  Alcotest.(check bool) "crash product ran" true (r.C.crash_runs > 0);
  Alcotest.(check int) "no violations under relaxed PM order" 0
    (List.length r.C.violations)

(* Split-forcing concurrent run: 60 prefilled keys and 40 ops over a
   160-key space split 512-byte leaves while other threads descend and
   start at the leaf finger.  A descent that took its finger bounds
   from another thread's route would misroute later keys below the
   finger leaf's range, which the final-state check reports. *)
let test_fastfair_split_forcing () =
  let config =
    {
      C.default with
      C.writers = 3;
      readers = 2;
      ops_per_thread = 8;
      keyspace = 160;
      prefill = 60;
      schedules = 60;
      crashes = false;
      seed = 2;
    }
  in
  let r = C.run ~config "fastfair" in
  Alcotest.(check (option string)) "not skipped" None r.C.skipped;
  Alcotest.(check int) "schedules explored" 60 r.C.schedules_run;
  Alcotest.(check int) "no violations" 0 (List.length r.C.violations)

(* Acceptance: the missing-clflush mutant (accounting happens, the
   persist is dropped) must be caught by the crash product engine, and
   the recorded artifact must reproduce the violation byte-for-byte. *)
let test_elide_flush_mutant_and_replay () =
  let config = { small_config with C.elide_flush = true; schedules = 4 } in
  let r = C.run ~config "fastfair" in
  Alcotest.(check bool) "mutant caught" true (r.C.violations <> []);
  Alcotest.(check bool) "durability violations found" true
    (List.exists (fun v -> v.C.kind = C.Durability) r.C.violations);
  let v =
    List.find (fun v -> v.C.kind = C.Durability) r.C.violations
  in
  let cx = v.C.counterexample in
  Alcotest.(check string) "kind stamped" "durability" cx.Cx.kind;
  Alcotest.(check bool) "crash recorded" true (cx.Cx.crash <> None);
  Alcotest.(check bool) "mutation recorded" true cx.Cx.workload.Cx.elide_flush;
  (* JSON round trip is lossless. *)
  (match Cx.of_json (Cx.to_json cx) with
  | Ok cx' -> Alcotest.(check bool) "json round trip" true (cx = cx')
  | Error e -> Alcotest.fail ("of_json: " ^ e));
  (* Replay reproduces the violation, deterministically. *)
  let replay () =
    let rr = C.replay cx in
    List.map (fun v -> (C.kind_to_string v.C.kind, v.C.detail)) rr.C.violations
  in
  let a = replay () in
  Alcotest.(check bool) "replay reproduces" true (a <> []);
  Alcotest.(check bool) "replay is deterministic" true (a = replay ())

(* One replay entry for every family: a counterexample from each
   family's mutant sweep survives JSON and reproduces through
   [Check.replay], which routes it by its extension; an artifact with
   no extension is a linearizability one. *)
let test_replay_dispatch () =
  let first (r : C.report) =
    match r.C.violations with
    | v :: _ -> v.C.counterexample
    | [] -> Alcotest.failf "%s: mutant sweep found nothing" r.C.index
  in
  let module TC = Ff_check.Txcheck in
  let module SC = Ff_check.Snapcheck in
  let module RC = Ff_check.Rebalcheck in
  let module RepC = Ff_check.Replcheck in
  let cases =
    [
      ( "linearizability",
        C.run
          ~config:{ small_config with C.elide_flush = true; schedules = 4 }
          "fastfair" );
      ( "tx",
        TC.run
          ~config:{ TC.default with TC.torn_commit = true; schedules = 2; crash_budget = 32 }
          "fastfair" );
      ( "snapshot",
        SC.run
          ~config:{ SC.default with SC.mutant = true; schedules = 2; crash_budget = 32 }
          "snap-fastfair" );
      ( "rebalance",
        RC.run
          ~config:
            { RC.default with RC.mutant = true; ops = 12; schedules = 2; crash_budget = 80 }
          "fastfair" );
      ( "replica",
        RepC.run
          ~config:{ RepC.default with RepC.mutant = true; schedules = 8; seed = 42 }
          "fastfair" );
    ]
  in
  List.iter
    (fun (name, r) ->
      match Cx.of_json (Cx.to_json (first r)) with
      | Error e -> Alcotest.failf "%s: counterexample does not parse: %s" name e
      | Ok cx ->
          Alcotest.(check string) (name ^ " routed") name (C.family_of cx).C.name;
          Alcotest.(check bool) (name ^ " reproduces") true
            ((C.replay cx).C.violations <> []))
    cases;
  let bare = { (first (List.assoc "tx" cases)) with Cx.tx = None } in
  Alcotest.(check string) "no extension routes to linearizability" "linearizability"
    (C.family_of bare).C.name

(* DFS explorer: bounded-exhaustive mode runs clean on the real tree
   (tiny budget — the decision tree is far larger than any test
   budget, so we assert the budget was consumed, not exhaustion). *)
let test_dfs_explorer () =
  let config =
    { small_config with C.explorer = C.Dfs; schedules = 4; crashes = false }
  in
  let r = C.run ~config "fastfair" in
  Alcotest.(check (option string)) "not skipped" None r.C.skipped;
  Alcotest.(check int) "budget consumed" 4 r.C.schedules_run;
  Alcotest.(check bool) "distinct schedules, none exhausted" true
    (not r.C.exhausted);
  Alcotest.(check int) "no violations" 0 (List.length r.C.violations)

(* Capability gating: structures without Sim locks or lock-free reads
   are skipped with a reason, never crashed. *)
let test_gating () =
  let r = C.run ~config:small_config "wbtree" in
  Alcotest.(check bool) "wbtree skipped with reason" true (r.C.skipped <> None);
  Alcotest.(check int) "no schedules run" 0 r.C.schedules_run;
  (* blink is volatile: schedules check, crash engine refuses. *)
  let config = { small_config with C.writers = 1; readers = 2; schedules = 2 } in
  let r = C.run ~config "blink" in
  Alcotest.(check bool) "blink crash engine gated" true (r.C.crash_note <> None);
  Alcotest.(check int) "blink crash runs" 0 r.C.crash_runs

(* ------------------------------------------------------------------ *)
(* Registry-wide suspended-reader interleavings (quantum 1)            *)
(* ------------------------------------------------------------------ *)

(* The paper's Section IV scenario, generalized: one writer inserts
   while readers traverse with no locks, preempted at every simulated
   PM access.  Stable (prefilled) keys must never go missing and no
   key may ever surface a wrong value, under several PCT priority
   seeds.  Gated on caps.lock_free_reads — structures whose readers
   lock are skipped with the reason visible in the test output. *)
let suspended_reader_case d () =
  if not d.D.caps.D.lock_free_reads then begin
    Printf.printf "[%s: skipped — readers are not lock-free (%s)]\n%!" d.D.name
      (D.caps_line d);
    Alcotest.skip ()
  end;
  let lock_mode =
    if D.supports_lock_mode d Ff_index.Locks.Sim then Ff_index.Locks.Sim
    else Ff_index.Locks.Single
  in
  let config = { D.default_config with D.lock_mode } in
  let prefill = 8 and extra = 8 in
  let bad = ref [] in
  List.iter
    (fun seed ->
      let a = Arena.create ~words:(1 lsl 20) () in
      let t = Registry.build ~config d.D.name a in
      ignore
        (Mcsim.run ~cores:1 ~arena:a
           [| (fun _ -> for k = 1 to prefill do t.Intf.insert k (value_of k) done) |]);
      let writer _ =
        for k = prefill + 1 to prefill + extra do
          t.Intf.insert k (value_of k)
        done
      in
      let reader _ =
        for _ = 1 to 3 do
          for k = 1 to prefill + extra do
            match t.Intf.search k with
            | None when k <= prefill ->
                bad := Printf.sprintf "seed %d: key %d missing" seed k :: !bad
            | Some v when v <> value_of k ->
                bad :=
                  Printf.sprintf "seed %d: key %d read %d, expected %d" seed k v
                    (value_of k)
                  :: !bad
            | _ -> ()
          done
        done
      in
      ignore
        (Mcsim.run ~cores:1 ~quantum_ns:1
           ~policy:(Mcsim.pct_policy ~seed ())
           ~arena:a
           [| writer; reader; reader |]))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list string)) (d.D.name ^ " reads consistent") [] (List.rev !bad)

let suspended_reader_cases () =
  List.map
    (fun d ->
      Alcotest.test_case ("suspended readers: " ^ d.D.name) `Quick
        (suspended_reader_case d))
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Crash harness: exhaustive mode + failing-point lists                *)
(* ------------------------------------------------------------------ *)

let test_harness_exhaustive () =
  let base = Arena.create ~words:(1 lsl 20) () in
  let t = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.create ~node_bytes:128 base) in
  for k = 1 to 40 do
    t.Intf.insert k (value_of k)
  done;
  let reopen a = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.open_existing ~node_bytes:128 a) in
  let batch (t : Intf.ops) =
    t.Intf.insert 100 (value_of 100);
    t.Intf.insert 101 (value_of 101)
  in
  let validate (t : Intf.ops) =
    List.for_all (fun k -> t.Intf.search k = Some (value_of k)) (List.init 40 (fun i -> i + 1))
  in
  let o = Harness.enumerate ~exhaustive:true ~base ~reopen ~batch ~validate () in
  Alcotest.(check int) "every store is a crash point" (o.Harness.store_span + 1)
    o.Harness.points;
  Alcotest.(check int) "recovered everywhere" o.Harness.points o.Harness.recovered;
  Alcotest.(check (list int)) "no recovery failures" [] o.Harness.failed_recovery

let test_harness_failing_lists () =
  let base = Arena.create ~words:(1 lsl 20) () in
  let t = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.create ~node_bytes:128 base) in
  for k = 1 to 20 do
    t.Intf.insert k (value_of k)
  done;
  let reopen a = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.open_existing ~node_bytes:128 a) in
  let batch (t : Intf.ops) = t.Intf.insert 999 (value_of 999) in
  (* Deliberately demand the batch's own key: early crash points must
     fail, and the failure indices must come back sorted ascending. *)
  let validate (t : Intf.ops) = t.Intf.search 999 = Some (value_of 999) in
  let o = Harness.enumerate ~exhaustive:true ~base ~reopen ~batch ~validate () in
  Alcotest.(check bool) "some points fail" true (o.Harness.failed_recovery <> []);
  Alcotest.(check bool) "point 0 fails" true (List.mem 0 o.Harness.failed_recovery);
  Alcotest.(check int) "bookkeeping adds up"
    o.Harness.points
    (o.Harness.recovered + List.length o.Harness.failed_recovery);
  let sorted l = l = List.sort compare l in
  Alcotest.(check bool) "failure lists ascending" true
    (sorted o.Harness.failed_tolerance && sorted o.Harness.failed_recovery)

(* Stable crash-mode seeding: the default mode for a point index must
   rebuild the identical crash image on every run (SplitMix64 from the
   index, sorted line iteration) — asserted by replaying one eviction
   crash twice and comparing full dumps. *)
let test_default_mode_stable () =
  let dump t =
    let acc = ref [] in
    t.Intf.range min_int max_int (fun k v -> acc := (k, v) :: !acc);
    !acc
  in
  let image k =
    let base = Arena.create ~words:(1 lsl 20) () in
    let t = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.create ~node_bytes:128 base) in
    for i = 1 to 30 do
      t.Intf.insert i (value_of i)
    done;
    Arena.drain base;
    let reopen c = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.open_existing ~node_bytes:128 c) in
    let batch t =
      for i = 100 to 120 do
        t.Intf.insert i (value_of i)
      done
    in
    let t = reopen (Arena.crash_image base ~reopen batch ~at:k (Harness.default_mode k)) in
    t.Intf.recover ();
    dump t
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "point %d replays identically" k)
        true
        (image k = image k))
    [ 3; 17; 41 ]

(* ------------------------------------------------------------------ *)
(* The one model: windows over the commit log, per-key queries, WGL    *)
(* ------------------------------------------------------------------ *)

(* prefix 0 {1->1}; 1 {1->1; 2->3}; 2 = 1 (delete of an absent key);
   3 {2->3}; 4 {2->5} *)
let spec_log =
  Spec.make ~initial:[ (1, 1) ]
    [|
      [ Spec.Insert (2, 3) ];
      [ Spec.Delete 9 ];
      [ Spec.Delete 1 ];
      [ Spec.Insert (2, 5) ];
    |]

let admitted t ~lo ~hi obs = Result.is_ok (Spec.window t ~lo ~hi obs)

let test_spec_window () =
  let t = spec_log in
  for p = 1 to 3 do
    Alcotest.(check (result int string))
      (Printf.sprintf "prefix %d admitted" p)
      (Ok (if p = 2 then 1 else p))
      (Spec.window t ~lo:1 ~hi:3 (Spec.Map (Spec.state t p)))
  done;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "prefix %d just outside rejected" p)
        false
        (admitted t ~lo:1 ~hi:3 (Spec.Map (Spec.state t p))))
    [ 0; 4 ];
  Alcotest.(check (result int string))
    "no prefix matches: the explanation names the nearest and key 2"
    (Error
       "{1->1; 2->7}: no prefix in [1, 3] matches; nearest is prefix 1, where \
        key 2 is 3, not 7")
    (Spec.window t ~lo:1 ~hi:3 (Spec.Map [ (1, 1); (2, 7) ]));
  Alcotest.(check bool) "written: prefill" true (Spec.written t 1 1);
  Alcotest.(check bool) "written: insert" true (Spec.written t 2 5);
  Alcotest.(check bool) "written: value on the wrong key" false (Spec.written t 1 3)

(* The read vector at the pin equals prefix 2, which repeats prefix 1
   (and prefix 1 exists before the window [2, 2]): the window must
   admit it.  The first-match matcher reported this as an isolation
   violation. *)
let test_spec_repeated_prefix () =
  let t = spec_log in
  Alcotest.(check bool) "prefixes 1 and 2 are equal" true
    (Spec.state t 1 = Spec.state t 2);
  Alcotest.(check (result int string)) "pin window [2, 2] admits it" (Ok 2)
    (Spec.window t ~lo:2 ~hi:2 (Spec.Map (Spec.state t 2)))

(* Replica-style per-key query: key 2 was acked by entry 0 (window
   starts at prefix 1), then entry 3 was attempted. *)
let test_spec_per_key () =
  let t = spec_log in
  let ok v = admitted t ~lo:1 ~hi:4 (Spec.Key (2, v)) in
  Alcotest.(check bool) "last-ack value" true (ok (Some 3));
  Alcotest.(check bool) "later attempt" true (ok (Some 5));
  Alcotest.(check bool) "older state (absent)" false (ok None);
  Alcotest.(check bool) "never written" false (ok (Some 9));
  Alcotest.(check bool) "attempt not yet issued" false
    (admitted t ~lo:1 ~hi:3 (Spec.Key (2, Some 5)))

(* Hand-written 3-op histories: t0 insert(1,1) [1,4] overlaps t1
   search(1) [2,3]; t2 delete(1) [5,6] follows both. *)
let test_wgl_histories () =
  let call opid tid op resp inv ret =
    let c = Lin.make_call ~opid ~tid op in
    c.Lin.inv <- inv;
    c.Lin.resp <- Some resp;
    c.Lin.ret <- ret;
    c
  in
  let history found =
    [|
      call 0 0 (Spec.Insert (1, 1)) Spec.Done 1 4;
      call 1 1 (Spec.Search 1) (Spec.Found found) 2 3;
      call 2 2 (Spec.Delete 1) (Spec.Deleted true) 5 6;
    |]
  in
  Alcotest.(check bool) "search may see the overlapping insert" true
    (Lin.check ~final:[] (history (Some 1)) = Ok ());
  Alcotest.(check bool) "search may miss it" true
    (Lin.check ~final:[] (history None) = Ok ());
  Alcotest.(check bool) "a value nobody wrote is rejected" true
    (Result.is_error (Lin.check ~final:[] (history (Some 2))));
  Alcotest.(check bool) "a final state the ops cannot reach is rejected" true
    (Result.is_error (Lin.check ~final:[ (1, 1) ] (history (Some 1))))

let suite =
  [
    Alcotest.test_case "fastfair clean (2w+1r)" `Quick test_fastfair_clean;
    Alcotest.test_case "fastfair clean non-TSO" `Quick test_fastfair_clean_non_tso;
    Alcotest.test_case "fastfair split-forcing (3w+2r)" `Quick test_fastfair_split_forcing;
    Alcotest.test_case "elide-flush mutant + replay" `Quick
      test_elide_flush_mutant_and_replay;
    Alcotest.test_case "replay dispatch: every family" `Quick test_replay_dispatch;
    Alcotest.test_case "dfs explorer" `Quick test_dfs_explorer;
    Alcotest.test_case "capability gating" `Quick test_gating;
    Alcotest.test_case "harness exhaustive mode" `Quick test_harness_exhaustive;
    Alcotest.test_case "harness failing-point lists" `Quick test_harness_failing_lists;
    Alcotest.test_case "default crash mode stable" `Quick test_default_mode_stable;
    Alcotest.test_case "spec window" `Quick test_spec_window;
    Alcotest.test_case "spec repeated prefix in window" `Quick test_spec_repeated_prefix;
    Alcotest.test_case "spec per-key query" `Quick test_spec_per_key;
    Alcotest.test_case "wgl hand-written histories" `Quick test_wgl_histories;
  ]
  @ suspended_reader_cases ()
