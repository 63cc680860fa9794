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
module C = Ff_check.Check
module Cx = Ff_check.Counterexample
module Spec = Ff_check.Spec
module Lin = Ff_check.Linearize

let value_of k = (2 * k) + 1

(* Few schedules keep the suite fast; the CI check-smoke job runs the
   wider sweeps. *)
let small_config =
  { C.default with Cx.writers = 2; readers = 1; ops = 2; schedules = 6 }

(* Acceptance: 2 writers + 1 lock-free reader on the real tree — no
   linearizability violation, no crash-state violation. *)
let test_fastfair_clean () =
  let r = C.run ~config:small_config "fastfair" in
  Alcotest.(check (option string)) "not skipped" None r.C.skipped;
  Alcotest.(check int) "schedules explored" small_config.Cx.schedules r.C.schedules_run;
  Alcotest.(check bool) "crash product ran" true (r.C.crash_runs > 0);
  Alcotest.(check bool) "histories checked" true (r.C.ops_checked > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.C.violations)

let test_fastfair_clean_non_tso () =
  let config = { small_config with Cx.non_tso = true; schedules = 3 } in
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
      Cx.writers = 3;
      readers = 2;
      ops = 8;
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
  let config = { small_config with Cx.mutant = true; schedules = 4 } in
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
  Alcotest.(check bool) "mutation recorded" true cx.Cx.config.Cx.mutant;
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
   family's mutant sweep survives JSON whole and reproduces through
   [Check.replay], which routes it by the family it names.  The
   migrate case crashes arena 1 (the migrate destination), which the
   crash record carries; a version-1 or version-2 artifact is
   refused. *)
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
  let migrate =
    RC.run
      ~config:
        {
          RC.default with
          Cx.mutant = true;
          rebal_kind = RC.Rb_migrate;
          ops = 12;
          schedules = 2;
          seed = 1;
        }
      "fastfair"
  in
  let on_dst =
    match
      List.find_opt
        (fun v ->
          match v.C.counterexample.Cx.crash with
          | Some c -> c.Cx.arena = 1
          | None -> false)
        migrate.C.violations
    with
    | Some v -> v.C.counterexample
    | None -> Alcotest.fail "migrate drop-delta sweep crashed no destination arena"
  in
  Alcotest.(check int) "every store count of both arenas crashed"
    (migrate.C.stores + (2 * (migrate.C.schedules_run + 1)))
    migrate.C.crash_points;
  Alcotest.(check (option (pair int string)))
    "destination crash point" (Some (79, "keep_none"))
    (Option.map (fun c -> (c.Cx.store_count, c.Cx.mode)) on_dst.Cx.crash);
  let cases =
    [
      ( "linearizability",
        first
          (C.run
             ~config:{ small_config with Cx.mutant = true; schedules = 4 }
             "fastfair") );
      ( "tx",
        first
          (TC.run
             ~config:{ TC.default with Cx.mutant = true; schedules = 2 }
             "fastfair") );
      ( "snapshot",
        first
          (SC.run
             ~config:{ SC.default with Cx.mutant = true; schedules = 2 }
             "snap-fastfair") );
      ( "rebalance",
        first
          (RC.run
             ~config:{ RC.default with Cx.mutant = true; ops = 12; schedules = 2 }
             "fastfair") );
      ("rebalance", on_dst);
      ( "replica",
        first
          (RepC.run
             ~config:{ RepC.default with Cx.mutant = true; schedules = 8; seed = 42 }
             "fastfair") );
    ]
  in
  let details (r : C.report) = List.map (fun v -> v.C.detail) r.C.violations in
  List.iter
    (fun (name, cx) ->
      Alcotest.(check bool) (name ^ " round-trips whole") true
        (Cx.of_json (Cx.to_json cx) = Ok cx);
      Alcotest.(check string) (name ^ " routed") name (C.family_of cx).C.name;
      Alcotest.(check bool) (name ^ " reproduces") true
        (List.mem cx.Cx.detail (details (C.replay cx))))
    cases;
  let bare = { (List.assoc "tx" cases) with Cx.family = "linearizability" } in
  Alcotest.(check string) "the family field routes" "linearizability"
    (C.family_of bare).C.name;
  let module Json = Ff_trace.Json in
  let versioned n =
    match Json.of_string (Cx.to_json bare) with
    | Json.Obj m -> Json.to_string (Json.Obj (("version", Json.Int n) :: List.remove_assoc "version" m))
    | _ -> Alcotest.fail "artifact is not a JSON object"
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "version %d refused" n) true
        (Cx.of_json (versioned n)
        = Error (Printf.sprintf "counterexample: unsupported version %d" n)))
    [ 1; 2 ]

(* DFS explorer: bounded-exhaustive mode runs clean on the real tree
   (tiny budget — the decision tree is far larger than any test
   budget, so we assert the budget was consumed, not exhaustion). *)
let test_dfs_explorer () =
  let config =
    { small_config with Cx.explorer = C.Dfs; schedules = 4; crashes = false }
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
  let config = { small_config with Cx.writers = 1; readers = 2; schedules = 2 } in
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
           ~policy:(Mcsim.pct_policy ~seed)
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
(* One thread: a sequential run crashed at every store                 *)
(* ------------------------------------------------------------------ *)

let one_thread = { C.default with Cx.writers = 1; readers = 0 }

(* The sweep crashes at every store count from the phase's start to
   its end, each under the three TSO modes; the flush and fence counts
   are only some of them.  The phase is replayed by hand (the
   checker's workload generator, one writer) to learn its span and its
   flush and fence counts. *)
let test_one_thread_every_store () =
  let config = { one_thread with Cx.ops = 3; seed = 3 } in
  let tracer = Ff_trace.Trace.create () in
  let r = C.run ~config ~tracer "fastfair" in
  Alcotest.(check (option string)) "one thread is checkable" None r.C.skipped;
  Alcotest.(check int) "no violations" 0 (List.length r.C.violations);
  let crashed = ref [] in
  Ff_trace.Trace.iter_events tracer (fun ~tid:_ ~ts:_ -> function
    | Ff_trace.Trace.Inst { name = "check.crash_point"; detail } ->
        crashed := detail :: !crashed
    | _ -> ());
  let points = List.sort_uniq compare !crashed in
  let d = Registry.find_exn "fastfair" in
  let arena =
    Ff_check.Sweep.arena
      ~keys:(config.Cx.keyspace + config.Cx.prefill + config.Cx.ops)
      ()
  in
  let t =
    Registry.build ~config:(Ff_check.Sweep.index_config d ~node_bytes:None) "fastfair" arena
  in
  let values = Spec.values () in
  let initial = Spec.prefill values ~prefill:config.Cx.prefill ~keyspace:config.Cx.keyspace in
  Ff_check.Sweep.in_sim arena (fun () -> List.iter (fun (k, v) -> t.Intf.insert k v) initial);
  let rng = Ff_util.Prng.split (Ff_util.Prng.create config.Cx.seed) in
  let ops =
    List.init config.Cx.ops (fun _ -> Spec.draw values rng ~keyspace:config.Cx.keyspace)
  in
  let first = Arena.store_count arena in
  let marks = ref [] in
  let mark _ = marks := Arena.store_count arena :: !marks in
  Arena.set_event_sink arena
    (Some
       {
         Arena.ev_store = ignore;
         ev_flush = mark;
         ev_fence = (fun () -> mark 0);
         ev_alloc = (fun _ _ -> ());
         ev_free = (fun _ _ -> ());
         ev_crash = ignore;
       });
  Ff_check.Sweep.in_sim arena (fun () ->
      List.iter
        (function
          | Spec.Insert (k, v) -> t.Intf.insert k v
          | Spec.Delete k -> ignore (t.Intf.delete k)
          | Spec.Search k -> ignore (t.Intf.search k))
        ops);
  let last = Arena.store_count arena in
  Alcotest.(check (list int)) "every store count of the phase"
    (List.init (last - first + 1) (fun i -> first + i))
    points;
  Alcotest.(check int) "three modes per point" (3 * List.length points) r.C.crash_runs;
  Alcotest.(check int) "points reported" (List.length points) r.C.crash_points;
  Alcotest.(check int) "stores reported" (last - first) r.C.stores;
  Alcotest.(check bool) "flush and fence counts are candidates" true
    (List.for_all (fun m -> List.mem m points) !marks);
  Alcotest.(check bool) "some candidate is neither a flush nor a fence" true
    (List.exists (fun k -> not (List.mem k !marks)) points)

(* The negative control: with every flush elided, a one-thread run
   loses acknowledged writes, and its counterexample replays. *)
let test_one_thread_mutant () =
  let config =
    { one_thread with Cx.ops = 4; mutant = true }
  in
  let r = C.run ~config "fastfair" in
  match List.filter (fun v -> v.C.kind = C.Durability) r.C.violations with
  | [] -> Alcotest.fail "one-thread elide-flush run found no durability violation"
  | v :: _ -> (
      match Cx.of_json (Cx.to_json v.C.counterexample) with
      | Error e -> Alcotest.fail ("of_json: " ^ e)
      | Ok cx ->
          Alcotest.(check int) "one writer recorded" 1 cx.Cx.config.Cx.writers;
          Alcotest.(check bool) "replay reproduces" true ((C.replay cx).C.violations <> []))

(* Stable crash-mode seeding: random eviction seeded from a point index
   must rebuild the identical crash image on every run (SplitMix64 from
   the index, sorted line iteration) — asserted by replaying one eviction
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
    let c = Arena.clone base in
    let live = reopen c in
    ignore (Crash_util.crash_at c k (fun () -> batch live));
    Arena.power_fail c (Storelog.Random_eviction (Ff_util.Prng.create k));
    let t = reopen c in
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

(* The crash oracle reads each distinct image once, memoized under
   [Arena.image_key] of every arena.  One arena state crashed under
   keep_none and keep_all leaves two images with the same store and
   flush counts: they must get two keys (counters cannot tell them
   apart).  One more pending store that keep_none also drops leaves the
   same image at the next store count: one key.  An allocation moves
   only the bump pointer, which recovery allocates from: a new key. *)
let test_image_key () =
  let a = Arena.create ~words:(1 lsl 12) () in
  let base = Arena.alloc a 16 in
  Arena.write a base 1;
  Arena.flush a base;
  Arena.fence a;
  let reference = Arena.crashed_copy a Storelog.Keep_all in
  let key mode = Arena.image_key ~reference (Arena.crashed_copy a mode) in
  Arena.write a (base + 8) 2;
  let none = key Storelog.Keep_none and all = key Storelog.Keep_all in
  let flushes mode = Arena.flush_count (Arena.crashed_copy a mode) in
  Alcotest.(check int) "equal flush counts" (flushes Storelog.Keep_none)
    (flushes Storelog.Keep_all);
  Alcotest.(check bool) "different words, different keys" false (none = all);
  let stores = Arena.store_count a in
  Arena.write a (base + 9) 3;
  Alcotest.(check bool) "a store later" true (Arena.store_count a > stores);
  Alcotest.(check bool) "same image at two store counts, one key" true
    (key Storelog.Keep_none = none);
  Alcotest.(check bool) "keep_all moved on" false (key Storelog.Keep_all = all);
  ignore (Arena.alloc a 16);
  Alcotest.(check bool) "bump pointer is in the key" false (key Storelog.Keep_none = none)

(* The crash product runs on the live execution: [Sweep.run] sets a
   family up once per explored schedule, however many crash points the
   schedule has, and each crash execution judges the run as it stood
   at its point. *)
let test_one_setup_per_schedule () =
  let module Sweep = Ff_check.Sweep in
  let setups = ref 0 and judged = ref 0 in
  let setup () =
    incr setups;
    let a = Sweep.arena ~keys:1 () in
    let base = Arena.alloc a 8 in
    let start = Arena.store_count a and written = ref 0 in
    let body tid =
      for i = 0 to 2 do
        Arena.write a (base + (2 * i) + tid) 1;
        incr written;
        Arena.flush a base
      done
    in
    (* Stores the threads made that the arena has not counted. *)
    let finish () = !written - (Arena.store_count a - start) in
    { Sweep.arenas = [| a |]; threads = [| body; body |]; finish }
  in
  let judge (r : int Sweep.run) () =
    incr judged;
    if r.Sweep.result = 0 then []
    else [ (Sweep.Durability, "the run does not stand at its crash point") ]
  in
  let schedules = 3 in
  let r =
    Sweep.run
      {
        Sweep.family = "linearizability";
        index = "two writers";
        config = { Sweep.default with Cx.schedules };
        gate = None;
        crash_gate = None;
        canonical_fifo = false;
        mutant = None;
        setup;
        ops = (fun _ -> 0);
        live = (fun _ -> []);
        read = ignore;
        judge;
      }
  in
  Alcotest.(check int) "one setup per schedule" schedules !setups;
  Alcotest.(check int) "six stores, seven points a schedule" (schedules * 7) r.Sweep.crash_points;
  Alcotest.(check int) "three modes per point" (3 * r.Sweep.crash_points) r.Sweep.crash_runs;
  Alcotest.(check int) "every crash execution judged" r.Sweep.crash_runs !judged;
  Alcotest.(check int) "judged at its point" 0 (List.length r.Sweep.violations)

(* A crash before the shard manifest persists leaves an image that the
   sharded index cannot even open: the read reports it as a finding
   instead of raising out of the sweep. *)
let test_read_open_raises () =
  let module Sweep = Ff_check.Sweep in
  let d = Registry.find_exn "sharded-fastfair" in
  Alcotest.(check bool) "lock-free reads" true d.D.caps.D.lock_free_reads;
  let image = Arena.crashed_copy (Sweep.arena ~keys:8 ()) Storelog.Keep_none in
  let i =
    Sweep.read_index d ~node_bytes:None ~keyspace:8 ~written:(fun _ _ -> true)
      ~recover:(fun o -> o.Intf.recover ()) image
  in
  let raised = "pre-recovery reader raised: " in
  (match i.Sweep.before with
  | [ (Sweep.Tolerance, why) ] ->
      Alcotest.(check string) "before recovery" raised
        (String.sub why 0 (min (String.length why) (String.length raised)))
  | _ -> Alcotest.fail "expected one tolerance finding");
  Alcotest.(check bool) "recovery raised too" true (Result.is_error i.Sweep.recovered)

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
    Alcotest.test_case "one thread: every store crashed" `Quick test_one_thread_every_store;
    Alcotest.test_case "one thread: elide-flush replay" `Quick test_one_thread_mutant;
    Alcotest.test_case "default crash mode stable" `Quick test_default_mode_stable;
    Alcotest.test_case "crash image key" `Quick test_image_key;
    Alcotest.test_case "one setup per schedule" `Quick test_one_setup_per_schedule;
    Alcotest.test_case "read of an image that cannot open" `Quick test_read_open_raises;
    Alcotest.test_case "spec window" `Quick test_spec_window;
    Alcotest.test_case "spec repeated prefix in window" `Quick test_spec_repeated_prefix;
    Alcotest.test_case "spec per-key query" `Quick test_spec_per_key;
    Alcotest.test_case "wgl hand-written histories" `Quick test_wgl_histories;
  ]
  @ suspended_reader_cases ()
