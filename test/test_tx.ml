(* Transaction-layer acceptance tests: the txlog commit protocol, both
   commit paths under direct crash sweeps, the durable-serializability
   checker (clean runs must pass, the torn-commit mutant must fail
   with a replayable counterexample), shard-level two-phase commit,
   and a QCheck property that an aborted transaction prefix is
   observationally invisible on every txnable structure. *)

open Ff_pmem
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Prng = Ff_util.Prng
module Tx = Ff_tx.Tx
module TC = Ff_check.Txcheck
module C = Ff_check.Check
module Cx = Ff_check.Counterexample
module Shard = Ff_shard.Shard

let fresh_arena () = Arena.create ~words:(1 lsl 20) ()

let show st =
  "{"
  ^ String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) st)
  ^ "}"

let dump ops keyspace =
  let acc = ref [] in
  for k = keyspace downto 1 do
    match ops.Intf.search k with Some v -> acc := (k, v) :: !acc | None -> ()
  done;
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* Txlog protocol                                                      *)
(* ------------------------------------------------------------------ *)

let test_txlog_protocol () =
  let a = fresh_arena () in
  let l = Txlog.ensure a in
  Alcotest.(check bool) "starts idle" true (Txlog.state l = Txlog.Idle);
  ignore (Txlog.begin_tx l);
  Txlog.append l { Txlog.key = 5; old_v = 0; new_v = 7 };
  Txlog.append l { Txlog.key = 6; old_v = 7; new_v = 9 };
  (match Txlog.state l with
  | Txlog.In_flight n -> Alcotest.(check int) "in flight" 2 n
  | _ -> Alcotest.fail "expected In_flight");
  Alcotest.(check int) "records read back" 2 (List.length (Txlog.records l));
  Txlog.set_commit l;
  (match Txlog.state l with
  | Txlog.Committed n -> Alcotest.(check int) "committed head" 2 n
  | _ -> Alcotest.fail "expected Committed");
  Txlog.discard l;
  Alcotest.(check bool) "idle after discard" true (Txlog.state l = Txlog.Idle);
  (* prepared / decision protocol *)
  ignore (Txlog.begin_tx l);
  Txlog.append l { Txlog.key = 1; old_v = 0; new_v = 3 };
  Txlog.set_prepared l ~gtid:7 ~coord:2;
  (match Txlog.state l with
  | Txlog.Prepared { gtid; coord; count } ->
      Alcotest.(check int) "gtid" 7 gtid;
      Alcotest.(check int) "coord" 2 coord;
      Alcotest.(check int) "count" 1 count
  | _ -> Alcotest.fail "expected Prepared");
  Alcotest.(check bool) "undecided" false (Txlog.decision l ~gtid:7);
  Txlog.set_commit l;
  Alcotest.(check bool) "decided" true (Txlog.decision l ~gtid:7);
  Alcotest.(check bool) "wrong gtid" false (Txlog.decision l ~gtid:8);
  Txlog.discard l;
  (* reattach discovers the same region *)
  match Txlog.attach a with
  | Some l2 -> Alcotest.(check int) "capacity persists" (Txlog.capacity l) (Txlog.capacity l2)
  | None -> Alcotest.fail "attach failed"

let test_txlog_abandon () =
  let a = fresh_arena () in
  let l = Txlog.ensure a in
  let before = (Arena.total_stats a).Stats.fences in
  ignore (Txlog.begin_tx l);
  Txlog.abandon l;
  Alcotest.(check int) "empty close costs no fences" before
    (Arena.total_stats a).Stats.fences;
  ignore (Txlog.begin_tx l);
  Txlog.append l { Txlog.key = 1; old_v = 0; new_v = 3 };
  Alcotest.check_raises "abandon with records rejected"
    (Invalid_argument "Txlog.abandon: transaction appended records; discard instead")
    (fun () -> Txlog.abandon l)

(* ------------------------------------------------------------------ *)
(* Direct crash sweeps over both commit paths                          *)
(* ------------------------------------------------------------------ *)

(* A three-op transaction is crashed after every store-count offset in
   a window wide enough to cover begin-to-commit; recovery must land
   on exactly the pre- or post-state, decided by whether the commit
   call returned. *)
let crash_sweep_path path mode_of =
  let d = Registry.find_exn "fastfair" in
  let keyspace = 6 in
  let post_expected = [ (1, 101); (2, 102); (4, 14); (5, 15); (6, 16) ] in
  for offset = 1 to 60 do
    let a = fresh_arena () in
    let ops = Registry.build "fastfair" a in
    for k = 1 to keyspace do
      ops.Intf.insert k (10 + k)
    done;
    let mgr = Tx.create ~path a ops in
    let baseline = dump ops keyspace in
    let committed = ref false in
    let commit_started = ref false in
    Arena.set_crash_plan a (Arena.After_stores (Arena.store_count a + offset));
    (try
       let tx = Tx.begin_tx mgr in
       Tx.put tx 1 101;
       Tx.put tx 2 102;
       ignore (Tx.del tx 3);
       commit_started := true;
       Tx.commit tx;
       committed := true
     with Arena.Crashed -> ());
    Arena.power_fail a (mode_of offset);
    let o = d.D.open_existing D.default_config a in
    o.Intf.recover ();
    let mgr2 = Tx.create ~path a o in
    ignore (Tx.recover mgr2);
    let got = dump o keyspace in
    (* All-or-nothing: a returned commit must survive; a crash inside
       the commit call may land either way; anything earlier must
       recover to the pre-state. *)
    let ok =
      if !committed then got = post_expected
      else if !commit_started then got = post_expected || got = baseline
      else got = baseline
    in
    if not ok then
      Alcotest.failf
        "offset %d (committed=%b, commit_started=%b): recovered %s (pre %s)"
        offset !committed !commit_started (show got) (show baseline)
  done

let test_logged_crash_sweep () =
  crash_sweep_path Tx.Logged (fun _ -> Storelog.Keep_none)

let test_shadow_crash_sweep () =
  crash_sweep_path Tx.Shadow (fun _ -> Storelog.Keep_none)

let test_logged_crash_sweep_eviction () =
  crash_sweep_path Tx.Logged (fun o -> Storelog.Random_eviction (Prng.create o))

let test_shadow_crash_sweep_eviction () =
  crash_sweep_path Tx.Shadow (fun o -> Storelog.Random_eviction (Prng.create o))

(* ------------------------------------------------------------------ *)
(* Payload cells persisted by the transaction                          *)
(* ------------------------------------------------------------------ *)

(* Keys bind to one-word cells, as TPC-C rows do.  Each put stores a
   fresh cell and hands it to the transaction as [~payload] (or, for
   the negative control, neither flushes nor passes it).  After every
   crash point and recovery, each bound cell must read its value in the
   persisted image, and the bindings must be all-or-nothing.  Returns
   the offsets whose recovered state is wrong. *)
let payload_sweep ?(pass_payload = true) path mode_of =
  let d = Registry.find_exn "fastfair" in
  let keyspace = 6 in
  let pre = List.init keyspace (fun i -> (i + 1, 11 + i)) in
  let post = [ (1, 101); (2, 102); (3, 13); (4, 104); (5, 15); (6, 16) ] in
  let bad = ref [] in
  for offset = 1 to 60 do
    let a = fresh_arena () in
    let ops = Registry.build "fastfair" a in
    let cells = Arena.alloc_raw a (4 * Arena.words_per_line) in
    let next = ref cells in
    let cell v =
      let c = !next in
      incr next;
      Arena.write a c v;
      c
    in
    List.iter
      (fun (k, v) ->
        let c = cell v in
        Arena.flush a c;
        ops.Intf.insert k c)
      pre;
    let mgr = Tx.create ~path a ops in
    let committed = ref false and commit_started = ref false in
    Arena.set_crash_plan a (Arena.After_stores (Arena.store_count a + offset));
    (try
       let tx = Tx.begin_tx mgr in
       List.iter
         (fun k ->
           let c = cell (100 + k) in
           if pass_payload then Tx.put ~payload:c tx k c else Tx.put tx k c)
         [ 1; 2; 4 ];
       commit_started := true;
       Tx.commit tx;
       committed := true
     with Arena.Crashed -> ());
    Arena.power_fail a (mode_of offset);
    let o = d.D.open_existing D.default_config a in
    o.Intf.recover ();
    ignore (Tx.recover (Tx.create ~path a o));
    let got =
      List.map (fun (k, c) -> (k, Arena.peek_persisted a c)) (dump o keyspace)
    in
    let ok =
      if !committed then got = post
      else if !commit_started then got = post || got = pre
      else got = pre
    in
    if not ok then bad := offset :: !bad
  done;
  List.rev !bad

let check_payload_sweep path mode_of () =
  match payload_sweep path mode_of with
  | [] -> ()
  | offs ->
      Alcotest.failf "bound cells lost or torn at offsets %s"
        (String.concat "," (List.map string_of_int offs))

let test_payload_negative_control () =
  List.iter
    (fun path ->
      Alcotest.(check bool) "unpersisted cells are caught" true
        (payload_sweep ~pass_payload:false path (fun _ -> Storelog.Keep_none)
        <> []))
    [ Tx.Logged; Tx.Shadow ]

(* ------------------------------------------------------------------ *)
(* Write-back ordering guard                                           *)
(* ------------------------------------------------------------------ *)

(* The arena applies a group write-back to the persisted image at once,
   so no crash sweep can see a missing fence.  This test reads the
   event stream instead: every grouped ([clwb]) write-back a store
   depends on must be followed by a fence before that store.  A
   standalone flush ([clflush] + [mfence]) carries its own fence. *)
type ev = Store of int | Flush of int * bool (* grouped *) | Fence | Install

let line_of addr = addr / Arena.words_per_line

(* [lines] were each written back somewhere in [evs.(lo .. hi-1)], and
   the last grouped write-back of any of them is fenced before [hi]. *)
let fenced_before evs ~lo ~hi lines =
  let last = ref None and seen = ref [] in
  for i = lo to hi - 1 do
    match evs.(i) with
    | Flush (addr, grouped) when List.mem (line_of addr) lines ->
        seen := line_of addr :: !seen;
        if grouped then last := Some i
    | _ -> ()
  done;
  List.for_all (fun l -> List.mem l !seen) lines
  &&
  match !last with
  | None -> true
  | Some j ->
      let f = ref false in
      for i = j + 1 to hi - 1 do
        if evs.(i) = Fence then f := true
      done;
      !f

(* Three payload-carrying puts through an index whose installs leave
   an [Install] marker in the event stream.  [run ()] executes them in
   one [Tx.run] and returns the events. *)
let ordering_fixture path =
  let a = fresh_arena () in
  let base = Registry.build "fastfair" a in
  for k = 1 to 6 do
    base.Intf.insert k (10 + k)
  done;
  let evs = ref [] in
  let push e = evs := e :: !evs in
  let ops =
    {
      base with
      Intf.install =
        (fun k v ->
          push Install;
          base.Intf.install k v);
    }
  in
  let mgr = Tx.create ~path a ops in
  let cells = Arena.alloc_raw a Arena.words_per_line in
  let log = Arena.root_get a Txlog.slot_addr in
  let run () =
    evs := [];
    Arena.set_event_sink a
      (Some
         {
           Arena.ev_store = (fun addr -> push (Store addr));
           ev_flush = (fun addr -> push (Flush (addr, Arena.in_group a)));
           ev_fence = (fun () -> push Fence);
           ev_alloc = (fun _ _ -> ());
           ev_free = (fun _ _ -> ());
           ev_crash = (fun () -> ());
         });
    (match
       Tx.run mgr (fun tx ->
           List.iteri
             (fun i k ->
               let c = cells + i in
               Arena.write a c (100 + k);
               Tx.put ~payload:c tx k c)
             [ 1; 2; 4 ])
     with
    | Ok () -> ()
    | Error m -> Alcotest.fail m);
    Arena.set_event_sink a None;
    Array.of_list (List.rev !evs)
  in
  (a, cells, log, run)

let test_logged_write_back_ordering () =
  List.iter
    (fun in_caller_group ->
      let a, cells, log, run = ordering_fixture Tx.Logged in
      if in_caller_group then Arena.group_begin a;
      let evs = run () in
      if in_caller_group then Arena.group_end a;
      let installs =
        List.filter (fun i -> evs.(i) = Install) (List.init (Array.length evs) Fun.id)
      in
      Alcotest.(check int) "three installs" 3 (List.length installs);
      let rec go lo n = function
        | [] -> ()
        | hi :: rest ->
            let record = line_of log + 1 + n in
            if
              not
                (fenced_before evs ~lo ~hi
                   [ line_of cells; record; line_of log ])
            then
              Alcotest.failf
                "write %d (caller group %b): payload/record/header write-back \
                 not fenced before the install"
                n in_caller_group;
            go hi (n + 1) rest
      in
      go 0 0 installs;
      (* Commit by truncation: whatever the installs wrote back is
         fenced before the store that clears the head. *)
      let last_install = List.nth installs 2 in
      let trunc = ref (-1) in
      Array.iteri
        (fun i e ->
          if !trunc < 0 && i > last_install && e = Store (log + 2) then trunc := i)
        evs;
      Alcotest.(check bool) "log truncated" true (!trunc > 0);
      let written = ref [] in
      for i = last_install to !trunc - 1 do
        match evs.(i) with
        | Flush (addr, _) -> written := line_of addr :: !written
        | _ -> ()
      done;
      Alcotest.(check bool) "installs fenced before truncation" true
        (fenced_before evs ~lo:last_install ~hi:!trunc !written))
    [ false; true ]

let test_shadow_write_back_ordering () =
  List.iter
    (fun in_caller_group ->
      let a, cells, log, run = ordering_fixture Tx.Shadow in
      if in_caller_group then Arena.group_begin a;
      let evs = run () in
      if in_caller_group then Arena.group_end a;
      let commit = ref (-1) in
      Array.iteri
        (fun i e -> if !commit < 0 && e = Store (log + 1) then commit := i)
        evs;
      Alcotest.(check bool) "commit word stored" true (!commit > 0);
      if
        not
          (fenced_before evs ~lo:0 ~hi:!commit
             [ line_of cells; line_of log + 1; line_of log + 2; line_of log + 3 ])
      then
        Alcotest.failf
          "caller group %b: payload/record write-back not fenced before the \
           commit word"
          in_caller_group)
    [ false; true ]

(* An install that applies and then raises: [Tx.run] must still roll
   that key back before it truncates the log. *)
let test_install_raises_rolls_back () =
  let a = fresh_arena () in
  let base = Registry.build "fastfair" a in
  for k = 1 to 3 do
    base.Intf.insert k (10 + k)
  done;
  (* Rollback re-installs through the same hook, so the fault fires
     once: the forward install of key 2. *)
  let failed = ref false in
  let ops =
    {
      base with
      Intf.install =
        (fun k v ->
          base.Intf.install k v;
          if k = 2 && not !failed then begin
            failed := true;
            failwith "install failed after applying"
          end);
    }
  in
  let mgr = Tx.create a ops in
  (match
     Tx.run mgr (fun tx ->
         Tx.put tx 1 101;
         Tx.put tx 2 102)
   with
  | _ -> Alcotest.fail "install failure was swallowed"
  | exception Failure _ -> ());
  Alcotest.(check (list (pair int int))) "pre-images restored"
    [ (1, 11); (2, 12); (3, 13) ] (dump base 3);
  Alcotest.(check bool) "log idle" true (Txlog.state (Tx.txlog mgr) = Txlog.Idle)

(* Rollback goes through the manager's own ops handle, so a wrapper
   around [install] (a rebalance write tap, a timing shim) sees the
   undo as well as the forward write. *)
let test_rollback_uses_wrapped_install () =
  let a = fresh_arena () in
  let base = Registry.build "fastfair" a in
  let installs = ref 0 in
  let ops =
    {
      base with
      Intf.install =
        (fun k v ->
          incr installs;
          base.Intf.install k v);
    }
  in
  let mgr = Tx.create ~path:Tx.Logged a ops in
  (match Tx.run mgr (fun tx -> Tx.put tx 1 11; Tx.abort tx) with
  | Ok () -> Alcotest.fail "abort did not propagate"
  | Error _ -> ());
  Alcotest.(check int) "forward + rollback installs" 2 !installs;
  Alcotest.(check (option int)) "rolled back" None (base.Intf.search 1)

let test_run_abort () =
  let a = fresh_arena () in
  let ops = Registry.build "fastfair" a in
  ops.Intf.insert 1 11;
  let mgr = Tx.create a ops in
  let before = dump ops 4 in
  (match
     Tx.run mgr (fun tx ->
         Tx.put tx 2 22;
         Tx.abort ~reason:"no thanks" tx)
   with
  | Ok _ -> Alcotest.fail "abort did not propagate"
  | Error r -> Alcotest.(check string) "reason" "no thanks" r);
  Alcotest.(check bool) "state untouched" true (dump ops 4 = before);
  Alcotest.(check int) "abort counted" 1 (Tx.aborts mgr);
  (match Tx.run mgr (fun tx -> Tx.put tx 2 22) with
  | Ok () -> ()
  | Error r -> Alcotest.failf "commit failed: %s" r);
  Alcotest.(check int) "commit counted" 1 (Tx.commits mgr)

(* ------------------------------------------------------------------ *)
(* Durable-serializability checker                                     *)
(* ------------------------------------------------------------------ *)

let small_config =
  {
    TC.default with
    TC.txns = 3;
    ops_per_txn = 2;
    schedules = 4;
    max_crash_points = 6;
    crash_budget = 48;
  }

let test_txcheck_logged_clean () =
  let r = TC.run ~config:small_config "fastfair" in
  Alcotest.(check (option string)) "not skipped" None r.C.skipped;
  Alcotest.(check bool) "crash product ran" true (r.C.crash_runs > 0);
  Alcotest.(check bool) "tx ops checked" true (r.C.ops_checked > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.C.violations)

let test_txcheck_shadow_clean () =
  let config = { small_config with TC.path = Tx.Shadow } in
  let r = TC.run ~config "fastfair" in
  Alcotest.(check (option string)) "not skipped" None r.C.skipped;
  Alcotest.(check int) "no violations" 0 (List.length r.C.violations)

let test_txcheck_non_tso_clean () =
  let config =
    { small_config with TC.non_tso = true; schedules = 2; crash_budget = 32 }
  in
  let r = TC.run ~config "fastfair" in
  Alcotest.(check (option string)) "not skipped" None r.C.skipped;
  Alcotest.(check bool) "crash product ran" true (r.C.crash_runs > 0);
  Alcotest.(check int) "no violations under relaxed PM order" 0
    (List.length r.C.violations)

let test_txcheck_volatile_skipped () =
  let r = TC.run ~config:small_config "blink" in
  Alcotest.(check bool) "volatile index skipped" true (r.C.skipped <> None)

let torn_caught path =
  let config = { small_config with TC.path = path; torn_commit = true } in
  let r = TC.run ~config "fastfair" in
  Alcotest.(check bool) "mutant caught" true (r.C.violations <> []);
  Alcotest.(check bool) "durability violation found" true
    (List.exists (fun v -> v.C.kind = C.Durability) r.C.violations);
  List.find (fun v -> v.C.kind = C.Durability) r.C.violations

(* The artifact round-trips through JSON with its tx extension; the
   replay-dispatch test in test_check replays one. *)
let test_torn_commit_logged_caught () =
  let v = torn_caught Tx.Logged in
  let json = Cx.to_json v.C.counterexample in
  match Cx.of_json json with
  | Error m -> Alcotest.failf "counterexample does not parse: %s" m
  | Ok cx -> (
      match cx.Cx.tx with
      | Some x ->
          Alcotest.(check string) "path recorded" "logged" x.Cx.path;
          Alcotest.(check bool) "torn recorded" true x.Cx.torn
      | None -> Alcotest.fail "tx extension missing")

let test_torn_commit_shadow_caught () = ignore (torn_caught Tx.Shadow)

let test_counterexample_tx_optional () =
  (* A per-op artifact (no tx member) must still parse — and Check's
     own constructor leaves the extension empty. *)
  let v = torn_caught Tx.Logged in
  let cx = { v.C.counterexample with Cx.tx = None } in
  match Cx.of_json (Cx.to_json cx) with
  | Error m -> Alcotest.failf "tx-less artifact does not parse: %s" m
  | Ok cx' -> Alcotest.(check bool) "tx stays empty" true (cx'.Cx.tx = None)

(* ------------------------------------------------------------------ *)
(* Shard-level two-phase commit                                        *)
(* ------------------------------------------------------------------ *)

(* Keys 1 and 2 land on different shards under the hash partition with
   4 shards, making every transfer a genuine two-participant 2PC. *)
let test_shard_txn_commit_and_abort () =
  let sh = Shard.create ~inner:"fastfair" ~shards:4 () in
  for k = 1 to 8 do
    Shard.insert sh ~key:k ~value:(100 + k)
  done;
  (match
     Shard.txn sh (fun t ->
         Shard.txn_put t 1 201;
         Shard.txn_put t 2 202;
         ignore (Shard.txn_del t 3))
   with
  | Ok () -> ()
  | Error r -> Alcotest.failf "txn failed: %s" r);
  Alcotest.(check (option int)) "k1 committed" (Some 201) (Shard.search sh 1);
  Alcotest.(check (option int)) "k2 committed" (Some 202) (Shard.search sh 2);
  Alcotest.(check (option int)) "k3 deleted" None (Shard.search sh 3);
  (match
     Shard.txn sh (fun t ->
         Shard.txn_put t 4 999;
         raise (Tx.Abort "changed my mind"))
   with
  | Ok () -> Alcotest.fail "abort did not surface"
  | Error r -> Alcotest.(check string) "reason" "changed my mind" r);
  Alcotest.(check (option int)) "k4 untouched" (Some 104) (Shard.search sh 4);
  let commits, aborts, _ = Shard.tx_stats sh in
  Alcotest.(check bool) "commits counted" true (commits >= 1);
  Alcotest.(check bool) "aborts counted" true (aborts >= 1)

(* Crash a cross-shard transfer after every store offset on the
   coordinator's arena; after power-fail + recovery the transfer must
   be all-or-nothing on both shards. *)
let test_shard_2pc_crash_atomicity () =
  let saw_pre = ref false and saw_post = ref false in
  for offset = 1 to 50 do
    let sh = Shard.create ~inner:"fastfair" ~shards:4 () in
    for k = 1 to 8 do
      Shard.insert sh ~key:k ~value:(100 + k)
    done;
    let arenas = Shard.arenas sh in
    Array.iter
      (fun a ->
        Arena.set_crash_plan a (Arena.After_stores (Arena.store_count a + offset)))
      arenas;
    (try
       ignore
         (Shard.txn sh (fun t ->
              Shard.txn_put t 1 201;
              Shard.txn_put t 2 202))
     with Arena.Crashed -> ());
    Shard.power_fail sh Storelog.Keep_none;
    Shard.recover sh;
    let v1 = Shard.search sh 1 and v2 = Shard.search sh 2 in
    (match (v1, v2) with
    | Some 101, Some 102 -> saw_pre := true
    | Some 201, Some 202 -> saw_post := true
    | _ ->
        Alcotest.failf "offset %d: transfer torn (%s, %s)" offset
          (match v1 with Some v -> string_of_int v | None -> "none")
          (match v2 with Some v -> string_of_int v | None -> "none"))
  done;
  Alcotest.(check bool) "sweep hit a pre-commit crash" true !saw_pre

(* ------------------------------------------------------------------ *)
(* QCheck: an aborted prefix is observationally invisible              *)
(* ------------------------------------------------------------------ *)

let txnable_names () =
  List.filter_map
    (fun d ->
      if d.D.caps.D.txnable && d.D.name <> "sharded-fastfair" then Some d.D.name
      else None)
    (Registry.all ())

let arbitrary_abort_case =
  QCheck.make
    QCheck.Gen.(
      triple (int_range 0 1_000_000) (int_range 1 6) bool)
    ~print:(fun (seed, nops, shadow) ->
      Printf.sprintf "seed=%d nops=%d path=%s" seed nops
        (if shadow then "shadow" else "logged"))

let prop_abort_prefix_invisible =
  QCheck.Test.make ~count:40
    ~name:"aborted tx prefix leaves every txnable structure unchanged"
    arbitrary_abort_case
    (fun (seed, nops, shadow) ->
      let path = if shadow then Tx.Shadow else Tx.Logged in
      List.for_all
        (fun name ->
          let a = fresh_arena () in
          let ops = Registry.build name a in
          let keyspace = 8 in
          for k = 1 to 5 do
            ops.Intf.insert k (10 + k)
          done;
          let baseline = dump ops keyspace in
          let mgr = Tx.create ~path a ops in
          let rng = Prng.create (seed + 1) in
          let vc = ref 100 in
          let tx = Tx.begin_tx mgr in
          for _ = 1 to nops do
            let k = 1 + Prng.int rng keyspace in
            if Prng.int rng 4 = 0 then ignore (Tx.del tx k)
            else begin
              incr vc;
              Tx.put tx k !vc
            end
          done;
          Tx.rollback tx;
          dump ops keyspace = baseline)
        (txnable_names ()))

let suite =
  [
    Alcotest.test_case "txlog commit protocol" `Quick test_txlog_protocol;
    Alcotest.test_case "txlog abandon is free" `Quick test_txlog_abandon;
    Alcotest.test_case "logged path crash sweep (keep_none)" `Quick
      test_logged_crash_sweep;
    Alcotest.test_case "shadow path crash sweep (keep_none)" `Quick
      test_shadow_crash_sweep;
    Alcotest.test_case "logged path crash sweep (eviction)" `Quick
      test_logged_crash_sweep_eviction;
    Alcotest.test_case "shadow path crash sweep (eviction)" `Quick
      test_shadow_crash_sweep_eviction;
    Alcotest.test_case "logged payload crash sweep (keep_none)" `Quick
      (check_payload_sweep Tx.Logged (fun _ -> Storelog.Keep_none));
    Alcotest.test_case "shadow payload crash sweep (keep_none)" `Quick
      (check_payload_sweep Tx.Shadow (fun _ -> Storelog.Keep_none));
    Alcotest.test_case "logged payload crash sweep (eviction)" `Quick
      (check_payload_sweep Tx.Logged (fun o ->
           Storelog.Random_eviction (Prng.create o)));
    Alcotest.test_case "shadow payload crash sweep (eviction)" `Quick
      (check_payload_sweep Tx.Shadow (fun o ->
           Storelog.Random_eviction (Prng.create o)));
    Alcotest.test_case "payload sweep negative control" `Quick
      test_payload_negative_control;
    Alcotest.test_case "logged write-backs fenced before install" `Quick
      test_logged_write_back_ordering;
    Alcotest.test_case "shadow write-backs fenced before commit word" `Quick
      test_shadow_write_back_ordering;
    Alcotest.test_case "install that raises is rolled back" `Quick
      test_install_raises_rolls_back;
    Alcotest.test_case "rollback goes through the wrapped install" `Quick
      test_rollback_uses_wrapped_install;
    Alcotest.test_case "Tx.run commit/abort bookkeeping" `Quick test_run_abort;
    Alcotest.test_case "txcheck: logged path clean" `Quick
      test_txcheck_logged_clean;
    Alcotest.test_case "txcheck: shadow path clean" `Quick
      test_txcheck_shadow_clean;
    Alcotest.test_case "txcheck: non-TSO cutoff sweep clean" `Quick
      test_txcheck_non_tso_clean;
    Alcotest.test_case "txcheck: volatile index skipped" `Quick
      test_txcheck_volatile_skipped;
    Alcotest.test_case "torn-commit mutant caught (logged)" `Quick
      test_torn_commit_logged_caught;
    Alcotest.test_case "torn-commit mutant caught (shadow)" `Quick
      test_torn_commit_shadow_caught;
    Alcotest.test_case "counterexample tx extension optional" `Quick
      test_counterexample_tx_optional;
    Alcotest.test_case "shard txn commit and abort" `Quick
      test_shard_txn_commit_and_abort;
    Alcotest.test_case "shard 2PC crash atomicity sweep" `Quick
      test_shard_2pc_crash_atomicity;
    QCheck_alcotest.to_alcotest prop_abort_prefix_invisible;
  ]
