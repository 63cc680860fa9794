(* Transaction-layer acceptance tests: the txlog commit protocol, both
   commit paths under direct crash sweeps, the durable-serializability
   checker (clean runs must pass, the torn-commit mutant must fail
   with a replayable counterexample), a transaction on the sharded
   composite across a crash, and a QCheck property that an aborted transaction prefix is
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

(* Crash [run] on [a] at every store-count offset 1 .. 60: just before
   the store that makes the count [offset + 1] while the run is live,
   and once it has returned, at every offset it never reached, where
   the run is complete.  [f offset crash] checks one. *)
let each_offset a run f =
  let ended = ref false in
  Arena.crash_each [| a |]
    (fun () ->
      run ();
      ended := true)
    (fun _ k crash ->
      if !ended then
        for offset = max 1 k to 60 do
          f offset crash
        done
      else if k >= 1 && k <= 60 then f k crash)

(* A three-op transaction is crashed after every store-count offset in
   a window wide enough to cover begin-to-commit; recovery must land
   on exactly the pre- or post-state, decided by whether the commit
   call returned. *)
let crash_sweep_path path mode_of =
  let d = Registry.find_exn "fastfair" in
  let keyspace = 6 in
  let post_expected = [ (1, 101); (2, 102); (4, 14); (5, 15); (6, 16) ] in
  let a = fresh_arena () in
  let ops = Registry.build "fastfair" a in
  for k = 1 to keyspace do
    ops.Intf.insert k (10 + k)
  done;
  let mgr = Tx.create ~path a ops in
  let baseline = dump ops keyspace in
  let committed = ref false in
  let commit_started = ref false in
  let run () =
    let tx = Tx.begin_tx mgr in
    Tx.put tx 1 101;
    Tx.put tx 2 102;
    ignore (Tx.del tx 3);
    commit_started := true;
    Tx.commit tx;
    committed := true
  in
  let points = ref 0 in
  each_offset a run (fun offset crash ->
      incr points;
      let c = crash (mode_of offset) in
      let o = d.D.open_existing D.default_config c in
      o.Intf.recover ();
      let mgr2 = Tx.create ~path c o in
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
          offset !committed !commit_started (show got) (show baseline));
  Alcotest.(check int) "every offset crashed" 60 !points

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
   the negative control, neither flushes nor passes it); the
   transaction then commits, or rolls back when [abort].  Every crash
   point is crashed under each of [modes offset arena]; after recovery,
   each bound cell must read its value in the persisted image, and the
   bindings must be all-or-nothing (an aborted transaction's must name
   the pre-image cells themselves).  Returns the offsets whose
   recovered state is wrong. *)
let payload_sweep ?(pass_payload = true) ?(abort = false) ?config path modes =
  let d = Registry.find_exn "fastfair" in
  let keyspace = 6 in
  let pre = List.init keyspace (fun i -> (i + 1, 11 + i)) in
  let post = [ (1, 101); (2, 102); (3, 13); (4, 104); (5, 15); (6, 16) ] in
  let bad = ref [] in
  let a = Arena.create ?config ~words:(1 lsl 16) () in
  let ops = Registry.build "fastfair" a in
  let cells = Arena.alloc_raw a (4 * Arena.words_per_line) in
  let next = ref cells in
  let cell v =
    let c = !next in
    incr next;
    Arena.write a c v;
    c
  in
  let pre_cells =
    List.map
      (fun (k, v) ->
        let c = cell v in
        Arena.flush a c;
        ops.Intf.insert k c;
        (k, c))
      pre
  in
  let mgr = Tx.create ~path a ops in
  let committed = ref false and commit_started = ref false in
  let run () =
    let tx = Tx.begin_tx mgr in
    List.iter
      (fun k ->
        let c = cell (100 + k) in
        if pass_payload then Tx.put ~payload:c tx k c else Tx.put tx k c)
      [ 1; 2; 4 ];
    if abort then Tx.rollback tx
    else begin
      commit_started := true;
      Tx.commit tx;
      committed := true
    end
  in
  each_offset a run (fun offset crash ->
      List.iter
        (fun mode ->
          let c = crash mode in
          let o = d.D.open_existing D.default_config c in
          o.Intf.recover ();
          ignore (Tx.recover (Tx.create ~path c o));
          let bound = dump o keyspace in
          let got = List.map (fun (k, cell) -> (k, Arena.peek_persisted c cell)) bound in
          let ok =
            if abort then bound = pre_cells && got = pre
            else if !committed then got = post
            else if !commit_started then got = post || got = pre
            else got = pre
          in
          if not ok then bad := offset :: !bad)
        (modes offset a));
  List.sort_uniq compare !bad

let check_payload_sweep ?abort ?config path modes () =
  match payload_sweep ?abort ?config path modes with
  | [] -> ()
  | offs ->
      Alcotest.failf "bound cells lost or torn at offsets %s"
        (String.concat "," (List.map string_of_int offs))

let keep_none _ _ = [ Storelog.Keep_none ]
let eviction o _ = [ Storelog.Random_eviction (Prng.create o) ]

(* A random relaxed-order image plus one image per fence-epoch cutoff
   still pending at the crash. *)
let non_tso o a =
  Storelog.Non_tso_random (Prng.create o)
  :: List.map
       (fun e -> Storelog.Non_tso_cutoff (e, Prng.create (o + e)))
       (Arena.pending_epochs a)

let test_payload_negative_control () =
  List.iter
    (fun path ->
      Alcotest.(check bool) "unpersisted cells are caught" true
        (payload_sweep ~pass_payload:false path keep_none <> []))
    [ Tx.Logged; Tx.Shadow ]

(* ------------------------------------------------------------------ *)
(* Restart                                                             *)
(* ------------------------------------------------------------------ *)

(* A log slot left by an earlier run must not validate in a later one,
   although [Txlog.records] reads past [head]: transaction ids continue
   from the header's durable id.  Run 1 commits five writes and loses
   power; run 2 logs two writes over the first two of those slots and
   crashes with every store kept.  Recovery must undo only run 2's. *)
let test_restart_stale_slots () =
  let d = Registry.find_exn "fastfair" in
  let a = fresh_arena () in
  let ops = Registry.build "fastfair" a in
  for k = 1 to 5 do
    ops.Intf.insert k (10 + k)
  done;
  let mgr = Tx.create ~path:Tx.Logged a ops in
  (match
     Tx.run mgr (fun tx -> List.iter (fun k -> Tx.put tx k (100 + k)) [ 1; 2; 3; 4; 5 ])
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let header_txid () = Arena.peek a (Arena.root_get a Txlog.slot_addr + 5) in
  let reopen () =
    let o = d.D.open_existing D.default_config a in
    o.Intf.recover ();
    let m = Tx.create ~path:Tx.Logged a o in
    (o, m, Tx.recover m)
  in
  Arena.power_fail a Storelog.Keep_none;
  let _, m2, outcome = reopen () in
  Alcotest.(check bool) "run 1 left a clean log" true (outcome = `Clean);
  let durable = header_txid () in
  let tx = Tx.begin_tx m2 in
  Alcotest.(check int) "run 2's id follows the header's" (durable + 1)
    (header_txid ());
  Tx.put tx 1 201;
  Tx.put tx 2 202;
  Arena.power_fail a Storelog.Keep_all;
  let o3, m3, outcome = reopen () in
  (match outcome with
  | `Undone n -> Alcotest.(check int) "only run 2's writes undone" 2 n
  | _ -> Alcotest.fail "expected `Undone");
  Alcotest.(check (list (pair int int))) "committed values kept"
    [ (1, 101); (2, 102); (3, 103); (4, 104); (5, 105) ] (dump o3 5);
  let durable = header_txid () in
  Alcotest.(check int) "begin_tx after attach" (durable + 1)
    (Txlog.begin_tx (Tx.txlog m3))

(* A crash can keep a first append's record line but not the header
   line that names its transaction; ids must continue past that slot's
   tag too, or the next transaction reuses it and the stale slot
   validates as its first record. *)
let test_restart_past_slot_tag () =
  let a = fresh_arena () in
  let l = Txlog.ensure a in
  ignore (Txlog.begin_tx l);
  Txlog.discard l;
  let id = Txlog.begin_tx l in
  Txlog.append ~persist:false l { Txlog.key = 1; old_v = 11; new_v = 101 };
  Arena.flush a (Arena.root_get a Txlog.slot_addr + Arena.words_per_line);
  Arena.power_fail a Storelog.Keep_none;
  Alcotest.(check int) "header kept the earlier id" (id - 1)
    (Arena.peek a (Arena.root_get a Txlog.slot_addr + 5));
  match Txlog.attach a with
  | None -> Alcotest.fail "attach failed"
  | Some l2 ->
      Alcotest.(check int) "ids continue past the slot's tag" (id + 1)
        (Txlog.begin_tx l2)

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

let install_points evs =
  List.filter (fun i -> evs.(i) = Install) (List.init (Array.length evs) Fun.id)

(* Inside the transaction's scope every write-back from [evs.(from)]
   up to the store that truncates the log (the last store to the head
   at [log + 2]) is grouped, so only a fence before that store orders
   them; each of [lines] must be among them. *)
let fenced_before_truncation ?(lines = []) evs log ~from =
  let trunc = ref (-1) in
  Array.iteri (fun i e -> if i > from && e = Store (log + 2) then trunc := i) evs;
  Alcotest.(check bool) "log truncated" true (!trunc > 0);
  let written = ref [] in
  for i = from to !trunc - 1 do
    match evs.(i) with
    | Flush (addr, grouped) ->
        Alcotest.(check bool) "write-back grouped" true grouped;
        written := line_of addr :: !written
    | _ -> ()
  done;
  Alcotest.(check bool) "write-backs" true (!written <> []);
  Alcotest.(check bool) "write-backs fenced before truncation" true
    (fenced_before evs ~lo:from ~hi:!trunc (lines @ !written))

(* Three payload-carrying puts through an index whose installs leave
   an [Install] marker in the event stream.  [run ()] executes them in
   one [Tx.run] (aborting it after the puts when [abort]) and returns
   the events. *)
let ordering_fixture ?(abort = false) path =
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
             [ 1; 2; 4 ];
           if abort then Tx.abort tx)
     with
    | Ok () -> if abort then Alcotest.fail "abort did not propagate"
    | Error m -> if not abort then Alcotest.fail m);
    Arena.set_event_sink a None;
    Array.of_list (List.rev !evs)
  in
  (a, cells, log, run)

(* The undo path's three orderings: each record line is fenced before
   its install's first store, the header line (txid and nonzero head,
   written back with the first append only) before the first install,
   and the payload cells, written back at commit, together with every
   install's write-backs before the truncating store. *)
let test_logged_write_back_ordering () =
  List.iter
    (fun in_caller_group ->
      let a, cells, log, run = ordering_fixture Tx.Logged in
      if in_caller_group then Arena.group_begin a;
      let evs = run () in
      Alcotest.(check bool) "caller's scope left as found" in_caller_group
        (Arena.in_group a);
      if in_caller_group then Arena.group_end a;
      let installs = install_points evs in
      Alcotest.(check int) "three installs" 3 (List.length installs);
      if not (fenced_before evs ~lo:0 ~hi:(List.hd installs) [ line_of log ])
      then
        Alcotest.failf
          "caller group %b: header write-back not fenced before the first \
           install"
          in_caller_group;
      let rec go lo n = function
        | [] -> ()
        | hi :: rest ->
            if not (fenced_before evs ~lo ~hi [ line_of log + 1 + n ]) then
              Alcotest.failf
                "write %d (caller group %b): record write-back not fenced \
                 before the install"
                n in_caller_group;
            go hi (n + 1) rest
      in
      go 0 0 installs;
      fenced_before_truncation ~lines:[ line_of cells ] evs log
        ~from:(List.hd installs))
    [ false; true ]

(* Rollback restores the pre-images inside the same scope; those
   write-backs, too, are fenced before the truncating store. *)
let test_logged_rollback_ordering () =
  let a, _, log, run = ordering_fixture ~abort:true Tx.Logged in
  let evs = run () in
  Alcotest.(check bool) "scope closed" false (Arena.in_group a);
  let installs = install_points evs in
  Alcotest.(check int) "three installs, three undos" 6 (List.length installs);
  (* The undos are the last three installs. *)
  fenced_before_truncation evs log ~from:(List.nth installs 3)

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

(* A Logged transaction holds the arena's group scope from its first
   write until it retires, on every way out of [Tx.run]; a read-only
   one opens none and fences nothing. *)
let test_scope_balanced () =
  let a = fresh_arena () in
  let base = Registry.build "fastfair" a in
  for k = 1 to 3 do
    base.Intf.insert k (10 + k)
  done;
  let fail_on = ref 0 in
  let ops =
    {
      base with
      Intf.install =
        (fun k v ->
          base.Intf.install k v;
          if k = !fail_on then begin
            fail_on := 0;
            failwith "install failed after applying"
          end);
    }
  in
  let mgr = Tx.create ~path:Tx.Logged a ops in
  let scope_closed what =
    Alcotest.(check bool) (what ^ ": scope closed") false (Arena.in_group a)
  in
  let fences () = (Arena.total_stats a).Stats.fences in
  let before = fences () in
  (match Tx.run mgr (fun tx -> Tx.get tx 1) with
  | Ok v -> Alcotest.(check (option int)) "read" (Some 11) v
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "read-only transaction fences" 0 (fences () - before);
  scope_closed "read-only";
  (match
     Tx.run mgr (fun tx ->
         Tx.put tx 1 101;
         Alcotest.(check bool) "scope held while live" true (Arena.in_group a);
         Tx.put tx 2 102)
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  scope_closed "commit";
  (match Tx.run mgr (fun tx -> Tx.put tx 3 103; Tx.abort tx) with
  | Ok () -> Alcotest.fail "abort did not propagate"
  | Error _ -> ());
  scope_closed "abort";
  fail_on := 2;
  (match Tx.run mgr (fun tx -> Tx.put tx 1 111; Tx.put tx 2 112) with
  | _ -> Alcotest.fail "install failure was swallowed"
  | exception Failure _ -> ());
  scope_closed "re-raised install failure";
  Alcotest.(check (list (pair int int))) "committed state only"
    [ (1, 101); (2, 102); (3, 13) ] (dump base 3)

(* A rollback that itself raises must still close the scope, and leave
   the log for recovery to undo. *)
let test_rollback_raises () =
  let a = fresh_arena () in
  let base = Registry.build "fastfair" a in
  for k = 1 to 3 do
    base.Intf.insert k (10 + k)
  done;
  (* Key 2's forward install applies and raises; its undo raises
     without applying.  Recovery's undo, the third call, succeeds. *)
  let calls = ref 0 in
  let ops =
    {
      base with
      Intf.install =
        (fun k v ->
          if k = 2 then begin
            incr calls;
            if !calls = 1 then begin
              base.Intf.install k v;
              failwith "forward install failed"
            end
            else if !calls = 2 then failwith "undo install failed"
          end;
          base.Intf.install k v);
    }
  in
  let mgr = Tx.create ~path:Tx.Logged a ops in
  (match Tx.run mgr (fun tx -> Tx.put tx 1 101; Tx.put tx 2 102) with
  | _ -> Alcotest.fail "install failure was swallowed"
  | exception Failure m ->
      Alcotest.(check string) "original exception wins" "forward install failed" m);
  Alcotest.(check bool) "scope closed" false (Arena.in_group a);
  Arena.group_begin a;
  Arena.group_end a;
  (match Txlog.state (Tx.txlog mgr) with
  | Txlog.In_flight n -> Alcotest.(check int) "log left for recovery" 2 n
  | _ -> Alcotest.fail "expected In_flight");
  (match Tx.recover mgr with
  | `Undone n -> Alcotest.(check int) "undone" 2 n
  | _ -> Alcotest.fail "expected `Undone");
  Alcotest.(check (list (pair int int))) "pre-images restored"
    [ (1, 11); (2, 12); (3, 13) ] (dump base 3);
  match Tx.run mgr (fun tx -> Tx.put tx 3 103) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

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

let small_config = { TC.default with Cx.rounds = 3; ops = 2; schedules = 4 }

let test_txcheck_logged_clean () =
  let r = TC.run ~config:small_config "fastfair" in
  Alcotest.(check (option string)) "not skipped" None r.C.skipped;
  Alcotest.(check bool) "crash product ran" true (r.C.crash_runs > 0);
  Alcotest.(check bool) "tx ops checked" true (r.C.ops_checked > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.C.violations)

let test_txcheck_shadow_clean () =
  let config = { small_config with Cx.tx_path = Tx.Shadow } in
  let r = TC.run ~config "fastfair" in
  Alcotest.(check (option string)) "not skipped" None r.C.skipped;
  Alcotest.(check int) "no violations" 0 (List.length r.C.violations)

let test_txcheck_non_tso_clean () =
  let config =
    { small_config with Cx.non_tso = true; schedules = 2 }
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
  let config = { small_config with Cx.tx_path = path; mutant = true } in
  let r = TC.run ~config "fastfair" in
  Alcotest.(check bool) "mutant caught" true (r.C.violations <> []);
  Alcotest.(check bool) "durability violation found" true
    (List.exists (fun v -> v.C.kind = C.Durability) r.C.violations);
  List.find (fun v -> v.C.kind = C.Durability) r.C.violations

(* The artifact round-trips through JSON with its tx config; the
   replay-dispatch test in test_check replays one. *)
let test_torn_commit_logged_caught () =
  let v = torn_caught Tx.Logged in
  let json = Cx.to_json v.C.counterexample in
  match Cx.of_json json with
  | Error m -> Alcotest.failf "counterexample does not parse: %s" m
  | Ok cx ->
      Alcotest.(check bool) "path recorded" true (cx.Cx.config.Cx.tx_path = Tx.Logged);
      Alcotest.(check bool) "torn recorded" true cx.Cx.config.Cx.mutant

let test_torn_commit_shadow_caught () = ignore (torn_caught Tx.Shadow)

let test_counterexample_tx_optional () =
  (* A per-op artifact (the linearizability family) must still parse,
     and keep its family. *)
  let v = torn_caught Tx.Logged in
  let cx = { v.C.counterexample with Cx.family = "linearizability" } in
  match Cx.of_json (Cx.to_json cx) with
  | Error m -> Alcotest.failf "tx-less artifact does not parse: %s" m
  | Ok cx' ->
      Alcotest.(check string) "tx stays empty" "linearizability" cx'.Cx.family

(* ------------------------------------------------------------------ *)
(* A transaction on the sharded composite across a crash              *)
(* ------------------------------------------------------------------ *)

(* The composite's recover is Shard.recover, which reopens and
   recovers the shards and leaves the arena's transaction log alone.
   Crash a Shadow commit after its commit word is durable, just before
   the first install's first store: Shard.recover must leave the log
   committed, and Tx.recover must then redo it. *)
let test_composite_commit_redone_by_tx_recover () =
  let d = Registry.find_exn "sharded-fastfair" in
  let a = fresh_arena () in
  let ops = Registry.build "sharded-fastfair" a in
  for k = 1 to 8 do
    ops.Intf.insert k (100 + k)
  done;
  let installing = ref false in
  let watched =
    {
      ops with
      Intf.install =
        (fun k v ->
          installing := true;
          ops.Intf.install k v);
    }
  in
  let mgr = Tx.create ~path:Tx.Shadow a watched in
  let image = ref None in
  let exception Stop in
  (try
     Arena.crash_each [| a |]
       (fun () ->
         let tx = Tx.begin_tx mgr in
         Tx.put tx 1 201;
         Tx.put tx 2 202;
         Tx.commit tx)
       (fun _ _ crash ->
         if !installing then begin
           image := Some (crash Storelog.Keep_none);
           raise Stop
         end)
   with Stop -> ());
  let c = match !image with Some c -> c | None -> Alcotest.fail "no install" in
  (match Option.map Txlog.state (Txlog.attach c) with
  | Some (Txlog.Committed 2) -> ()
  | _ -> Alcotest.fail "crash image holds no committed log");
  let o = d.D.open_existing D.default_config c in
  o.Intf.recover ();
  (match Tx.recover (Tx.create ~path:Tx.Shadow c o) with
  | `Redone n -> Alcotest.(check int) "records redone" 2 n
  | `Undone _ -> Alcotest.fail "Tx.recover undid a committed log"
  | `Clean -> Alcotest.fail "Tx.recover found the log already resolved");
  Alcotest.(check (list (pair int int))) "committed values"
    (List.init 8 (fun i ->
         let k = i + 1 in
         (k, if k <= 2 then 200 + k else 100 + k)))
    (dump o 8)

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
      (check_payload_sweep Tx.Logged keep_none);
    Alcotest.test_case "shadow payload crash sweep (keep_none)" `Quick
      (check_payload_sweep Tx.Shadow keep_none);
    Alcotest.test_case "logged payload crash sweep (eviction)" `Quick
      (check_payload_sweep Tx.Logged eviction);
    Alcotest.test_case "shadow payload crash sweep (eviction)" `Quick
      (check_payload_sweep Tx.Shadow eviction);
    Alcotest.test_case "logged payload crash sweep (aborted)" `Quick
      (check_payload_sweep ~abort:true Tx.Logged keep_none);
    Alcotest.test_case "shadow payload crash sweep (aborted)" `Quick
      (check_payload_sweep ~abort:true Tx.Shadow keep_none);
    Alcotest.test_case "logged payload crash sweep (non-TSO)" `Quick
      (check_payload_sweep ~config:(Config.arm ()) Tx.Logged non_tso);
    Alcotest.test_case "shadow payload crash sweep (non-TSO)" `Quick
      (check_payload_sweep ~config:(Config.arm ()) Tx.Shadow non_tso);
    Alcotest.test_case "payload sweep negative control" `Quick
      test_payload_negative_control;
    Alcotest.test_case "restart: stale log slots stay invalid" `Quick
      test_restart_stale_slots;
    Alcotest.test_case "restart: ids continue past a slot's tag" `Quick
      test_restart_past_slot_tag;
    Alcotest.test_case "logged write-backs fenced before install" `Quick
      test_logged_write_back_ordering;
    Alcotest.test_case "logged undos fenced before truncation" `Quick
      test_logged_rollback_ordering;
    Alcotest.test_case "shadow write-backs fenced before commit word" `Quick
      test_shadow_write_back_ordering;
    Alcotest.test_case "install that raises is rolled back" `Quick
      test_install_raises_rolls_back;
    Alcotest.test_case "logged scope closes on every exit" `Quick
      test_scope_balanced;
    Alcotest.test_case "rollback that raises closes the scope" `Quick
      test_rollback_raises;
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
    Alcotest.test_case "composite commit redone by Tx.recover" `Quick
      test_composite_commit_redone_by_tx_recover;
    QCheck_alcotest.to_alcotest prop_abort_prefix_invisible;
  ]
