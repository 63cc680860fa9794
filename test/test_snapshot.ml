(* Snapshot-layer acceptance tests: the crash-atomic epoch cell, MVCC
   time-travel reads that stay byte-identical under concurrent
   commits / after power-fail / from an online backup copy, epoch GC
   leak-checked by the scrubber, cross-shard consistent snapshots, a
   QCheck property that a pinned cross-shard range equals the model
   frozen at pin time under batched writers, and the
   snapshot-serializability checker family (clean runs must pass, the
   read-latest mutant must fail with a replayable counterexample). *)

open Ff_pmem
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Prng = Ff_util.Prng
module W = Ff_workload.Workload
module Snap = Ff_snapshot.Snapshot
module Shard = Ff_shard.Shard
module Scrub = Ff_scrub.Scrub
module SC = Ff_check.Snapcheck
module C = Ff_check.Check
module Cx = Ff_check.Counterexample
module Mcsim = Ff_mcsim.Mcsim

let fresh_arena () = Arena.create ~words:(1 lsl 20) ()

let dump ops keyspace =
  let acc = ref [] in
  for k = keyspace downto 1 do
    match ops.Intf.search k with Some v -> acc := (k, v) :: !acc | None -> ()
  done;
  !acc

let dump_at ops epoch keyspace =
  let acc = ref [] in
  ops.Intf.range_at epoch 1 keyspace (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let show st =
  "{"
  ^ String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) st)
  ^ "}"

let check_pairs msg expected got =
  if expected <> got then
    Alcotest.failf "%s: expected %s got %s" msg (show expected) (show got)

(* A wrapped tree with n sequential keys loaded; returns the wrapper
   handle and its ops. *)
let wrapped ?(n = 100) () =
  let a = fresh_arena () in
  let st = Snap.create a (Registry.build "fastfair" a) in
  let t = Snap.ops_of st "snap-fastfair" in
  for k = 1 to n do
    t.Intf.insert k (W.value_of k)
  done;
  (a, st, t)

(* Fresh overwrite values disjoint from every [W.value_of k] already
   in the tree — the Intf contract requires values unique across
   keys. *)
let fresh_value space k = W.value_of (space + k)

(* ------------------------------------------------------------------ *)
(* Epoch cell                                                          *)
(* ------------------------------------------------------------------ *)

let test_epoch_cell () =
  let a = fresh_arena () in
  Alcotest.(check int) "fresh arena reads 0" 0 (Epoch.current a);
  Epoch.publish a 3;
  Alcotest.(check int) "published" 3 (Epoch.current a);
  Alcotest.check_raises "monotone"
    (Invalid_argument "Epoch.publish: epoch 3 not beyond published 3")
    (fun () -> Epoch.publish a 3);
  Alcotest.(check int) "bump" 4 (Epoch.bump a);
  (* The publish discipline flushes the epoch word, so losing every
     unflushed store must not lose the epoch. *)
  Arena.power_fail a Storelog.Keep_none;
  Alcotest.(check int) "epoch survives keep_none" 4 (Epoch.current a);
  (* Inside a group-flush scope the deferred fence would break the
     payload-before-epoch ordering; publish must refuse. *)
  Arena.group_begin a;
  Alcotest.check_raises "refused in group scope"
    (Invalid_argument "Epoch.publish: inside a group-flush scope") (fun () ->
      Epoch.publish a 9);
  Arena.group_end a;
  Alcotest.(check int) "global decision starts 0" 0 (Epoch.global_decision a);
  Epoch.publish_global a 4;
  Alcotest.(check int) "global decision" 4 (Epoch.global_decision a)

(* ------------------------------------------------------------------ *)
(* Time travel: pinned reads are stable under concurrent commits       *)
(* ------------------------------------------------------------------ *)

let test_time_travel () =
  let n = 100 in
  let _a, st, t = wrapped ~n () in
  let s1 = Snap.take st in
  let before = dump t n in
  (* Concurrent commits: overwrite the evens, delete a few odds,
     insert beyond the pinned keyspace. *)
  for k = 1 to n do
    if k mod 2 = 0 then t.Intf.insert k (fresh_value n k)
    else if k mod 9 = 0 then ignore (t.Intf.delete k)
  done;
  for k = n + 1 to n + 10 do
    t.Intf.insert k (W.value_of k)
  done;
  let pinned = ref [] in
  Snap.range s1 ~lo:1 ~hi:(2 * n) (fun k v -> pinned := (k, v) :: !pinned);
  check_pairs "pinned range ignores later commits" before (List.rev !pinned);
  Alcotest.(check (option int)) "pinned point read" (Some (W.value_of 2))
    (Snap.get s1 2);
  Alcotest.(check (option int)) "pinned sees later-deleted key"
    (Some (W.value_of 9)) (Snap.get s1 9);
  Alcotest.(check (option int)) "live read sees the overwrite"
    (Some (fresh_value n 2)) (t.Intf.search 2);
  (* A second pin observes the new state; the first is unperturbed. *)
  let s2 = Snap.take st in
  Alcotest.(check (option int)) "second pin sees overwrite"
    (Some (fresh_value n 2)) (Snap.get s2 2);
  Alcotest.(check (option int)) "second pin sees delete" None (Snap.get s2 9);
  Alcotest.(check (option int)) "first pin still as-of" (Some (W.value_of 9))
    (Snap.get s1 9);
  Snap.release s1;
  Snap.release s2;
  Alcotest.check_raises "released handle is dead"
    (Invalid_argument "Snapshot: handle already released") (fun () ->
      ignore (Snap.get s1 2))

(* ------------------------------------------------------------------ *)
(* Crash durability: re-pinning after power_fail + recovery            *)
(* ------------------------------------------------------------------ *)

let crash_repin mode =
  let n = 80 in
  let a = fresh_arena () in
  (* Built through the registry so the manifest names the wrapper and
     [open_existing] reattaches the version store. *)
  let t = Registry.build "snap-fastfair" a in
  for k = 1 to n do
    t.Intf.insert k (W.value_of k)
  done;
  let e = t.Intf.snapshot_begin 0 in
  let before = dump_at t e n in
  for k = 1 to n do
    if k mod 3 = 0 then t.Intf.insert k (fresh_value n k)
  done;
  Arena.power_fail a mode;
  let o = Registry.open_existing a in
  o.Intf.recover ();
  Alcotest.(check bool) "epoch still published" true (Epoch.current a >= e);
  check_pairs "re-pinned range byte-identical" before (dump_at o e n)

let test_crash_repin_keep_all () = crash_repin Storelog.Keep_all
let test_crash_repin_keep_none () = crash_repin Storelog.Keep_none

let test_crash_repin_eviction () =
  for seed = 1 to 5 do
    crash_repin (Storelog.Random_eviction (Prng.create seed))
  done

(* ------------------------------------------------------------------ *)
(* GC: floor refusal, and the scrubber as leak oracle                  *)
(* ------------------------------------------------------------------ *)

let test_gc_floor_and_scrub () =
  let n = 60 in
  let a, st, t = wrapped ~n () in
  let s1 = Snap.take st in
  for k = 1 to n do
    t.Intf.insert k (fresh_value n k)
  done;
  let s2 = Snap.take st in
  let e1 = Snap.epoch s1 and e2 = Snap.epoch s2 in
  let before2 = dump_at t e2 n in
  Snap.release s1;
  let freed = t.Intf.gc_before e2 in
  Alcotest.(check bool) "gc reclaimed version lines" true (freed > 0);
  Alcotest.(check int) "floor persisted" e2 (Snap.gc_floor st);
  Alcotest.check_raises "reads below the floor refused"
    (Invalid_argument
       (Printf.sprintf "Snapshot.read_at: epoch %d below GC floor %d" e1 e2))
    (fun () -> ignore (t.Intf.read_at e1 1));
  check_pairs "floor epoch still readable" before2 (dump_at t e2 n);
  (* Everything gc freed went through Arena.free: the scrubber's
     reachability audit must account for every allocated word. *)
  let d = Registry.find_exn "snap-fastfair" in
  let audit = Scrub.audit ~config:D.default_config d a in
  Alcotest.(check (list (pair int int))) "no leaked blocks after gc" []
    audit.Scrub.leaked_blocks

(* Regression: GC may unlink a key entry whose whole history the live
   tree answers, but epochs >= floor stay pinnable — a later overwrite
   of such a key must re-anchor the pre-image at the floor, not bury
   it behind a fresh begin epoch. *)
let test_gc_unlink_then_overwrite () =
  let n = 20 in
  let a, st, t = wrapped ~n () in
  let s = Snap.take st in
  let e = Snap.epoch s in
  let before = dump_at t e n in
  (* GC up to the pinned floor unlinks every entry: all chains are
     empty and every begin epoch is at or below the pin. *)
  ignore (Snap.gc st);
  Alcotest.(check int) "floor sits at the pinned epoch" e (Snap.gc_floor st);
  for k = 1 to n do
    if k mod 2 = 0 then t.Intf.insert k (fresh_value n k)
  done;
  ignore (t.Intf.delete 3);
  Alcotest.(check (option int)) "pin survives the overwrite"
    (Some (W.value_of 2)) (Snap.get s 2);
  Alcotest.(check (option int)) "pin survives the delete"
    (Some (W.value_of 3)) (Snap.get s 3);
  check_pairs "pinned range identical after gc + overwrite" before
    (dump_at t e n);
  Snap.release s;
  let d = Registry.find_exn "snap-fastfair" in
  let audit = Scrub.audit ~config:D.default_config d a in
  Alcotest.(check (list (pair int int))) "re-anchored store leaks nothing" []
    audit.Scrub.leaked_blocks

(* Regression: a coordinator-requested pin retried after a transient
   fault (the publish already landed) must succeed idempotently at the
   agreed epoch; a pin below the published epoch is a real error. *)
let test_repin_idempotent () =
  let a, st, t = wrapped ~n:10 () in
  ignore st;
  let e1 = t.Intf.snapshot_begin 0 in
  t.Intf.insert 1 (fresh_value 10 1);
  let e2 = t.Intf.snapshot_begin 0 in
  Alcotest.(check int) "retry at the published epoch is a no-op success" e2
    (t.Intf.snapshot_begin e2);
  Alcotest.(check int) "the retry did not advance the epoch" e2
    (Epoch.current a);
  Alcotest.check_raises "pinning a bypassed epoch refused"
    (Invalid_argument
       (Printf.sprintf
          "Snapshot.snapshot_begin: published epoch %d already beyond \
           requested pin %d" e2 e1))
    (fun () -> ignore (t.Intf.snapshot_begin e1))

(* Regression: readers walking version chains must be quiesced by the
   collector — a walk racing gc_before could chase a pointer into a
   line already freed and reallocated by a concurrent writer.  Every
   read at the probed epoch must return the value that was live there,
   or be refused outright once the floor passes it; never garbage. *)
let test_reader_vs_gc () =
  let n = 30 in
  let a, _st, t = wrapped ~n () in
  ignore (t.Intf.snapshot_begin 0);
  for k = 1 to n do
    t.Intf.insert k (fresh_value n k)
  done;
  let e = t.Intf.snapshot_begin 0 in
  for k = 1 to n do
    t.Intf.insert k (fresh_value (3 * n) k)
  done;
  (* [e] now resolves through chain records; gc past it frees them. *)
  let anomalies = ref [] and refused = ref 0 and freed = ref 0 in
  let reader _ =
    for k = 1 to n do
      match t.Intf.read_at e k with
      | Some v when v = fresh_value n k -> ()
      | got -> anomalies := (k, got) :: !anomalies
      | exception Invalid_argument _ -> incr refused
    done
  in
  let collector _ = freed := t.Intf.gc_before (e + 1) in
  let writer _ =
    for k = n + 1 to 2 * n do
      t.Intf.insert k (fresh_value (5 * n) k)
    done
  in
  ignore
    (Mcsim.run ~cores:3 ~quantum_ns:1 ~arena:a [| reader; collector; writer |]);
  Alcotest.(check bool) "collector reclaimed lines" true (!freed > 0);
  Alcotest.(check (list (pair int (option int)))) "no stale or garbage reads"
    [] !anomalies

(* Regression: a pinned read of a key the version store has never seen
   falls through to the live tree, and that search yields.  A writer
   creating the key's entry and inserting it meanwhile must not leak
   into the pin: a key first written after the pin reads as absent at
   the pinned epoch, under every explored interleaving. *)
let test_pin_vs_first_write () =
  let fresh = [ 5; 6; 7; 8 ] in
  let leaks = ref [] in
  List.iter
    (fun (name, policy) ->
      let a, _st, t = wrapped ~n:4 () in
      let applied = ref 0 in
      let writer _ =
        List.iter
          (fun k ->
            t.Intf.insert k (W.value_of k);
            incr applied)
          fresh
      in
      let reader _ =
        let e = t.Intf.snapshot_begin 0 in
        let pinned_after = !applied in
        List.iteri
          (fun i k ->
            match t.Intf.read_at e k with
            | Some v when i >= pinned_after ->
                leaks := Printf.sprintf "%s: key %d read %d" name k v :: !leaks
            | _ -> ())
          fresh
      in
      ignore
        (Mcsim.run ~cores:1 ~quantum_ns:1 ~policy ~arena:a [| writer; reader |]))
    (("fifo", Mcsim.Fifo)
    :: List.init 16 (fun s ->
           (Printf.sprintf "pct %d" s, Mcsim.pct_policy ~seed:s)));
  Alcotest.(check (list string)) "no post-pin write visible" [] (List.rev !leaks)

(* Regression: a pin must not starve the writer it quiesces.  The
   scheduler runs the pinner whenever it is runnable, as a PCT run
   that favours it does, while the writer is mid-insert.  A pinner
   that spun on the writer's in-flight count would run forever and
   never let the insert finish; one that awaits it blocks, the insert
   completes, and the pin lands after it.  The chooser gives up after
   [cap] decisions, so a spinning pinner fails instead of hanging. *)
let test_pin_does_not_starve_writer () =
  let a, _st, t = wrapped ~n:8 () in
  let key = 9 and cap = 100_000 in
  let writing = ref false and pinned = ref None and decisions = ref 0 in
  let writer _ =
    writing := true;
    t.Intf.insert key (W.value_of key)
  in
  let pinner _ =
    Mcsim.await (fun () -> !writing);
    pinned := Some (t.Intf.snapshot_begin 0)
  in
  let prefer_pinner tids =
    incr decisions;
    if !decisions > cap then
      Alcotest.failf "pinner still running after %d scheduling decisions" cap;
    let rec find i = if i >= Array.length tids || tids.(i) = 1 then i else find (i + 1) in
    find 0
  in
  ignore
    (Mcsim.run ~cores:1 ~quantum_ns:1 ~policy:(Mcsim.Choose prefer_pinner) ~arena:a
       [| writer; pinner |]);
  match !pinned with
  | None -> Alcotest.fail "the pin never completed"
  | Some e ->
      Alcotest.(check (option int)) "the pin sees the finished insert"
        (Some (W.value_of key)) (t.Intf.read_at e key)

(* ------------------------------------------------------------------ *)
(* Online backup                                                       *)
(* ------------------------------------------------------------------ *)

let test_backup_roundtrip () =
  let n = 120 in
  let _a, st, t = wrapped ~n () in
  let s = Snap.take st in
  let e = Snap.epoch s in
  let before = dump_at t e n in
  (* Destination: a plain inner tree on its own arena at a non-default
     root slot — the relocatable_root capability at work. *)
  let dest_arena = fresh_arena () in
  let d = Registry.find_exn "fastfair" in
  let dcfg = { D.default_config with D.root_slot = 4 } in
  let dest = d.D.build dcfg dest_arena in
  (* The source keeps taking writes between chunks; the copy must not
     notice. *)
  let mutated = ref 0 in
  let total =
    Snap.backup st ~epoch:e ~dest ~chunk:16
      ~between:(fun () ->
        for _ = 1 to 4 do
          incr mutated;
          let k = 1 + (!mutated mod n) in
          t.Intf.insert k (fresh_value (2 * n) !mutated)
        done)
      ()
  in
  Alcotest.(check int) "every pinned pair copied" (List.length before) total;
  Alcotest.(check bool) "source mutated during backup" true (!mutated > 0);
  check_pairs "backup equals the pinned epoch" before (dump dest n);
  (* The copy is durable at its relocated root. *)
  Arena.power_fail dest_arena Storelog.Keep_none;
  let o = d.D.open_existing dcfg dest_arena in
  o.Intf.recover ();
  check_pairs "backup survives power_fail" before (dump o n)

(* ------------------------------------------------------------------ *)
(* Cross-shard consistent snapshots                                    *)
(* ------------------------------------------------------------------ *)

let test_shard_snapshot () =
  let t = Shard.create ~words:(1 lsl 18) ~inner:"snap-fastfair" ~shards:4 () in
  for k = 1 to 200 do
    Shard.insert t ~key:k ~value:(W.value_of k)
  done;
  let g1 = Shard.snapshot_begin t in
  Alcotest.(check int) "decision word matches pin" g1 (Shard.snapshot_decision t);
  for k = 1 to 100 do
    ignore (Shard.update t ~key:k ~value:(fresh_value 200 k))
  done;
  for k = 150 to 160 do
    ignore (Shard.delete t k)
  done;
  let g2 = Shard.snapshot_begin t in
  Alcotest.(check bool) "global epochs advance" true (g2 > g1);
  Alcotest.(check (option int)) "g1 pre-update" (Some (W.value_of 50))
    (Shard.read_at t ~epoch:g1 50);
  Alcotest.(check (option int)) "g1 pre-delete" (Some (W.value_of 155))
    (Shard.read_at t ~epoch:g1 155);
  Alcotest.(check (option int)) "g2 post-update" (Some (fresh_value 200 50))
    (Shard.read_at t ~epoch:g2 50);
  Alcotest.(check (option int)) "g2 post-delete" None
    (Shard.read_at t ~epoch:g2 155);
  (* The merged scan is globally sorted and frozen at the pin. *)
  let count e =
    let c = ref 0 and last = ref 0 in
    Shard.range_at t ~epoch:e ~lo:1 ~hi:200 (fun k _ ->
        Alcotest.(check bool) "ascending merge" true (k > !last);
        last := k;
        incr c);
    !c
  in
  Alcotest.(check int) "g1 sees all 200" 200 (count g1);
  Alcotest.(check int) "g2 sees 189" 189 (count g2);
  let freed = Shard.gc_before t g2 in
  Alcotest.(check bool) "cross-shard gc freed" true (freed > 0);
  Alcotest.check_raises "g1 below the floor"
    (Invalid_argument
       (Printf.sprintf "Snapshot.read_at: epoch %d below GC floor %d" g1 g2))
    (fun () -> ignore (Shard.read_at t ~epoch:g1 50))

let test_shard_snapshot_requires_cap () =
  let t = Shard.create ~inner:"fastfair" ~shards:2 () in
  match Shard.snapshot_begin t with
  | _ -> Alcotest.fail "plain inner was not refused"
  | exception Invalid_argument m ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "refusal names the capability" true
        (contains m "not snapshottable")

(* Regression: a global pin racing a multi-shard transaction commit
   must not cut between the per-shard applies — the pinned epoch sees
   the transaction's writes on every participating shard or on none.
   The pinner awaits a flag the committer sets on its way into
   txn_commit, so the two genuinely overlap under the simulator. *)
let test_txn_commit_vs_pin () =
  let t = Shard.create ~words:(1 lsl 18) ~inner:"snap-fastfair" ~shards:4 () in
  let n = 16 in
  for k = 1 to n do
    Shard.insert t ~key:k ~value:(W.value_of k)
  done;
  let committing = ref false in
  let g = ref 0 in
  let committer _ =
    let x = Shard.txn_begin t in
    for k = 1 to 8 do
      Shard.txn_put x k (fresh_value n k)
    done;
    committing := true;
    Shard.txn_commit x
  in
  let pinner _ =
    Mcsim.await (fun () -> !committing);
    g := Shard.snapshot_begin t
  in
  let arenas = Shard.arenas t in
  Array.iter (fun a -> Arena.set_yield_hook a (Some Mcsim.charge)) arenas;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun a -> Arena.set_yield_hook a None) arenas)
    (fun () ->
      ignore (Mcsim.run ~cores:2 ~quantum_ns:1 [| committer; pinner |]));
  let news = ref 0 in
  for k = 1 to 8 do
    match Shard.read_at t ~epoch:!g k with
    | Some v when v = fresh_value n k -> incr news
    | Some v when v = W.value_of k -> ()
    | Some v -> Alcotest.failf "key %d: alien value %d at the pinned epoch" k v
    | None -> Alcotest.failf "key %d: absent at the pinned epoch" k
  done;
  Alcotest.(check bool)
    (Printf.sprintf "pin cuts on a transaction boundary (%d/8 new)" !news)
    true (!news = 0 || !news = 8)

(* ------------------------------------------------------------------ *)
(* QCheck: a pinned cross-shard range equals the model at pin time     *)
(* ------------------------------------------------------------------ *)

let arbitrary_pin_case =
  QCheck.make
    QCheck.Gen.(triple (int_range 0 1_000_000) (int_range 1 5) (int_range 8 40))
    ~print:(fun (seed, batches, per) ->
      Printf.sprintf "seed=%d batches=%d per_batch=%d" seed batches per)

(* Apply [batches] batched writer rounds after pinning; the k-way
   merged range at the pinned epoch must equal the model frozen at pin
   time, independent of everything the writers did since. *)
let prop_pinned_range_equals_model =
  QCheck.Test.make ~count:25
    ~name:"cross-shard pinned range equals model frozen at pin time"
    arbitrary_pin_case
    (fun (seed, batches, per) ->
      let keyspace = 64 in
      let t =
        Shard.create ~words:(1 lsl 18) ~inner:"snap-fastfair" ~shards:4 ()
      in
      let model = Hashtbl.create 64 in
      let rng = Prng.create (seed + 1) in
      for _ = 1 to 30 do
        let k = 1 + Prng.int rng keyspace in
        Shard.insert t ~key:k ~value:(W.value_of k);
        Hashtbl.replace model k (W.value_of k)
      done;
      let g = Shard.snapshot_begin t in
      let frozen =
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      (* Batched writers keep going: queued submits plus direct
         overwrites with fresh unique values. *)
      let vc = ref 0 in
      for _ = 1 to batches do
        let batch =
          Array.init per (fun _ ->
              let k = 1 + Prng.int rng keyspace in
              if Prng.int rng 3 = 0 then W.Delete k else W.Insert k)
        in
        ignore (Shard.submit t batch);
        ignore (Shard.drain_queues t);
        incr vc;
        ignore
          (Shard.update t
             ~key:(1 + Prng.int rng keyspace)
             ~value:(fresh_value keyspace (1000 + !vc)))
      done;
      let got = ref [] in
      Shard.range_at t ~epoch:g ~lo:1 ~hi:keyspace (fun k v ->
          got := (k, v) :: !got);
      List.rev !got = frozen)

(* ------------------------------------------------------------------ *)
(* Snapcheck family                                                    *)
(* ------------------------------------------------------------------ *)

let small = { SC.default with Cx.schedules = 4 }

let test_snapcheck_clean () =
  let r = SC.run ~config:small "snap-fastfair" in
  Alcotest.(check int) "no violations" 0 (List.length r.C.violations);
  Alcotest.(check bool) "explored schedules" true (r.C.schedules_run > 0);
  Alcotest.(check bool) "explored crashes" true (r.C.crash_runs > 0)

(* Seed 25 pins once 9 writer ops are applied, and op 9 deletes an
   absent key, so the pinned state (prefix 9) equals the one before it
   (prefix 8).  The window from 9 must admit it; a first-match oracle
   reports an isolation violation here. *)
let test_snapcheck_repeated_prefix () =
  let spec =
    Ff_check.Spec.create (Prng.create 25) ~prefill:SC.default.Cx.prefill
      ~keyspace:SC.default.Cx.keyspace ~per_entry:1
      (SC.default.Cx.rounds * SC.default.Cx.ops)
  in
  Alcotest.(check int) "pin after" 10 (SC.pin_after { SC.default with Cx.seed = 25 });
  Alcotest.(check bool) "prefix 9 repeats prefix 8" true
    (Ff_check.Spec.state spec 8 = Ff_check.Spec.state spec 9);
  let r =
    SC.run ~config:{ SC.default with Cx.seed = 25; schedules = 2; crashes = false }
      "snap-fastfair"
  in
  Alcotest.(check int) "no violations" 0 (List.length r.C.violations)

(* CI's main sweep, [check --snapshot -i snap-fastfair --schedules 6]
   (2 ops a round, 3 rounds, seed 42), drew its pin before op 0: the
   writer awaited the pin before its first op on every schedule.  The
   pin now lies in 2 .. n-1 at every seed, so the reader waits for op 0
   and races a later op (at seed 42 every schedule pins between 3 and
   4 applied ops). *)
let test_snapcheck_pin_past_first_op () =
  let cfg = { SC.default with Cx.ops = 2; rounds = 3; seed = 42; schedules = 6 } in
  Alcotest.(check int) "CI sweep pin" 4 (SC.pin_after cfg);
  for seed = 1 to 100 do
    let p = SC.pin_after { cfg with Cx.seed } in
    if p < 2 || p > 5 then Alcotest.failf "seed %d: pin after %d, outside 2 .. 5" seed p
  done

(* The artifact must survive serialization; the replay-dispatch test
   in test_check replays one. *)
let test_snapcheck_mutant_caught () =
  let r = SC.run ~config:{ small with Cx.mutant = true } "snap-fastfair" in
  match r.C.violations with
  | [] -> Alcotest.fail "read-latest mutant produced no violations"
  | v :: _ -> (
      let cx = v.C.counterexample in
      Alcotest.(check bool) "artifact records mutant" true cx.Cx.config.Cx.mutant;
      match Cx.of_json (Cx.to_json cx) with
      | Error m -> Alcotest.failf "snap artifact does not parse: %s" m
      | Ok cx' -> Alcotest.(check bool) "snap config round-trips" true (cx' = cx))

(* The writer awaits the pin before its op [pin_after], so a write
   always follows the pin, where a read-latest snapshot reads the
   future.  The schedule that runs the writer whenever it can shows the
   wait is needed: without it the writer applies the whole log before
   the reader pins, and the live oracles see nothing wrong.  Choice 0
   starts the writer; a thread that ends its quantum goes to the back
   of the runnable queue, so choice 1 keeps picking the writer while
   the reader waits, and the reader once the writer parks. *)
let test_snapcheck_write_follows_pin () =
  let writer_first =
    {
      Cx.family = "snapshot";
      index = "snap-fastfair";
      config = { SC.default with Cx.seed = 6; crashes = false; mutant = true };
      kind = "tolerance";
      decisions = Array.init 100_000 (fun i -> min i 1);
      crash = None;
      detail = "";
    }
  in
  let r = SC.replay writer_first in
  Alcotest.(check bool) "read-latest mutant caught live" true (r.C.violations <> [])

let suite =
  [
    Alcotest.test_case "epoch cell: publish, crash, group refusal" `Quick
      test_epoch_cell;
    Alcotest.test_case "pinned reads stable under concurrent commits" `Quick
      test_time_travel;
    Alcotest.test_case "re-pin after power_fail (keep_all)" `Quick
      test_crash_repin_keep_all;
    Alcotest.test_case "re-pin after power_fail (keep_none)" `Quick
      test_crash_repin_keep_none;
    Alcotest.test_case "re-pin after power_fail (eviction)" `Quick
      test_crash_repin_eviction;
    Alcotest.test_case "gc floor + scrub leak oracle" `Quick
      test_gc_floor_and_scrub;
    Alcotest.test_case "gc unlink + overwrite keeps the pinned pre-image"
      `Quick test_gc_unlink_then_overwrite;
    Alcotest.test_case "per-shard re-pin is idempotent" `Quick
      test_repin_idempotent;
    Alcotest.test_case "readers quiesced against the collector" `Quick
      test_reader_vs_gc;
    Alcotest.test_case "pin races the first write of a key" `Quick
      test_pin_vs_first_write;
    Alcotest.test_case "global pin cuts on a txn boundary" `Quick
      test_txn_commit_vs_pin;
    Alcotest.test_case "pin does not starve an in-flight writer" `Quick
      test_pin_does_not_starve_writer;
    Alcotest.test_case "online backup round-trip" `Quick test_backup_roundtrip;
    Alcotest.test_case "cross-shard consistent snapshots" `Quick
      test_shard_snapshot;
    Alcotest.test_case "shard snapshot requires the capability" `Quick
      test_shard_snapshot_requires_cap;
    Alcotest.test_case "snapcheck: honest wrapper clean" `Quick
      test_snapcheck_clean;
    Alcotest.test_case "snapcheck: read-latest mutant caught" `Quick
      test_snapcheck_mutant_caught;
    Alcotest.test_case "snapcheck: a write follows the pin" `Quick
      test_snapcheck_write_follows_pin;
    Alcotest.test_case "snapcheck: mid-log pin on a repeated prefix" `Quick
      test_snapcheck_repeated_prefix;
    Alcotest.test_case "snapcheck: the default sweep pins past op 0" `Quick
      test_snapcheck_pin_past_first_op;
    QCheck_alcotest.to_alcotest prop_pinned_range_equals_model;
  ]
