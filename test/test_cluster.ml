module Fabric = Ff_net.Fabric
module Rpc = Ff_net.Rpc
module Cluster = Ff_cluster.Cluster
module Prng = Ff_util.Prng

let calm_config =
  {
    Cluster.default with
    Cluster.faults = Fabric.calm;
    words = 1 lsl 14;
    seed = 7;
  }

let faulty_config =
  { calm_config with Cluster.faults = Fabric.default_faults }

(* ------------------------------------------------------------------ *)
(* Fabric                                                              *)
(* ------------------------------------------------------------------ *)

let drive_fabric fab calls =
  List.map
    (fun (src, dst) -> Fabric.transmit fab ~src ~dst)
    calls

let test_fabric_faults () =
  let fab = Fabric.create ~seed:11 ~endpoints:4 () in
  let calls = List.init 500 (fun i -> (i mod 4, (i + 1) mod 4)) in
  let vs = drive_fabric fab calls in
  Alcotest.(check int) "every send counted" 500 (Fabric.sends fab);
  Alcotest.(check bool) "some drops" true (Fabric.drops fab > 0);
  Alcotest.(check bool) "some dups" true (Fabric.dups fab > 0);
  Alcotest.(check (list int)) "consecutive verdict seqnos" (List.init 500 Fun.id)
    (List.map (fun v -> v.Fabric.v_seq) vs)

let test_fabric_partition () =
  let fab = Fabric.create ~faults:Fabric.calm ~seed:3 ~endpoints:3 () in
  Fabric.partition fab ~a:0 ~b:1;
  let v = Fabric.transmit fab ~src:0 ~dst:1 in
  Alcotest.(check bool) "cut" true (v.Fabric.v_cut && v.Fabric.v_deliveries = []);
  let v2 = Fabric.transmit fab ~src:0 ~dst:2 in
  Alcotest.(check bool) "other link open" true
    (v2.Fabric.v_deliveries <> []);
  Fabric.heal fab;
  let v3 = Fabric.transmit fab ~src:0 ~dst:1 in
  Alcotest.(check bool) "healed" true (v3.Fabric.v_deliveries <> [])

let test_fabric_timed_partition () =
  let fab = Fabric.create ~faults:Fabric.calm ~seed:3 ~endpoints:2 () in
  Fabric.partition_for fab ~a:0 ~b:1 ~ns:1_000;
  Alcotest.(check bool) "cut now" true (Fabric.partitioned fab ~a:0 ~b:1);
  Fabric.charge fab 2_000;
  Alcotest.(check bool) "self-heals" false (Fabric.partitioned fab ~a:0 ~b:1)

(* Satellite: same seed => identical delivery schedule (QCheck). *)
let prop_fabric_deterministic =
  QCheck.Test.make ~count:50 ~name:"fabric fault plan is deterministic"
    QCheck.(pair small_int (small_list (pair (int_bound 3) (int_bound 3))))
    (fun (seed, calls) ->
      let run () =
        let fab = Fabric.create ~seed ~endpoints:4 () in
        let vs = drive_fabric fab calls in
        List.map
          (fun v -> (v.Fabric.v_seq, v.Fabric.v_deliveries, v.Fabric.v_cut))
          vs
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* RPC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rpc_dedup () =
  (* Force duplicates: every message is duplicated, none dropped. *)
  let faults = { Fabric.calm with Fabric.dup_per_1k = 1000 } in
  let fab = Fabric.create ~faults ~seed:5 ~endpoints:2 () in
  let hits = ref 0 in
  let ep =
    Rpc.endpoint ~node:1 (fun x ->
        incr hits;
        Rpc.Reply (x * 2))
  in
  let rng = Prng.create 9 in
  (match Rpc.call ~fabric:fab ~rng ~src:0 ep 21 with
  | Ok v -> Alcotest.(check int) "response" 42 v
  | Error _ -> Alcotest.fail "rpc failed on a calm fabric");
  Alcotest.(check int) "handler ran once" 1 !hits;
  Alcotest.(check bool) "duplicate deduped" true (Rpc.deduped ep >= 1)

let test_rpc_retry_after_drop () =
  (* Drop everything at first: exhausts retries. *)
  let faults = { Fabric.calm with Fabric.drop_per_1k = 1000 } in
  let fab = Fabric.create ~faults ~seed:5 ~endpoints:2 () in
  let ep = Rpc.endpoint ~node:1 (fun x -> Rpc.Reply x) in
  let rng = Prng.create 9 in
  (match Rpc.call ~fabric:fab ~rng ~src:0 ep 1 with
  | Ok _ -> Alcotest.fail "should time out"
  | Error Rpc.Timeout -> ());
  Alcotest.(check int) "first transmit + retries" (Rpc.retries + 1)
    (Fabric.sends fab)

let test_rpc_down_endpoint () =
  let fab = Fabric.create ~faults:Fabric.calm ~seed:5 ~endpoints:2 () in
  let ep = Rpc.endpoint ~node:1 (fun x -> Rpc.Reply x) in
  Rpc.set_up ep false;
  let rng = Prng.create 9 in
  match Rpc.call ~fabric:fab ~rng ~src:0 ep 1 with
  | Ok _ -> Alcotest.fail "down endpoint must not answer"
  | Error Rpc.Timeout -> ()

(* The idempotency cache lives and dies with its call: neither the
   endpoint nor the fabric keeps per-request state, so both weigh the
   same after 10 calls as after 2000 on a fabric that drops and
   duplicates. *)
let test_rpc_bounded_state () =
  let fab = Fabric.create ~seed:5 ~endpoints:2 () in
  let ep = Rpc.endpoint ~node:1 (fun x -> Rpc.Reply (x + 1)) in
  let rng = Prng.create 9 in
  let calls lo hi =
    for i = lo to hi do
      ignore (Rpc.call ~fabric:fab ~rng ~src:0 ep i : (int, Rpc.error) result)
    done
  in
  let words x = Obj.reachable_words (Obj.repr x) in
  calls 1 10;
  let ep_words = words ep and fab_words = words fab in
  calls 11 2000;
  Alcotest.(check int) "endpoint words" ep_words (words ep);
  Alcotest.(check int) "fabric words" fab_words (words fab);
  Alcotest.(check bool) "duplicates and retries deduped" true
    (Rpc.deduped ep > 0)

(* ------------------------------------------------------------------ *)
(* Cluster replication and failover                                    *)
(* ------------------------------------------------------------------ *)

let put_exn c k v =
  match Cluster.put c k v with
  | Ok () -> ()
  | Error _ -> Alcotest.failf "put %d rejected" k

let get_exn c k =
  match Cluster.get c k with
  | Ok v -> v
  | Error _ -> Alcotest.failf "get %d unavailable" k

let test_cluster_basic () =
  let c = Cluster.create calm_config in
  for k = 1 to 200 do
    put_exn c k (k * 10)
  done;
  for k = 1 to 200 do
    Alcotest.(check (option int))
      (Printf.sprintf "get %d" k)
      (Some (k * 10))
      (get_exn c k)
  done;
  let s = Cluster.stats c in
  Alcotest.(check int) "all acked" 200 s.Cluster.s_acks;
  Alcotest.(check bool) "replicated" true (s.Cluster.s_repl_records >= 200);
  Cluster.close c

(* The backup acks the client directly: a put is client -> primary ->
   backup -> client, three one-way delays on a calm fabric, and a get
   is the usual two. *)
let test_cluster_three_hop_put () =
  let c = Cluster.create calm_config in
  let d = Fabric.calm.Fabric.delay_ns in
  let took f =
    let t0 = Cluster.now_ns c in
    f ();
    Cluster.now_ns c - t0
  in
  for k = 1 to 20 do
    Alcotest.(check int) (Printf.sprintf "put %d" k) (3 * d)
      (took (fun () -> put_exn c k k));
    Alcotest.(check int) (Printf.sprintf "get %d" k) (2 * d)
      (took (fun () -> ignore (get_exn c k : int option)))
  done;
  Cluster.close c

(* With the backup's link to the client cut, its ack never arrives:
   the client retries and the primary answers from the call's cache
   over its own link, applying and replicating nothing again.  A twin
   cluster with the link up gives the fences of one apply per
   replica. *)
let test_cluster_cut_backup_ack () =
  let twin () =
    let c = Cluster.create calm_config in
    for k = 1 to 30 do
      put_exn c k k
    done;
    c
  in
  let c = twin () and calm = twin () in
  let s = Cluster.shard_of_key c 1 in
  let p = Cluster.primary_of c ~shard:s and b = Cluster.backup_of c ~shard:s in
  let client = calm_config.Cluster.nodes + 1 in
  Cluster.partition c ~a:b ~b:client;
  let fences c node =
    (Ff_pmem.Arena.total_stats (Cluster.shard_arena c ~node ~shard:s))
      .Ff_pmem.Stats.fences
  in
  let put c =
    let s0 = Cluster.stats c and fp = fences c p and fb = fences c b in
    put_exn c 1 99;
    let s1 = Cluster.stats c in
    ( s1.Cluster.s_repl_records - s0.Cluster.s_repl_records,
      s1.Cluster.s_rpc_dropped - s0.Cluster.s_rpc_dropped,
      fences c p - fp,
      fences c b - fb )
  in
  let records, dropped, fp, fb = put c in
  let _, calm_dropped, calm_fp, calm_fb = put calm in
  Alcotest.(check int) "one record replicated" 1 records;
  Alcotest.(check int) "the backup's ack was cut" (calm_dropped + 1) dropped;
  Alcotest.(check int) "primary applied once" calm_fp fp;
  Alcotest.(check int) "backup applied once" calm_fb fb;
  Alcotest.(check (option int)) "acked value reads back" (Some 99)
    (get_exn c 1);
  Cluster.close c;
  Cluster.close calm

(* Apply ordering on both replicas, seen through the arenas' event
   sinks.  A flush inside a group-flush scope is a clwb, durable only
   at the arena's next fence.  The backup must not store its applied
   seqno (slot 72) while a clwb of the op is unfenced, and an acked
   write must leave no unfenced clwb on either replica.  Crash sweeps
   cannot see a missing fence after a clwb (the simulator persists the
   line at once), so this is the check that catches one. *)
type apply_watch = {
  mutable unfenced : bool;
  mutable clwbs : int;
  mutable allocs : int;
  mutable applied_stores : int;
  mutable early_applied_stores : int;
  mutable applied_ns : int;  (* fabric time of the last slot-72 store *)
}

let test_cluster_apply_fences () =
  let cfg = { calm_config with Cluster.nodes = 2 } in
  let c = Cluster.create cfg in
  let watch a =
    let w =
      { unfenced = false; clwbs = 0; allocs = 0; applied_stores = 0;
        early_applied_stores = 0; applied_ns = -1 }
    in
    Ff_pmem.Arena.set_event_sink a
      (Some
         {
           Ff_pmem.Arena.ev_store =
             (fun addr ->
               if addr = Cluster.slot_applied then begin
                 w.applied_stores <- w.applied_stores + 1;
                 w.applied_ns <- Cluster.now_ns c;
                 if w.unfenced then
                   w.early_applied_stores <- w.early_applied_stores + 1
               end);
           ev_flush =
             (fun _ ->
               if Ff_pmem.Arena.in_group a then begin
                 w.unfenced <- true;
                 w.clwbs <- w.clwbs + 1
               end);
           ev_fence = (fun () -> w.unfenced <- false);
           ev_alloc = (fun _ _ -> w.allocs <- w.allocs + 1);
           ev_free = (fun _ _ -> ());
           ev_crash = ignore;
         });
    w
  in
  let ws =
    List.concat_map
      (fun node ->
        List.init cfg.Cluster.shards (fun shard ->
            watch (Cluster.shard_arena c ~node ~shard)))
      [ 0; 1 ]
  in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 ws in
  (* The client's ack crosses the fabric after the backup's slot-72
     store, never with or before it. *)
  let acked what op =
    let stores = sum (fun w -> w.applied_stores) in
    match op () with
    | Error _ -> Alcotest.failf "%s rejected" what
    | Ok () ->
        if List.exists (fun w -> w.unfenced) ws then
          Alcotest.failf "%s acked with an unfenced clwb on a replica" what;
        if sum (fun w -> w.applied_stores) <> stores + 1 then
          Alcotest.failf "%s acked without one applied-seqno store" what;
        let stored =
          List.fold_left (fun acc w -> max acc w.applied_ns) (-1) ws
        in
        if Cluster.now_ns c - stored < Fabric.calm.Fabric.delay_ns then
          Alcotest.failf "%s acked %d ns after the applied-seqno store" what
            (Cluster.now_ns c - stored)
  in
  for k = 1 to 400 do
    acked (Printf.sprintf "put %d" k) (fun () -> Cluster.put c k (k * 10))
  done;
  acked "del 7" (fun () -> Cluster.del c 7);
  Alcotest.(check bool) "puts split leaves" true (sum (fun w -> w.allocs) > 0);
  Alcotest.(check bool) "applies flush as clwbs" true
    (sum (fun w -> w.clwbs) > 0);
  Alcotest.(check int) "one applied-seqno store per record" 401
    (sum (fun w -> w.applied_stores));
  Alcotest.(check int) "applied seqno stored after the op's fence" 0
    (sum (fun w -> w.early_applied_stores));
  Alcotest.(check (option int)) "deleted" None (get_exn c 7);
  Alcotest.(check (option int)) "kept" (Some 80) (get_exn c 8)

let test_cluster_faulty_fabric () =
  let c = Cluster.create faulty_config in
  for k = 1 to 150 do
    put_exn c k k
  done;
  for k = 1 to 150 do
    Alcotest.(check (option int))
      (Printf.sprintf "get %d" k)
      (Some k) (get_exn c k)
  done;
  Cluster.close c

let test_cluster_failover () =
  let c = Cluster.create calm_config in
  for k = 1 to 100 do
    put_exn c k k
  done;
  (* Kill the primary of the shard owning key 1; writes to that shard
     must keep their acked history and the backup must take over. *)
  let s = Cluster.shard_of_key c 1 in
  let p = Cluster.primary_of c ~shard:s in
  let b = Cluster.backup_of c ~shard:s in
  Cluster.kill_node c p;
  Alcotest.(check bool) "failover succeeds" true (Cluster.failover c ~shard:s);
  Alcotest.(check int) "backup promoted" b (Cluster.primary_of c ~shard:s);
  Alcotest.(check bool) "term bumped" true (Cluster.term_of c ~shard:s > 1);
  (* All acked writes must still read back through the new primary. *)
  for k = 1 to 100 do
    if Cluster.shard_of_key c k = s then
      Alcotest.(check (option int))
        (Printf.sprintf "key %d survives" k)
        (Some k) (get_exn c k)
  done;
  (* The shard is solo: writes are refused, reads keep serving. *)
  (match
     Cluster.put c
       (let rec find k = if Cluster.shard_of_key c k = s then k else find (k + 1) in
        find 1)
       999
   with
  | Error Cluster.Read_only -> ()
  | Ok () -> Alcotest.fail "solo shard must refuse write acks"
  | Error Cluster.Unavailable -> Alcotest.fail "should be read-only, not down");
  Cluster.close c

let test_cluster_rejoin_catchup () =
  let c = Cluster.create calm_config in
  for k = 1 to 80 do
    put_exn c k k
  done;
  let s = Cluster.shard_of_key c 1 in
  let p = Cluster.primary_of c ~shard:s in
  Cluster.kill_node c p;
  Alcotest.(check bool) "failover" true (Cluster.failover c ~shard:s);
  Alcotest.(check bool) "read-only while solo" true (Cluster.read_only c ~shard:s);
  (* Restart the dead node: it resyncs via segment ship and the shard
     leaves read-only degradation. *)
  Cluster.restart_node c p;
  Alcotest.(check bool) "resynced" false (Cluster.read_only c ~shard:s);
  Alcotest.(check bool) "resync counted" true
    ((Cluster.stats c).Cluster.s_resyncs > 0);
  (* Writes flow again and replicate to the rejoined backup. *)
  for k = 300 to 360 do
    if Cluster.shard_of_key c k = s then put_exn c k (k * 3)
  done;
  for k = 300 to 360 do
    if Cluster.shard_of_key c k = s then
      Alcotest.(check (option int))
        (Printf.sprintf "new key %d" k)
        (Some (k * 3))
        (get_exn c k)
  done;
  Cluster.close c

let test_cluster_term_fencing () =
  let c = Cluster.create calm_config in
  for k = 1 to 40 do
    put_exn c k k
  done;
  let s = Cluster.shard_of_key c 1 in
  let p = Cluster.primary_of c ~shard:s in
  let b = Cluster.backup_of c ~shard:s in
  (* Partition primary away from its backup: replication fails, the
     shard degrades to read-only rather than acking unreplicated
     writes. *)
  Cluster.partition c ~a:p ~b;
  let k1 =
    let rec find k = if Cluster.shard_of_key c k = s then k else find (k + 1) in
    find 1
  in
  (match Cluster.put c k1 123_456 with
  | Error Cluster.Read_only -> ()
  | Ok () -> Alcotest.fail "partitioned primary must not ack"
  | Error Cluster.Unavailable -> Alcotest.fail "expected read-only degradation");
  (* Promote the backup while the old primary is still alive; the old
     primary is deposed and fenced by term. *)
  Cluster.heal c;
  Alcotest.(check bool) "promote" true (Cluster.failover c ~shard:s);
  Alcotest.(check bool) "acked history intact" true (get_exn c k1 = Some k1);
  (* Resync the deposed primary as the new backup; writes then ack at
     the new term. *)
  Cluster.demote c ~shard:s;
  Alcotest.(check bool) "resync deposed" true (Cluster.resync c ~shard:s);
  put_exn c k1 777;
  Alcotest.(check (option int)) "write at new term" (Some 777) (get_exn c k1);
  Cluster.close c

let test_cluster_full_crash_recover_all () =
  let c = Cluster.create calm_config in
  for k = 1 to 120 do
    put_exn c k (k + 5)
  done;
  for n = 0 to calm_config.Cluster.nodes - 1 do
    Cluster.kill_node c n
  done;
  Cluster.recover_all c;
  for k = 1 to 120 do
    Alcotest.(check (option int))
      (Printf.sprintf "acked key %d survives full crash" k)
      (Some (k + 5))
      (get_exn c k)
  done;
  Cluster.close c

let test_cluster_restart_primary_in_place () =
  (* Kill and restart the primary with NO failover: it resumes primacy
     with issued/acked reloaded from a word only backups advance, so
     without the restart-time backup resync the live backup's higher
     applied watermark would falsely dedup — and falsely ack —
     recycled seqnos.  Acks taken after the restart must survive a
     real failover to that backup. *)
  let c = Cluster.create calm_config in
  for k = 1 to 60 do
    put_exn c k k
  done;
  let s = Cluster.shard_of_key c 1 in
  let p = Cluster.primary_of c ~shard:s in
  Cluster.kill_node c p;
  Cluster.restart_node c p;
  Alcotest.(check int) "still route primary" p (Cluster.primary_of c ~shard:s);
  Alcotest.(check bool) "writable after restart" false
    (Cluster.read_only c ~shard:s);
  let acked = ref [] in
  for k = 700 to 760 do
    if Cluster.shard_of_key c k = s then begin
      put_exn c k (k * 7);
      acked := k :: !acked
    end
  done;
  Alcotest.(check bool) "took new acks" true (!acked <> []);
  Cluster.kill_node c p;
  Alcotest.(check bool) "failover" true (Cluster.failover c ~shard:s);
  List.iter
    (fun k ->
      Alcotest.(check (option int))
        (Printf.sprintf "post-restart ack %d survives failover" k)
        (Some (k * 7)) (get_exn c k))
    !acked;
  for k = 1 to 60 do
    if Cluster.shard_of_key c k = s then
      Alcotest.(check (option int))
        (Printf.sprintf "pre-restart key %d survives" k)
        (Some k) (get_exn c k)
  done;
  Cluster.close c

let test_cluster_mutant_loses_acks () =
  (* Ack-before-replicate + a primary<->backup partition + primary
     kill: some acked writes must vanish — the bug Replcheck exists to
     catch. *)
  let c = Cluster.create calm_config in
  for k = 1 to 40 do
    put_exn c k k
  done;
  let s = Cluster.shard_of_key c 1 in
  let p = Cluster.primary_of c ~shard:s in
  let b = Cluster.backup_of c ~shard:s in
  Cluster.partition c ~a:p ~b;
  Cluster.mutant_ack_before_replicate := true;
  let acked = ref [] in
  for k = 500 to 540 do
    if Cluster.shard_of_key c k = s then
      match Cluster.put c k k with Ok () -> acked := k :: !acked | Error _ -> ()
  done;
  Cluster.mutant_ack_before_replicate := false;
  Alcotest.(check bool) "mutant acked unreplicated writes" true (!acked <> []);
  Cluster.heal c;
  Cluster.kill_node c p;
  Alcotest.(check bool) "failover" true (Cluster.failover c ~shard:s);
  let lost =
    List.exists (fun k -> get_exn c k = None) !acked
  in
  Alcotest.(check bool) "acked writes lost under the mutant" true lost;
  Cluster.close c

(* ------------------------------------------------------------------ *)
(* The Replcheck family                                                *)
(* ------------------------------------------------------------------ *)

module RepC = Ff_check.Replcheck
module C = Ff_check.Check
module Cx = Ff_check.Counterexample

(* 12 schedules: the product needs i in [0, 12) to cover every
   recovery mode (failover, restart-in-place, restart-then-refail)
   against every kill point. *)
let repc_config =
  { RepC.default with Cx.ops = 40; keyspace = 8; schedules = 12; seed = 42 }

let test_replcheck_clean () =
  let r = RepC.run ~config:repc_config "fastfair" in
  Alcotest.(check (list string))
    "clean sweep" []
    (List.map (fun v -> v.C.detail) r.C.violations);
  Alcotest.(check bool) "killed some primaries" true (r.C.crash_runs > 0);
  Alcotest.(check int) "all scenarios ran" repc_config.Cx.schedules
    r.C.schedules_run

let test_replcheck_mutant_fails () =
  (* The ack-before-replicate mutant must lose acks somewhere in the
     partition x kill scenarios and every counterexample must name the
     replica family and survive JSON; the replay-dispatch test in
     test_check replays one. *)
  let cfg = { repc_config with Cx.mutant = true; schedules = 8 } in
  let r = RepC.run ~config:cfg "fastfair" in
  if r.C.violations = [] then
    Alcotest.fail "ack-before-replicate mutant slipped past the sweep";
  let v =
    match
      List.find_opt (fun v -> v.C.kind = C.Durability) r.C.violations
    with
    | Some v -> v
    | None -> List.hd r.C.violations
  in
  let cx = v.C.counterexample in
  Alcotest.(check string) "family recorded" "replica" cx.Cx.family;
  Alcotest.(check bool) "mutant recorded" true cx.Cx.config.Cx.mutant;
  match Cx.of_json (Cx.to_json cx) with
  | Error e -> Alcotest.failf "counterexample does not round-trip: %s" e
  | Ok cx' -> Alcotest.(check bool) "repl survives the round-trip" true (cx' = cx)

(* A replica artifact naming an unknown crash mode, or a negative
   scenario index, is rejected, not silently replayed as something
   else. *)
let test_replcheck_rejects_unknown_names () =
  let cx =
    {
      Cx.family = "replica";
      index = "fastfair";
      config = repc_config;
      kind = "durability";
      decisions = [| 1 |];
      crash =
        Some
          { Cx.arena = 0; store_count = 10; mode = "bogus"; crash_seed = 1; cutoff = None };
      detail = "";
    }
  in
  Alcotest.check_raises "unknown crash mode"
    (Invalid_argument "counterexample: unknown crash mode \"bogus\"")
    (fun () -> ignore (C.replay cx));
  Alcotest.check_raises "negative scenario index"
    (Invalid_argument "Replcheck: negative scenario index -1")
    (fun () -> ignore (C.replay { cx with Cx.crash = None; decisions = [| -1 |] }))

(* The scenario product has no Mcsim schedules, prefill or crash sweep
   to turn off: a config asking for one is refused with its reason
   before any scenario runs, never silently ignored. *)
let replcheck_refuses config reason () =
  let r = RepC.run ~config "fastfair" in
  Alcotest.(check (option string)) "refused with its reason" (Some reason) r.C.skipped;
  Alcotest.(check int) "no scenario run" 0 r.C.schedules_run;
  Alcotest.(check int) "no primary killed" 0 r.C.crash_runs

let test_replcheck_refuses_no_crashes =
  replcheck_refuses { repc_config with Cx.crashes = false }
    "every scenario kills a primary: crashes cannot be turned off"

let test_replcheck_refuses_non_tso =
  replcheck_refuses { repc_config with Cx.non_tso = true }
    "the cluster runs under TSO only: non_tso does not apply"

let test_replcheck_refuses_dfs =
  replcheck_refuses { repc_config with Cx.explorer = Cx.Dfs }
    "scenarios are enumerated: only the pct explorer applies"

let test_replcheck_refuses_prefill =
  replcheck_refuses { repc_config with Cx.prefill = 20 }
    "the script needs no prefill: prefill must stay at its default 4"

let suite =
  [
    Alcotest.test_case "fabric faults" `Quick test_fabric_faults;
    Alcotest.test_case "fabric partition" `Quick test_fabric_partition;
    Alcotest.test_case "fabric timed partition" `Quick
      test_fabric_timed_partition;
    QCheck_alcotest.to_alcotest prop_fabric_deterministic;
    Alcotest.test_case "rpc dedup" `Quick test_rpc_dedup;
    Alcotest.test_case "rpc retry" `Quick test_rpc_retry_after_drop;
    Alcotest.test_case "rpc down endpoint" `Quick test_rpc_down_endpoint;
    Alcotest.test_case "rpc state stays bounded" `Quick test_rpc_bounded_state;
    Alcotest.test_case "replicated puts" `Quick test_cluster_basic;
    Alcotest.test_case "a put takes three hops" `Quick
      test_cluster_three_hop_put;
    Alcotest.test_case "cut backup ack is answered from the primary's cache"
      `Quick test_cluster_cut_backup_ack;
    Alcotest.test_case "apply fences before ack and applied seqno" `Quick
      test_cluster_apply_fences;
    Alcotest.test_case "faulty fabric" `Quick test_cluster_faulty_fabric;
    Alcotest.test_case "failover keeps acks" `Quick test_cluster_failover;
    Alcotest.test_case "rejoin catch-up" `Quick test_cluster_rejoin_catchup;
    Alcotest.test_case "term fencing" `Quick test_cluster_term_fencing;
    Alcotest.test_case "full crash recover_all" `Quick
      test_cluster_full_crash_recover_all;
    Alcotest.test_case "restart primary in place" `Quick
      test_cluster_restart_primary_in_place;
    Alcotest.test_case "ack-before-replicate loses acks" `Quick
      test_cluster_mutant_loses_acks;
    Alcotest.test_case "replcheck clean" `Slow test_replcheck_clean;
    Alcotest.test_case "replcheck mutant" `Slow test_replcheck_mutant_fails;
    Alcotest.test_case "replcheck rejects unknown names" `Quick
      test_replcheck_rejects_unknown_names;
    Alcotest.test_case "replcheck refuses --no-crashes" `Quick
      test_replcheck_refuses_no_crashes;
    Alcotest.test_case "replcheck refuses --non-tso" `Quick test_replcheck_refuses_non_tso;
    Alcotest.test_case "replcheck refuses -e dfs" `Quick test_replcheck_refuses_dfs;
    Alcotest.test_case "replcheck refuses --prefill" `Quick test_replcheck_refuses_prefill;
  ]
