(* Elastic resharding acceptance tests: relocatable segment
   round-trips, the reserved root-slot audit, live split / merge /
   migrate under concurrent writers with zero lost acknowledged
   writes, landing-span hygiene across aborted merges, copy
   throttling, deterministic crash resolution from the decision word,
   and the Rebalcheck family (clean runs must pass, the drop-delta
   mutant must fail with a replayable counterexample). *)

open Ff_pmem
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Shard = Ff_shard.Shard
module Rebalance = Ff_rebalance.Rebalance
module RC = Ff_check.Rebalcheck
module C = Ff_check.Check
module Cx = Ff_check.Counterexample
module Mcsim = Ff_mcsim.Mcsim

let fresh_arena () = Arena.create ~words:(1 lsl 20) ()
let value_of k = (k * 7919) + 13 (* unique per key *)

let dump_search read keyspace =
  let acc = ref [] in
  for k = keyspace downto 1 do
    match read k with Some v -> acc := (k, v) :: !acc | None -> ()
  done;
  !acc

let show st =
  "{"
  ^ String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) st)
  ^ "}"

let check_pairs msg expected got =
  if List.sort compare expected <> List.sort compare got then
    Alcotest.failf "%s: expected %s got %s" msg
      (show (List.sort compare expected))
      (show (List.sort compare got))

(* ------------------------------------------------------------------ *)
(* Reserved root-slot audit (every consumer, no overlap)               *)
(* ------------------------------------------------------------------ *)

let test_slot_audit () =
  let claims =
    [
      ( "shard inner roots",
        List.init (2 * Shard.max_shards) (fun i -> i) );
      ("tx log anchor", [ Txlog.slot_addr; Txlog.slot_words ]);
      ("shard manifest", Shard.manifest_slots);
      ("registry manifest", Registry.manifest_slots);
      ("epoch cells", [ Epoch.slot_epoch; Epoch.slot_global ]);
      ("snapshot anchor", [ Ff_snapshot.Snapshot.slot_anchor ]);
      ("rebalance", Rebalance.reserved_slots);
      ("cluster replication", Ff_cluster.Cluster.reserved_slots);
    ]
  in
  let seen = Hashtbl.create 97 in
  List.iter
    (fun (who, slots) ->
      List.iter
        (fun s ->
          if s < 0 || s >= Arena.reserved_words then
            Alcotest.failf
              "%s claims slot %d outside the reserved window [0, %d)" who s
              Arena.reserved_words;
          (match Hashtbl.find_opt seen s with
          | Some other when other <> who ->
              Alcotest.failf "slot %d claimed by both %s and %s" s other who
          | _ -> ());
          Hashtbl.replace seen s who)
        slots)
    claims;
  (* The window may keep spares, but every claimed slot must fit and
     the rebalance trio must be exactly where the arena doc says. *)
  Alcotest.(check (list int))
    "rebalance slots" [ 68; 69; 70 ] Rebalance.reserved_slots;
  Alcotest.(check (list int))
    "cluster slots" [ 71; 72; 73 ] Ff_cluster.Cluster.reserved_slots

(* ------------------------------------------------------------------ *)
(* Relocatable segments                                                *)
(* ------------------------------------------------------------------ *)

let test_segment_roundtrip () =
  let src = fresh_arena () in
  let ops = Registry.build "fastfair" src in
  for k = 1 to 300 do
    ops.Intf.insert k (value_of k)
  done;
  Arena.drain src;
  let seg = Segment.capture src in
  Alcotest.(check bool) "segment spans data" true (Segment.words seg > 0);
  let dst = fresh_arena () in
  let chunks = ref 0 in
  Segment.copy ~src ~dst seg ~between:(fun _ -> incr chunks);
  Alcotest.(check bool) "chunked copy" true (!chunks > 1);
  Segment.attach ~dst seg;
  (* The registry manifest travelled with the image: the destination
     names its own index. *)
  let o = Registry.open_existing dst in
  o.Intf.recover ();
  check_pairs "relocated image"
    (List.init 300 (fun i -> (i + 1, value_of (i + 1))))
    (dump_search o.Intf.search 300);
  (* Post-attach the destination allocator is in the fresh-mount
     state: structural ops that free nodes must not trip the
     hardened free. *)
  for k = 1 to 150 do
    ignore (o.Intf.delete k)
  done;
  check_pairs "post-attach deletes"
    (List.init 150 (fun i -> (i + 151, value_of (i + 151))))
    (dump_search o.Intf.search 300)

let test_segment_requires_fresh_heap () =
  let src = fresh_arena () in
  let ops = Registry.build "fastfair" src in
  ops.Intf.insert 1 11;
  Arena.drain src;
  let seg = Segment.capture src in
  let dst = fresh_arena () in
  ignore (Arena.alloc dst 8);
  Alcotest.check_raises "dirty destination rejected"
    (Invalid_argument
       "Segment.copy: destination heap is not empty (identity-offset \
        relocation needs a fresh arena)")
    (fun () -> Segment.copy ~src ~dst seg)

(* ------------------------------------------------------------------ *)
(* Live rebalances under a concurrent writer                           *)
(* ------------------------------------------------------------------ *)

(* Run [rebalance] against [t] while a writer inserts [keys]; returns
   the writer's inserted pairs. *)
let run_concurrent t arena rebalance keys =
  let pairs = List.map (fun k -> (k, value_of k)) keys in
  let writer _ =
    List.iter (fun (k, v) -> Shard.insert t ~key:k ~value:v) pairs
  in
  ignore
    (Mcsim.run ~cores:1 ~quantum_ns:1 ~arena
       [| writer; (fun _ -> rebalance ()) |]);
  pairs

let test_live_split () =
  let a = fresh_arena () in
  let t =
    Shard.create_composite ~inner:"fastfair"
      ~partition:(Shard.Partition.range ~bounds:[||])
      a
  in
  let prefill = List.init 40 (fun i -> (2 * i) + 1) in
  List.iter (fun k -> Shard.insert t ~key:k ~value:(value_of k)) prefill;
  let report = ref None in
  let written =
    run_concurrent t a
      (fun () -> report := Some (Rebalance.split t ~shard:0 ~pivot:40))
      (List.init 40 (fun i -> (2 * i) + 2))
  in
  let r = Option.get !report in
  Alcotest.(check int) "two shards" 2 (Shard.shards t);
  Alcotest.(check bool) "copy moved keys" true (r.Rebalance.r_moved_keys > 0);
  let expected =
    List.map (fun k -> (k, value_of k)) prefill @ written
  in
  check_pairs "all writes visible after split" expected
    (dump_search (Shard.search t) 80);
  (* The new topology survives a reattach. *)
  Arena.drain a;
  let t2 = Shard.attach ~inner:"fastfair" a in
  Shard.recover t2;
  Alcotest.(check int) "persisted topology" 2 (Shard.shards t2);
  check_pairs "reattached contents" expected (dump_search (Shard.search t2) 80);
  (* Occupancy respects the split spans: everything >= pivot lives in
     the new shard. *)
  let occ = Shard.occupancy t2 in
  Alcotest.(check int) "occupancy covers all keys" 80 (occ.(0) + occ.(1));
  let hi_keys = List.length (List.filter (fun (k, _) -> k >= 40) expected) in
  Alcotest.(check int) "right shard owns the moved span" hi_keys occ.(1)

let test_live_merge () =
  let a = fresh_arena () in
  let t =
    Shard.create_composite ~inner:"fastfair"
      ~partition:(Shard.Partition.range ~bounds:[| 50 |])
      a
  in
  let prefill = List.init 40 (fun i -> (2 * i) + 1) in
  List.iter (fun k -> Shard.insert t ~key:k ~value:(value_of k)) prefill;
  let report = ref None in
  let written =
    run_concurrent t a
      (fun () -> report := Some (Rebalance.merge t ~left:0))
      (List.init 40 (fun i -> (2 * i) + 2))
  in
  ignore (Option.get !report);
  Alcotest.(check int) "one shard" 1 (Shard.shards t);
  let expected = List.map (fun k -> (k, value_of k)) prefill @ written in
  check_pairs "all writes visible after merge" expected
    (dump_search (Shard.search t) 80);
  Arena.drain a;
  let t2 = Shard.attach ~inner:"fastfair" a in
  Shard.recover t2;
  Alcotest.(check int) "persisted topology" 1 (Shard.shards t2);
  check_pairs "reattached contents" expected (dump_search (Shard.search t2) 80)

let test_live_migrate () =
  let t = Shard.create ~group:false ~inner:"fastfair" ~shards:1 () in
  let src = (Shard.arenas t).(0) in
  let dst = fresh_arena () in
  let prefill = List.init 40 (fun i -> (2 * i) + 1) in
  List.iter (fun k -> Shard.insert t ~key:k ~value:(value_of k)) prefill;
  let report = ref None in
  let written =
    run_concurrent t src
      (fun () -> report := Some (Rebalance.migrate t ~shard:0 ~dst))
      (List.init 40 (fun i -> (2 * i) + 2))
  in
  let r = Option.get !report in
  Alcotest.(check bool) "segment words shipped" true
    (r.Rebalance.r_moved_words > 0);
  Alcotest.(check bool) "shard 0 serves from dst" true
    (Shard.instance_arena t 0 == dst);
  let expected = List.map (fun k -> (k, value_of k)) prefill @ written in
  check_pairs "all writes visible after migrate" expected
    (dump_search (Shard.search t) 80);
  (* The source keeps its committed decision word as a tombstone. *)
  (match Rebalance.phase src with
  | Rebalance.Committed _ -> ()
  | _ -> Alcotest.fail "migrated-away source lacks the tombstone");
  Alcotest.(check bool) "tombstone resolves to the destination" true
    (Rebalance.resolve src = Rebalance.Resolved_migrated)

(* ------------------------------------------------------------------ *)
(* Landing-span hygiene and throttling                                 *)
(* ------------------------------------------------------------------ *)

let test_merge_landing_clean () =
  let a = fresh_arena () in
  let t =
    Shard.create_composite ~inner:"fastfair"
      ~partition:(Shard.Partition.range ~bounds:[| 50 |])
      a
  in
  (* Right shard holds 60 and 70; key 60 then gets deleted. *)
  List.iter
    (fun k -> Shard.insert t ~key:k ~value:(value_of k))
    [ 10; 60; 70 ];
  (* Simulate the residue of an aborted earlier merge: a stale copy of
     key 60 (with a stale value) already sits in the left tree,
     invisible under the span clamp. *)
  (Shard.instance_ops t 0).Intf.insert 60 999999;
  Alcotest.(check (option int)) "stale copy is invisible"
    (Some (value_of 60)) (Shard.search t 60);
  ignore (Shard.delete t 60);
  (* The merge must not resurrect key 60 from the stale landing span. *)
  ignore (Mcsim.run ~cores:1 ~arena:a [| (fun _ -> ignore (Rebalance.merge t ~left:0)) |]);
  Alcotest.(check (option int)) "deleted key stays deleted" None
    (Shard.search t 60);
  check_pairs "survivors intact"
    [ (10, value_of 10); (70, value_of 70) ]
    (dump_search (Shard.search t) 100)

let test_throttle_charges_time () =
  let mk () =
    let a = fresh_arena () in
    let t =
      Shard.create_composite ~inner:"fastfair"
        ~partition:(Shard.Partition.range ~bounds:[||])
        a
    in
    for k = 1 to 200 do
      Shard.insert t ~key:k ~value:(value_of k)
    done;
    (a, t)
  in
  let copy_ns throttle =
    let a, t = mk () in
    let r = ref None in
    ignore
      (Mcsim.run ~cores:1 ~arena:a
         [| (fun _ -> r := Some (Rebalance.split ?throttle t ~shard:0 ~pivot:100)) |]);
    (Option.get !r).Rebalance.r_copy_ns
  in
  let slow =
    copy_ns (Some { Rebalance.bytes_per_ms = 64; chunk_ops = 16 })
  in
  let fast = copy_ns (Some { Rebalance.bytes_per_ms = 0; chunk_ops = 16 }) in
  Alcotest.(check bool)
    (Printf.sprintf "throttled copy is slower (%d vs %d ns)" slow fast)
    true
    (slow > 2 * fast)

(* ------------------------------------------------------------------ *)
(* Deterministic crash resolution                                      *)
(* ------------------------------------------------------------------ *)

(* Crash a composite split at [after] stores, then resolve + reattach
   and hold the tree to the acknowledged prefix. *)
let split_crash_at after =
  let a = fresh_arena () in
  let t =
    Shard.create_composite ~inner:"fastfair"
      ~partition:(Shard.Partition.range ~bounds:[||])
      a
  in
  let keys = List.init 30 (fun i -> i + 1) in
  List.iter (fun k -> Shard.insert t ~key:k ~value:(value_of k)) keys;
  (* Counted from the end of the prefill, so the sweep lands inside
     the rebalance itself. *)
  let crashed =
    Crash_util.crash_at a after (fun () ->
        ignore
          (Mcsim.run ~cores:1 ~quantum_ns:1 ~arena:a
             [| (fun _ -> ignore (Rebalance.split t ~shard:0 ~pivot:16)) |]))
  in
  Arena.power_fail a Storelog.Keep_all;
  ignore (Rebalance.resolve a);
  let t2 = Shard.attach ~inner:"fastfair" a in
  Shard.recover t2;
  (match Rebalance.phase a with
  | Rebalance.Idle -> ()
  | _ -> Alcotest.fail "resolution left a decision pending");
  check_pairs
    (Printf.sprintf "contents after crash at %d stores (crashed=%b)" after
       crashed)
    (List.map (fun k -> (k, value_of k)) keys)
    (dump_search (Shard.search t2) 30);
  (* Resolution is idempotent: running it again is a no-op. *)
  Alcotest.(check bool) "second resolve is idle" true
    (Rebalance.resolve a = Rebalance.Resolved_idle)

let test_split_crash_sweep () =
  (* Store counts chosen to land in prepare, copy, and cutover/finish;
     plus one far beyond (no crash at all). *)
  List.iter split_crash_at [ 5; 60; 200; 400; 100000 ]

(* Crash a composite rebalance before every store from the decision
   word's flip to Committed through the end, under [Keep_all], and
   hold resolution to the topology a crash-free run persists: the same
   shard manifest, the same shard count on reattach, and every key.
   The stores before the flip roll back and are the split sweep's
   business; everything from the flip on must roll forward. *)
let committed_crash_sweep ~bounds ~rebalance ~shards_after =
  let keys = List.init 30 (fun i -> i + 1) in
  let setup () =
    let a = Arena.create ~words:(1 lsl 16) () in
    let t =
      Shard.create_composite ~inner:"fastfair"
        ~partition:(Shard.Partition.range ~bounds)
        a
    in
    List.iter (fun k -> Shard.insert t ~key:k ~value:(value_of k)) keys;
    (a, t)
  in
  let go a t =
    Mcsim.run ~cores:1 ~quantum_ns:1 ~arena:a [| (fun _ -> rebalance t) |]
  in
  let a, t = setup () in
  let base = Arena.store_count a in
  ignore (go a t);
  let total = Arena.store_count a - base in
  let expected = Shard.read_manifest a in
  let committed_seen = ref false and rolled_forward = ref 0 in
  let check n crash =
    let a = crash Storelog.Keep_all in
    (match Rebalance.phase a with
    | Rebalance.Committed _ -> committed_seen := true
    | Rebalance.Idle | Rebalance.Preparing _ -> ());
    ignore (Rebalance.resolve a);
    if !committed_seen then begin
      incr rolled_forward;
      if Shard.read_manifest a <> expected then
        Alcotest.failf "crash at store %d of %d: resolved manifest differs" n
          total;
      let t2 = Shard.attach ~inner:"fastfair" a in
      Shard.recover t2;
      Alcotest.(check int)
        (Printf.sprintf "shards after crash at store %d" n)
        shards_after (Shard.shards t2);
      check_pairs
        (Printf.sprintf "contents after crash at store %d" n)
        (List.map (fun k -> (k, value_of k)) keys)
        (dump_search (Shard.search t2) 30)
    end
  in
  (* One more run, crashed before each of its stores. *)
  let a, t = setup () in
  let points = ref 0 in
  ignore
    (Arena.crash_each [| a |] (fun () -> go a t) (fun _ n crash ->
         if n < total then begin
           incr points;
           check n crash
         end));
  Alcotest.(check int) "a crash before every store" total !points;
  Alcotest.(check bool) "some crash points rolled forward" true
    (!rolled_forward > 1)

let test_split_resolves_live_topology () =
  committed_crash_sweep ~bounds:[||] ~shards_after:2 ~rebalance:(fun t ->
      ignore (Rebalance.split t ~shard:0 ~pivot:16))

let test_merge_resolves_live_topology () =
  committed_crash_sweep ~bounds:[| 16 |] ~shards_after:1 ~rebalance:(fun t ->
      ignore (Rebalance.merge t ~left:0))

(* ------------------------------------------------------------------ *)
(* The Rebalcheck family                                               *)
(* ------------------------------------------------------------------ *)

let rc_config kind = { RC.default with Cx.rebal_kind = kind; ops = 8; schedules = 2 }

(* Every schedule, the canonical Fifo one included, stores to every
   arena of the run: the source, and for a migrate the destination
   too.  The sweep crashes every store count from [first] to [last] on
   each, so its points are the stores plus one per arena per schedule,
   each under the three TSO modes. *)
let test_rebalcheck_clean () =
  List.iter
    (fun kind ->
      let name = RC.rkind_to_string kind in
      let r = RC.run ~config:(rc_config kind) "fastfair" in
      Alcotest.(check (list string))
        (Printf.sprintf "clean %s sweep" name)
        []
        (List.map (fun v -> v.C.detail) r.C.violations);
      let arenas = if kind = RC.Rb_migrate then 2 else 1 in
      Alcotest.(check int)
        (name ^ ": every store count of every arena")
        (r.C.stores + (arenas * (r.C.schedules_run + 1)))
        r.C.crash_points;
      Alcotest.(check int) (name ^ ": three modes per point") (3 * r.C.crash_points)
        r.C.crash_runs)
    [ RC.Rb_split; RC.Rb_merge; RC.Rb_migrate ]

let test_rebalcheck_mutant_fails () =
  let cfg =
    {
      (rc_config RC.Rb_split) with
      Cx.mutant = true;
      ops = 12;
    }
  in
  let r = RC.run ~config:cfg "fastfair" in
  if r.C.violations = [] then
    Alcotest.fail "drop-delta mutant slipped past the sweep";
  (* The counterexample must record its config and survive a JSON
     round-trip; the replay-dispatch test in test_check replays one. *)
  let v = List.hd r.C.violations in
  let cx = v.C.counterexample in
  Alcotest.(check string) "kind recorded" "split"
    (RC.rkind_to_string cx.Cx.config.Cx.rebal_kind);
  Alcotest.(check bool) "mutant recorded" true cx.Cx.config.Cx.mutant;
  match Cx.of_json (Cx.to_json cx) with
  | Error e -> Alcotest.failf "counterexample does not round-trip: %s" e
  | Ok cx' -> Alcotest.(check bool) "rebal survives the round-trip" true (cx' = cx)

(* The writer holds its last change to a moved key until the tap is
   in, so the canonical schedule alone, with no crash sweep, loses an
   acknowledged write under the drop-delta mutant: for every kind at
   seeds 1-5, however cheap the writer's ops are. *)
let test_rebalcheck_mutant_canonical () =
  List.iter
    (fun kind ->
      for seed = 1 to 5 do
        let cfg =
          {
            (rc_config kind) with
            Cx.mutant = true;
            ops = 12;
            seed;
            schedules = 0;
            crashes = false;
          }
        in
        let r = RC.run ~config:cfg "fastfair" in
        if r.C.violations = [] then
          Alcotest.failf "%s seed %d: the canonical schedule lost no write"
            (RC.rkind_to_string kind) seed
      done)
    [ RC.Rb_split; RC.Rb_merge; RC.Rb_migrate ]

let suite =
  [
    Alcotest.test_case "slot audit" `Quick test_slot_audit;
    Alcotest.test_case "segment roundtrip" `Quick test_segment_roundtrip;
    Alcotest.test_case "segment fresh heap" `Quick
      test_segment_requires_fresh_heap;
    Alcotest.test_case "live split" `Quick test_live_split;
    Alcotest.test_case "live merge" `Quick test_live_merge;
    Alcotest.test_case "live migrate" `Quick test_live_migrate;
    Alcotest.test_case "merge landing clean" `Quick test_merge_landing_clean;
    Alcotest.test_case "throttle" `Quick test_throttle_charges_time;
    Alcotest.test_case "split crash sweep" `Quick test_split_crash_sweep;
    Alcotest.test_case "split resolves to the live topology" `Quick
      test_split_resolves_live_topology;
    Alcotest.test_case "merge resolves to the live topology" `Quick
      test_merge_resolves_live_topology;
    Alcotest.test_case "rebalcheck clean" `Slow test_rebalcheck_clean;
    Alcotest.test_case "rebalcheck mutant" `Slow test_rebalcheck_mutant_fails;
    Alcotest.test_case "rebalcheck mutant, canonical schedule" `Quick
      test_rebalcheck_mutant_canonical;
  ]
