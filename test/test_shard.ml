(* Sharded serving layer: partitioning, the batched group-flush
   scheduler, the cross-shard merged range cursor, parallel recovery
   and the capability gate of the composite descriptor. *)

open Ff_pmem
module Prng = Ff_util.Prng
module Histogram = Ff_util.Histogram
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Workload = Ff_workload.Workload
module Shard = Ff_shard.Shard
module Partition = Ff_shard.Shard.Partition

let value_of k = (2 * k) + 1

(* ------------------------------------------------------------------ *)
(* Partitioner                                                         *)
(* ------------------------------------------------------------------ *)

let test_partition_hash () =
  let p = Partition.hash ~shards:8 in
  Alcotest.(check int) "shards" 8 (Partition.shards p);
  for k = 1 to 1000 do
    let s = Partition.shard_of p k in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 8);
    Alcotest.(check int) "deterministic" s (Partition.shard_of p k)
  done;
  Alcotest.(check (pair int int)) "hash scans all shards" (0, 7)
    (Partition.overlapping p ~lo:10 ~hi:20)

let test_partition_range () =
  let p = Partition.range ~bounds:[| 100; 200; 300 |] in
  Alcotest.(check int) "shards" 4 (Partition.shards p);
  Alcotest.(check int) "below first bound" 0 (Partition.shard_of p 99);
  Alcotest.(check int) "at a bound" 1 (Partition.shard_of p 100);
  Alcotest.(check int) "middle" 2 (Partition.shard_of p 250);
  Alcotest.(check int) "tail" 3 (Partition.shard_of p 1_000_000);
  Alcotest.(check (pair int int)) "overlap interval" (0, 2)
    (Partition.overlapping p ~lo:50 ~hi:250);
  Alcotest.(check (pair int int)) "single-shard overlap" (1, 1)
    (Partition.overlapping p ~lo:110 ~hi:150);
  match Partition.range ~bounds:[| 5; 5 |] with
  | _ -> Alcotest.fail "non-ascending bounds should raise"
  | exception Invalid_argument _ -> ()

let test_even_range () =
  let p = Partition.even_range ~shards:4 ~space:4000 in
  Alcotest.(check int) "shards" 4 (Partition.shards p);
  (* Every shard of an even split over a uniform space gets a slice. *)
  let hits = Array.make 4 0 in
  for k = 1 to 4000 do
    let s = Partition.shard_of p k in
    hits.(s) <- hits.(s) + 1
  done;
  Array.iter (fun c -> Alcotest.(check int) "even slice" 1000 c) hits

(* ------------------------------------------------------------------ *)
(* Cross-shard merged range                                            *)
(* ------------------------------------------------------------------ *)

(* Boundary-straddling keys on adjacent shards must come back in one
   globally ordered stream. *)
let test_range_boundary_keys () =
  let p = Partition.range ~bounds:[| 100; 200 |] in
  let t = Shard.create ~inner:"fastfair" ~shards:3 ~partition:p () in
  let keys = [ 98; 99; 100; 101; 199; 200; 201 ] in
  List.iter (fun k -> Shard.insert t ~key:k ~value:(value_of k)) keys;
  let got = ref [] in
  Shard.range t ~lo:1 ~hi:1000 (fun k v -> got := (k, v) :: !got);
  Alcotest.(check (list (pair int int)))
    "ordered across boundaries"
    (List.map (fun k -> (k, value_of k)) keys)
    (List.rev !got)

(* An empty shard in the middle of the scanned interval must not break
   the cursor or the ordering. *)
let test_range_empty_middle_shard () =
  let p = Partition.range ~bounds:[| 100; 200 |] in
  let t = Shard.create ~inner:"fastfair" ~shards:3 ~partition:p () in
  List.iter
    (fun k -> Shard.insert t ~key:k ~value:(value_of k))
    [ 10; 20; 300; 400 ];
  let got = ref [] in
  Shard.range t ~lo:1 ~hi:1000 (fun k _ -> got := k :: !got);
  Alcotest.(check (list int)) "skips empty shard" [ 10; 20; 300; 400 ]
    (List.rev !got)

(* Random workloads: the merged cursor must agree with a single-shard
   oracle on every queried window, under both policies. *)
let range_oracle_check partition =
  let shards = Partition.shards partition in
  let t = Shard.create ~inner:"fastfair" ~shards ~partition () in
  let oracle =
    Registry.build "fastfair" (Arena.create ~words:(1 lsl 20) ())
  in
  let rng = Prng.create 0xfeed in
  for _ = 1 to 2000 do
    let k = 1 + Prng.int rng 5000 in
    if Prng.int rng 10 < 8 then begin
      Shard.insert t ~key:k ~value:(value_of k);
      oracle.Intf.insert k (value_of k)
    end
    else begin
      let a = Shard.delete t k and b = oracle.Intf.delete k in
      Alcotest.(check bool) "delete agrees" b a
    end
  done;
  for _ = 1 to 50 do
    let lo = 1 + Prng.int rng 5000 in
    let hi = lo + Prng.int rng 1500 in
    let got = ref [] and want = ref [] in
    Shard.range t ~lo ~hi (fun k v -> got := (k, v) :: !got);
    oracle.Intf.range lo hi (fun k v -> want := (k, v) :: !want);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "window [%d,%d]" lo hi)
      (List.rev !want) (List.rev !got)
  done

let test_range_oracle_hash () = range_oracle_check (Partition.hash ~shards:4)

let test_range_oracle_range () =
  range_oracle_check (Partition.even_range ~shards:5 ~space:5001)

(* ------------------------------------------------------------------ *)
(* Batched scheduler                                                   *)
(* ------------------------------------------------------------------ *)

let mixed_trace ?(space = 3000) ?(search_pct = 25) seed n =
  let rng = Prng.create seed in
  Workload.mixed_trace rng ~n ~space
    {
      Workload.insert_pct = 75 - search_pct;
      search_pct;
      delete_pct = 15;
      range_pct = 10;
      range_len = 8;
      read_latest = false;
      scan_len_max = 0;
    }

(* One insert per window of [cap] ops on a single shard, the rest
   searches of keys an earlier window inserted: [m] windows are [m]
   batches only if the searches that skip the queue still count toward
   its [batch_cap]. *)
let windowed_trace ~cap m =
  Array.init (m * cap) (fun i ->
      let j = i / cap in
      if i mod cap = 0 then Workload.Insert (j + 1)
      else Workload.Search (1 + ((i * 7) mod (j + 1))))

(* submit must produce exactly the sequential result: same checksum,
   same final contents.  Every op, queued, skipped or scan, counts once
   under [shard.ops].  Returns the ensemble for further checks. *)
let check_submit ?(shards = 4) ?partition ~batch_cap trace =
  let tracer = Ff_trace.Trace.create ~capacity:1024 () in
  let t =
    Shard.create ~inner:"fastfair" ~shards ?partition ~batch_cap ~tracer ()
  in
  let oracle =
    Registry.build "fastfair" (Arena.create ~words:(1 lsl 20) ())
  in
  let got = Shard.submit t trace in
  let want = Workload.run_trace oracle trace in
  Alcotest.(check int) "checksum equals sequential" want got;
  Alcotest.(check int) "every op counted once" (Array.length trace)
    (Ff_trace.Metrics.counter_prefix_sum (Ff_trace.Trace.metrics tracer)
       "shard.ops");
  let pairs r ops =
    let acc = ref [] in
    r ops (fun k v -> acc := (k, v) :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list (pair int int)))
    "final contents equal"
    (pairs (fun ops f -> ops.Intf.range 1 20_000 f) oracle)
    (pairs (fun t f -> Shard.range t ~lo:1 ~hi:20_000 f) t);
  t

(* The default mix, and a 40-key space where many searches hit a key
   with a queued write and so must join its batch, at several batch
   caps under both partition policies. *)
let test_submit_equivalence () =
  let t = check_submit ~batch_cap:32 (mixed_trace 0x5eed 4000) in
  Alcotest.(check bool) "batches ran" true (Shard.batches t > 0);
  let hot = mixed_trace ~space:40 ~search_pct:40 0x407 3000 in
  List.iter
    (fun partition ->
      List.iter
        (fun batch_cap -> ignore (check_submit ~partition ~batch_cap hot))
        [ 1; 7; 64 ])
    [ Partition.hash ~shards:4; Partition.even_range ~shards:4 ~space:40 ];
  let t = check_submit ~shards:1 ~batch_cap:8 (windowed_trace ~cap:8 50) in
  Alcotest.(check int) "one batch per window" 50 (Shard.batches t)

(* A read-only submit runs no batch and issues no fence, and each
   search's latency is exactly its own service time: the latency
   samples sum to the shards' clock advance.  A scan across shards
   takes the largest clock advance among them. *)
let test_reads_skip_queue () =
  let t =
    Shard.create ~inner:"fastfair" ~shards:4 ~batch_cap:64
      ~partition:(Partition.even_range ~shards:4 ~space:2000) ()
  in
  for k = 1 to 2000 do
    Shard.insert t ~key:k ~value:(value_of k)
  done;
  let clocks () =
    Array.map (fun a -> Stats.total_ns (Arena.total_stats a)) (Shard.arenas t)
  in
  let fences () =
    Array.fold_left
      (fun acc a -> acc + (Arena.total_stats a).Stats.fences)
      0 (Shard.arenas t)
  in
  let advance c0 = Array.map2 ( - ) (clocks ()) c0 in
  let c0 = clocks () and f0 = fences () in
  let lat0 = Histogram.copy (Shard.merged_latency t) in
  let n = 3000 in
  let trace = Array.init n (fun i -> Workload.Search (1 + ((i * 37) mod 2500))) in
  ignore (Shard.submit t trace);
  let lat = Histogram.delta (Shard.merged_latency t) lat0 in
  Alcotest.(check int) "no batches" 0 (Shard.batches t);
  Alcotest.(check int) "no fences" f0 (fences ());
  Alcotest.(check int) "one sample per search" n (Histogram.count lat);
  Alcotest.(check int) "latency sum is service time"
    (Array.fold_left ( + ) 0 (advance c0))
    (int_of_float (Float.round (Histogram.mean lat *. float_of_int n)));
  let c0 = clocks () in
  let lat0 = Histogram.copy (Shard.merged_latency t) in
  (* Shard 0 reads 50 keys of this scan, shard 1 all of its 500. *)
  ignore (Shard.submit t [| Workload.Range (451, 200) |]);
  let lat = Histogram.delta (Shard.merged_latency t) lat0 in
  Alcotest.(check int) "scan latency is the slowest shard's"
    (Array.fold_left max 0 (advance c0))
    (int_of_float (Histogram.mean lat));
  Alcotest.(check int) "still no batches" 0 (Shard.batches t)

(* Group flush must leave identical contents while issuing strictly
   fewer fences (one per batch instead of one per flush). *)
let test_group_flush_fewer_fences () =
  let trace =
    Array.init 3000 (fun i -> Workload.Insert (1 + ((i * 7) mod 6000)))
  in
  let run group =
    let t = Shard.create ~inner:"fastfair" ~shards:4 ~batch_cap:64 ~group () in
    ignore (Shard.submit t trace);
    let fences =
      Array.fold_left
        (fun acc a -> acc + (Arena.total_stats a).Stats.fences)
        0 (Shard.arenas t)
    in
    let contents = ref [] in
    Shard.range t ~lo:1 ~hi:20_000 (fun k v -> contents := (k, v) :: !contents);
    (fences, !contents)
  in
  let eager_fences, eager_contents = run false in
  let group_fences, group_contents = run true in
  Alcotest.(check (list (pair int int)))
    "contents identical" eager_contents group_contents;
  Alcotest.(check bool)
    (Printf.sprintf "fewer fences under group flush (%d < %d)" group_fences
       eager_fences)
    true
    (group_fences < eager_fences)

(* Per-shard latency histograms populate and merge (satellite:
   Histogram.merge aggregates shard-local samples). *)
let test_latency_merge () =
  let t = Shard.create ~inner:"fastfair" ~shards:4 ~batch_cap:16 () in
  ignore (Shard.submit t (mixed_trace 0xab 1000));
  let merged = Shard.merged_latency t in
  let per_shard_total = ref 0 in
  for i = 0 to Shard.shards t - 1 do
    per_shard_total := !per_shard_total + Histogram.count (Shard.latency t i)
  done;
  Alcotest.(check bool) "samples recorded" true (!per_shard_total > 0);
  Alcotest.(check int) "merged count is the sum" !per_shard_total
    (Histogram.count merged)

let test_occupancy_imbalance () =
  let t = Shard.create ~inner:"fastfair" ~shards:4 () in
  for k = 1 to 400 do
    Shard.insert t ~key:k ~value:(value_of k)
  done;
  let occ = Shard.occupancy t in
  Alcotest.(check int) "total occupancy" 400 (Array.fold_left ( + ) 0 occ);
  let mx, mean = Shard.imbalance t in
  Alcotest.(check bool) "max >= mean" true (float_of_int mx >= mean);
  Alcotest.(check (float 0.001)) "mean" 100.0 mean

(* ------------------------------------------------------------------ *)
(* Crash and parallel recovery                                         *)
(* ------------------------------------------------------------------ *)

let test_power_fail_parallel_recovery () =
  let t = Shard.create ~inner:"fastfair" ~shards:4 () in
  let keys = Array.init 500 (fun i -> (i * 13) + 1) in
  Array.iter (fun k -> Shard.insert t ~key:k ~value:(value_of k)) keys;
  Shard.power_fail t (Ff_pmem.Storelog.Random_eviction (Prng.create 7));
  let outcome = Shard.recover_parallel t in
  Alcotest.(check bool) "simulated recovery advanced time" true
    (outcome.Ff_mcsim.Mcsim.makespan_ns > 0);
  Array.iter
    (fun k ->
      Alcotest.(check (option int))
        (Printf.sprintf "key %d after parallel recovery" k)
        (Some (value_of k)) (Shard.search t k))
    keys

(* Parallel recovery of independent shards should not take much longer
   than the slowest single shard (it runs them concurrently). *)
let test_parallel_recovery_concurrent () =
  let t = Shard.create ~inner:"fastfair" ~shards:4 () in
  for k = 1 to 2000 do
    Shard.insert t ~key:k ~value:(value_of k)
  done;
  Shard.power_fail t Ff_pmem.Storelog.Keep_all;
  let outcome = Shard.recover_parallel t in
  let per_thread = outcome.Ff_mcsim.Mcsim.thread_end_ns in
  let total = Array.fold_left ( + ) 0 per_thread in
  Alcotest.(check bool)
    (Printf.sprintf "makespan %d < serial sum %d"
       outcome.Ff_mcsim.Mcsim.makespan_ns total)
    true
    (Array.length per_thread = 1
    || outcome.Ff_mcsim.Mcsim.makespan_ns < total)

(* Single-arena composite: build, crash, reattach from the persisted
   shard manifest (range policy round-trips through PM). *)
let test_attach_roundtrip () =
  let d = Shard.descriptor ~policy:(`Range [| 1000; 2000 |]) ~inner:"wbtree"
      ~shards:3 ()
  in
  let a = Arena.create ~words:(1 lsl 21) () in
  let t = d.D.build D.default_config a in
  let keys = Array.init 300 (fun i -> (i * 11) + 1) in
  Array.iter (fun k -> t.Intf.insert k (value_of k)) keys;
  t.Intf.close ();
  Arena.power_fail a Ff_pmem.Storelog.Keep_all;
  let t2 = Shard.attach ~inner:"wbtree" a in
  (match Shard.partition t2 with
  | Partition.Range b ->
      Alcotest.(check (array int)) "bounds round-trip" [| 1000; 2000 |] b
  | Partition.Hash _ -> Alcotest.fail "range policy lost on reattach");
  Shard.recover t2;
  Array.iter
    (fun k ->
      Alcotest.(check (option int))
        (Printf.sprintf "key %d via attach" k)
        (Some (value_of k)) (Shard.search t2 k))
    keys

(* ------------------------------------------------------------------ *)
(* Capability gate                                                     *)
(* ------------------------------------------------------------------ *)

let expect_reject name =
  match Shard.descriptor ~inner:name ~shards:4 () with
  | _ -> Alcotest.fail (name ^ " should be rejected")
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (name ^ " error names the structure")
        true
        (String.length msg > 0)

let test_capability_gate () =
  (* blink is volatile and has a fixed root: both disqualify it. *)
  expect_reject "blink";
  (match Shard.descriptor ~inner:"sharded-fastfair" ~shards:2 () with
  | _ -> Alcotest.fail "nesting composites should be rejected"
  | exception Invalid_argument _ -> ());
  match Shard.descriptor ~inner:"fastfair" ~shards:99 () with
  | _ -> Alcotest.fail "oversized shard count should be rejected"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "hash partition" `Quick test_partition_hash;
    Alcotest.test_case "range partition" `Quick test_partition_range;
    Alcotest.test_case "even range partition" `Quick test_even_range;
    Alcotest.test_case "range: boundary keys" `Quick test_range_boundary_keys;
    Alcotest.test_case "range: empty middle shard" `Quick
      test_range_empty_middle_shard;
    Alcotest.test_case "range oracle (hash)" `Quick test_range_oracle_hash;
    Alcotest.test_case "range oracle (range)" `Quick test_range_oracle_range;
    Alcotest.test_case "submit equals sequential" `Quick
      test_submit_equivalence;
    Alcotest.test_case "reads skip the queue" `Quick test_reads_skip_queue;
    Alcotest.test_case "group flush: fewer fences" `Quick
      test_group_flush_fewer_fences;
    Alcotest.test_case "latency histograms merge" `Quick test_latency_merge;
    Alcotest.test_case "occupancy and imbalance" `Quick
      test_occupancy_imbalance;
    Alcotest.test_case "power fail + parallel recovery" `Quick
      test_power_fail_parallel_recovery;
    Alcotest.test_case "parallel recovery is concurrent" `Quick
      test_parallel_recovery_concurrent;
    Alcotest.test_case "composite attach roundtrip" `Quick
      test_attach_roundtrip;
    Alcotest.test_case "capability gate" `Quick test_capability_gate;
  ]
