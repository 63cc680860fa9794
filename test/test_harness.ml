(* Sequential crash sweeps over every persistent index, the
   crash-point sampler, plus histogram and tree-helper coverage. *)

open Ff_pmem
module Prng = Ff_util.Prng
module Histogram = Ff_util.Histogram
module Intf = Ff_index.Intf
module C = Ff_check.Check
module W = Ff_workload.Workload

let value_of k = (2 * k) + 1

(* ------------------------------------------------------------------ *)
(* Sequential crash sweeps across the persistent indexes               *)
(* ------------------------------------------------------------------ *)

(* A one-thread model check on the indexes' own small nodes: one
   writer's 13 ops over 150 prefilled keys, crashed at every store
   count under the three TSO modes.  After recovery every image must
   be durably linearizable. *)
let harness_case name node_bytes () =
  let config =
    {
      C.default with
      Ff_check.Counterexample.writers = 1;
      readers = 0;
      ops = 13;
      keyspace = 300;
      prefill = 150;
      node_bytes;
    }
  in
  let r = C.run ~config name in
  Alcotest.(check (option string)) (name ^ " checkable") None r.C.skipped;
  List.iter
    (fun v ->
      Alcotest.failf "%s: %s violation: %s" name (C.kind_to_string v.C.kind) v.C.detail)
    r.C.violations;
  Alcotest.(check bool) (name ^ " span > 0") true (r.C.stores > 0);
  Alcotest.(check int) (name ^ " every store count crashed") (r.C.stores + 1) r.C.crash_points;
  Alcotest.(check int) (name ^ " recovered everywhere") (3 * r.C.crash_points) r.C.crash_runs

let harness_fastfair = harness_case "fastfair" (Some 128)
let harness_wbtree = harness_case "wbtree" (Some 256)
let harness_fptree = harness_case "fptree" (Some 256)
let harness_wort = harness_case "wort" None
let harness_skiplist = harness_case "skiplist" None

(* FAST+FAIR additionally guarantees reader tolerance BEFORE recovery
   -- the paper's differentiator; append-only/logged designs need their
   recovery step first.  Stronger than the checker's no-fabrication
   oracle: at every store of an insert batch, under each TSO
   crash mode, a reader of the unrecovered image finds every committed
   key with its value. *)
let test_fastfair_pre_recovery_tolerance () =
  (* Every store of the batch is crashed three ways, and each crash
     copies the arena: a small one keeps the sweep cheap. *)
  let base = Arena.create ~words:(1 lsl 16) () in
  let t = Ff_fastfair.Tree.create ~node_bytes:128 base in
  let keys = List.init 150 (fun i -> (i + 1) * 3) in
  List.iter (fun k -> Ff_fastfair.Tree.insert t ~key:k ~value:(value_of k)) keys;
  let reopen a = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.open_existing ~node_bytes:128 a) in
  let batch (t : Intf.ops) =
    for i = 1 to 12 do
      t.Intf.insert (10_000 + i) (value_of (10_000 + i))
    done
  in
  let span =
    Crash_util.crash_every base ~reopen batch (fun at crash ->
        List.iter
          (fun (label, mode) ->
            let t' = reopen (crash mode) in
            List.iter
              (fun k ->
                Alcotest.(check (option int))
                  (Printf.sprintf "crash at %d (%s): key %d before recovery" at label k)
                  (Some (value_of k)) (t'.Intf.search k))
              keys)
          [
            ("keep_none", Storelog.Keep_none);
            ("keep_all", Storelog.Keep_all);
            ("random_eviction", Storelog.Random_eviction (Prng.create at));
          ])
  in
  Alcotest.(check bool) "span > 0" true (span > 0)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_basics () =
  let h = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.add h v
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  Alcotest.(check (float 1.)) "mean" 500.5 (Histogram.mean h);
  Alcotest.(check int) "max" 1000 (Histogram.max_sample h);
  let p50 = Histogram.percentile h 50. in
  Alcotest.(check bool) (Printf.sprintf "p50 ~500 (got %d)" p50) true
    (p50 >= 500 && p50 <= 750);
  let p99 = Histogram.percentile h 99. in
  Alcotest.(check bool) (Printf.sprintf "p99 ~990 (got %d)" p99) true
    (p99 >= 990 && p99 <= 1000)

let test_histogram_empty_and_zero () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty p50" 0 (Histogram.percentile h 50.);
  Histogram.add h 0;
  Histogram.add h (-5);
  Alcotest.(check int) "zeros counted" 2 (Histogram.count h);
  Alcotest.(check int) "p99 of zeros" 0 (Histogram.percentile h 99.)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 10;
  Histogram.add b 1_000_000;
  Histogram.merge a b;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  Alcotest.(check int) "merged max" 1_000_000 (Histogram.max_sample a)

let test_histogram_wide_range () =
  let h = Histogram.create () in
  let rng = Prng.create 13 in
  for _ = 1 to 10_000 do
    Histogram.add h (1 lsl Prng.int rng 40)
  done;
  (* bucket error bounded: p100 >= actual max / 1.5 *)
  let p100 = Histogram.percentile h 100. in
  Alcotest.(check bool) "p100 sane" true (p100 <= Histogram.max_sample h)

(* ------------------------------------------------------------------ *)
(* Tree helpers                                                        *)
(* ------------------------------------------------------------------ *)

let test_tree_cardinal () =
  let a = Arena.create ~words:(1 lsl 20) () in
  let t = Ff_fastfair.Tree.create ~node_bytes:128 a in
  Alcotest.(check int) "empty cardinal" 0 (Ff_fastfair.Tree.cardinal t);
  let rng = Prng.create 17 in
  let keys = W.distinct_uniform rng ~n:700 ~space:100_000 in
  Array.iter (fun k -> Ff_fastfair.Tree.insert t ~key:k ~value:(value_of k)) keys;
  Alcotest.(check int) "cardinal" 700 (Ff_fastfair.Tree.cardinal t);
  ignore (Ff_fastfair.Tree.delete t keys.(0));
  Alcotest.(check int) "cardinal after delete" 699 (Ff_fastfair.Tree.cardinal t)

let suite =
  [
    Alcotest.test_case "harness: fastfair" `Quick harness_fastfair;
    Alcotest.test_case "harness: wbtree" `Quick harness_wbtree;
    Alcotest.test_case "harness: fptree" `Quick harness_fptree;
    Alcotest.test_case "harness: wort" `Quick harness_wort;
    Alcotest.test_case "harness: skiplist" `Quick harness_skiplist;
    Alcotest.test_case "fastfair pre-recovery tolerance" `Quick test_fastfair_pre_recovery_tolerance;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "histogram empty/zero" `Quick test_histogram_empty_and_zero;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram wide range" `Quick test_histogram_wide_range;
    Alcotest.test_case "tree cardinal" `Quick test_tree_cardinal;
  ]
