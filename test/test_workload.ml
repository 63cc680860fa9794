(* Workload generators and the TPC-C driver. *)

open Ff_pmem
module Prng = Ff_util.Prng
module W = Ff_workload.Workload
module Tpcc = Ff_tpcc.Tpcc
module Intf = Ff_index.Intf

let test_distinct_uniform () =
  let rng = Prng.create 1 in
  let keys = W.distinct_uniform rng ~n:5000 ~space:100_000 in
  let seen = Hashtbl.create 5000 in
  Array.iter
    (fun k ->
      Alcotest.(check bool) "bounds" true (k >= 1 && k <= 100_000);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem seen k);
      Hashtbl.replace seen k ())
    keys

let test_sequential () =
  Alcotest.(check (array int)) "seq" [| 1; 2; 3 |] (W.sequential ~n:3);
  let rng = Prng.create 2 in
  let s = W.shuffled_sequential rng ~n:100 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (W.sequential ~n:100) sorted

let test_zipfian_bounds () =
  let rng = Prng.create 3 in
  let keys = W.zipfian rng ~n:10_000 ~space:1000 ~theta:0.99 in
  Array.iter
    (fun k -> Alcotest.(check bool) "bounds" true (k >= 1 && k <= 1000))
    keys;
  (* skew: the most common key should be much more frequent than median *)
  let freq = Hashtbl.create 64 in
  Array.iter
    (fun k -> Hashtbl.replace freq k (1 + Option.value ~default:0 (Hashtbl.find_opt freq k)))
    keys;
  let max_freq = Hashtbl.fold (fun _ v m -> max v m) freq 0 in
  Alcotest.(check bool) "skewed" true (max_freq > 200)

let test_mixed_trace_ratios () =
  let rng = Prng.create 4 in
  let mix =
    { W.insert_pct = 50; search_pct = 30; delete_pct = 15; range_pct = 5; range_len = 10; read_latest = false; scan_len_max = 0 }
  in
  let ops = W.mixed_trace rng ~n:20_000 ~space:1000 mix in
  let count p = Array.fold_left (fun acc op -> if p op then acc + 1 else acc) 0 ops in
  let ins = count (function W.Insert _ -> true | _ -> false) in
  let se = count (function W.Search _ -> true | _ -> false) in
  Alcotest.(check bool) "insert ratio" true (abs (ins - 10_000) < 600);
  Alcotest.(check bool) "search ratio" true (abs (se - 6000) < 600)

let test_run_trace () =
  let a = Arena.create ~words:(1 lsl 20) () in
  let t = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.create ~node_bytes:256 a) in
  let rng = Prng.create 5 in
  let mix =
    { W.insert_pct = 60; search_pct = 30; delete_pct = 5; range_pct = 5; range_len = 8; read_latest = false; scan_len_max = 0 }
  in
  let ops = W.mixed_trace rng ~n:2000 ~space:500 mix in
  let sum = W.run_trace t ops in
  Alcotest.(check bool) "checksum nonzero" true (sum > 0)

(* ------------------------------------------------------------------ *)
(* TPC-C                                                                *)
(* ------------------------------------------------------------------ *)

let small_cfg =
  { Tpcc.warehouses = 1; districts = 4; customers = 20; items = 100; seed = 7 }

let mk_tpcc () =
  let a = Arena.create ~words:(1 lsl 21) () in
  let idx = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.create ~node_bytes:256 a) in
  (a, Tpcc.load ~arena:a idx small_cfg)

let test_tpcc_load () =
  let _, t = mk_tpcc () in
  ignore t;
  Alcotest.(check int) "no orders yet" 0 (Tpcc.orders_created t)

let test_tpcc_new_order () =
  let _, t = mk_tpcc () in
  for _ = 1 to 25 do
    Tpcc.new_order t
  done;
  Alcotest.(check int) "orders" 25 (Tpcc.orders_created t)

let test_tpcc_all_transactions () =
  let _, t = mk_tpcc () in
  for _ = 1 to 10 do
    Tpcc.new_order t
  done;
  Tpcc.payment t;
  Tpcc.order_status t;
  Tpcc.delivery t;
  Tpcc.stock_level t;
  Alcotest.(check bool) "digest moved" true (Tpcc.checksum t <> 0)

let test_tpcc_mix_runs () =
  let _, t = mk_tpcc () in
  Tpcc.run t Tpcc.w1 ~txns:300;
  Alcotest.(check bool) "orders created" true (Tpcc.orders_created t > 50)

(* The five structures Figure 6 runs TPC-C on. *)
let tpcc_indexes =
  [
    ("fastfair", fun a -> Ff_fastfair.Tree.ops (Ff_fastfair.Tree.create ~node_bytes:256 a));
    ("wbtree", fun a -> Ff_wbtree.Wbtree.ops (Ff_wbtree.Wbtree.create ~node_bytes:1024 a));
    ("fptree", fun a -> Ff_fptree.Fptree.ops (Ff_fptree.Fptree.create ~leaf_bytes:256 a));
    ("skiplist", fun a -> Ff_skiplist.Skiplist.ops (Ff_skiplist.Skiplist.create a));
    ("wort", fun a -> Ff_wort.Wort.ops (Ff_wort.Wort.create a));
  ]

let test_tpcc_deterministic_across_indexes () =
  (* Same seed + mix on different index structures must read the same
     logical data. *)
  let run_with mk =
    let a = Arena.create ~words:(1 lsl 22) () in
    let idx = mk a in
    let t = Tpcc.load ~arena:a idx small_cfg in
    Tpcc.run t Tpcc.w2 ~txns:400;
    (Tpcc.orders_created t, Tpcc.checksum t)
  in
  match List.map (fun (name, mk) -> (name, run_with mk)) tpcc_indexes with
  | (base, r0) :: rest ->
      List.iter
        (fun (name, r) -> Alcotest.(check (pair int int)) (base ^ " = " ^ name) r0 r)
        rest
  | [] -> ()

(* Stock-Level's plan: one order-line scan and one stock scan, no
   per-line point lookups. *)
let test_stock_level_plan () =
  let searches = ref 0 and ranges = ref 0 in
  let a = Arena.create ~words:(1 lsl 21) () in
  let idx = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.create ~node_bytes:256 a) in
  let counted =
    {
      idx with
      Intf.search =
        (fun k ->
          incr searches;
          idx.Intf.search k);
      range =
        (fun lo hi f ->
          incr ranges;
          idx.Intf.range lo hi f);
    }
  in
  let t = Tpcc.load ~arena:a counted small_cfg in
  Tpcc.run t Tpcc.w1 ~txns:300;
  searches := 0;
  ranges := 0;
  Tpcc.stock_level t;
  Alcotest.(check int) "range calls" 2 !ranges;
  Alcotest.(check int) "search calls" 0 !searches

(* Nested-loop Stock-Level reference: the district's last 20 orders
   from an order-key scan, one order-line scan per order, and one
   point search of the stock row per line, counting distinct items.
   Keys follow the driver's layout: table tag in bits 56..59,
   warehouse 48..55, district 40..47, then [x lsl 8 lor y]. *)
let row_key tag w d x y = (tag lsl 56) lor (w lsl 48) lor (d lsl 40) lor (x lsl 8) lor y

let ref_low_stock a (idx : Intf.ops) ~w ~d ~threshold =
  let last = ref 0 in
  idx.Intf.range (row_key 4 w d 0 0) (row_key 4 w d 0xffffffff 0xff) (fun k _ ->
      last := max !last ((k lsr 8) land 0xffffffff));
  let low = Hashtbl.create 64 in
  for o = max 1 (!last - 19) to !last do
    idx.Intf.range (row_key 5 w d o 0) (row_key 5 w d o 0xff) (fun _ cell ->
        let i = (Arena.read a cell lsr 8) land 0xffffff in
        match idx.Intf.search (row_key 6 w 0 i 0) with
        | Some s when Arena.read a s < threshold -> Hashtbl.replace low i ()
        | _ -> ())
  done;
  Hashtbl.length low

let test_low_stock_reference () =
  List.iter
    (fun (name, mk) ->
      let a = Arena.create ~words:(1 lsl 22) () in
      let idx = mk a in
      let t = Tpcc.load ~arena:a idx small_cfg in
      Tpcc.run t Tpcc.w1 ~txns:300;
      let total = ref 0 in
      for w = 1 to small_cfg.Tpcc.warehouses do
        for d = 1 to small_cfg.Tpcc.districts do
          for threshold = 10 to 20 do
            let got = Tpcc.low_stock t ~w ~d ~threshold in
            Alcotest.(check int)
              (Printf.sprintf "%s w%d d%d threshold %d" name w d threshold)
              (ref_low_stock a idx ~w ~d ~threshold)
              got;
            total := !total + got
          done
        done
      done;
      Alcotest.(check bool) (name ^ ": some stock is low") true (!total > 0))
    tpcc_indexes

let test_tpcc_mixes_sum () =
  List.iter
    (fun m ->
      Alcotest.(check int) "mix sums to 100" 100
        Tpcc.(
          m.new_order_pct + m.payment_pct + m.status_pct + m.delivery_pct
          + m.stock_pct))
    [ Tpcc.w1; Tpcc.w2; Tpcc.w3; Tpcc.w4 ]

let suite =
  [
    Alcotest.test_case "distinct uniform" `Quick test_distinct_uniform;
    Alcotest.test_case "sequential" `Quick test_sequential;
    Alcotest.test_case "zipfian" `Quick test_zipfian_bounds;
    Alcotest.test_case "mixed trace ratios" `Quick test_mixed_trace_ratios;
    Alcotest.test_case "run trace" `Quick test_run_trace;
    Alcotest.test_case "tpcc load" `Quick test_tpcc_load;
    Alcotest.test_case "tpcc new order" `Quick test_tpcc_new_order;
    Alcotest.test_case "tpcc all txns" `Quick test_tpcc_all_transactions;
    Alcotest.test_case "tpcc mix" `Quick test_tpcc_mix_runs;
    Alcotest.test_case "tpcc cross-index determinism" `Quick test_tpcc_deterministic_across_indexes;
    Alcotest.test_case "tpcc stock-level plan" `Quick test_stock_level_plan;
    Alcotest.test_case "tpcc low_stock vs nested loop" `Quick test_low_stock_reference;
    Alcotest.test_case "tpcc mixes sum" `Quick test_tpcc_mixes_sum;
  ]

(* Crash in the middle of a TPC-C run on FAST+FAIR: recovery must keep
   the index consistent, and the workload must be resumable. *)
let test_tpcc_crash_midrun () =
  let a = Arena.create ~words:(1 lsl 22) () in
  let idx = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.create ~node_bytes:256 a) in
  let t = Tpcc.load ~arena:a idx small_cfg in
  ignore (Crash_util.crash_at a 20_000 (fun () -> Tpcc.run t Tpcc.w1 ~txns:2000));
  Arena.power_fail a (Storelog.Random_eviction (Prng.create 3));
  let tree = Ff_fastfair.Tree.open_existing ~node_bytes:256 a in
  Ff_fastfair.Tree.recover tree;
  (match Ff_fastfair.Invariant.check tree with
  | [] -> ()
  | vs -> Alcotest.failf "post-crash invariants: %s" (String.concat "; " vs));
  (* static rows loaded before the crash are all durable *)
  let ok = ref true in
  for w = 1 to small_cfg.Tpcc.warehouses do
    for i = 1 to small_cfg.Tpcc.items do
      let key = (6 lsl 56) lor (w lsl 48) lor (i lsl 8) in
      if Ff_fastfair.Tree.search tree key = None then ok := false
    done
  done;
  Alcotest.(check bool) "stock rows durable" true !ok

let tpcc_crash_tests =
  [ Alcotest.test_case "tpcc crash midrun" `Quick test_tpcc_crash_midrun ]

let suite = suite @ tpcc_crash_tests
