(* Additional FAST+FAIR coverage: extreme node sizes, non-TSO
   tree-level crashes, leaf-lock variant crashes, binary-mode
   recovery, concurrent range scans, switch-direction stress. *)

open Ff_pmem
open Ff_fastfair
open Crash_util
module Prng = Ff_util.Prng
module Mcsim = Ff_mcsim.Mcsim
module Locks = Ff_index.Locks

let value_of k = (2 * k) + 1

let mk_arena ?(config = Config.default) ?(words = 1 lsl 21) () =
  Arena.create ~config ~words ()

let test_extreme_node_sizes () =
  List.iter
    (fun node_bytes ->
      let a = mk_arena () in
      let t = Tree.create ~node_bytes a in
      let rng = Prng.create node_bytes in
      let keys = Array.init 1500 (fun i -> (2 * i) + 1) in
      Prng.shuffle rng keys;
      Array.iter (fun k -> Tree.insert t ~key:k ~value:(value_of k)) keys;
      Array.iter
        (fun k ->
          Alcotest.(check (option int))
            (Printf.sprintf "%dB find" node_bytes)
            (Some (value_of k)) (Tree.search t k))
        keys;
      Alcotest.(check (option int)) "miss" None (Tree.search t 2);
      Invariant.check_exn t)
    [ 128; 256; 4096 ]

let test_min_capacity_layout () =
  (* 128B nodes: capacity 4, the minimum that still splits sanely. *)
  let l = Layout.make ~node_bytes:128 in
  Alcotest.(check int) "capacity" 4 l.Layout.capacity;
  let l = Layout.make ~node_bytes:4096 in
  Alcotest.(check int) "capacity 4KB" 252 l.Layout.capacity

let test_rejects_bad_node_bytes () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Layout.make: node_bytes must be a power of two >= 128")
    (fun () -> ignore (Layout.make ~node_bytes:64));
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Layout.make: node_bytes must be a power of two >= 128")
    (fun () -> ignore (Layout.make ~node_bytes:777))

let test_rejects_bad_keys_values () =
  let a = mk_arena () in
  let t = Tree.create a in
  Alcotest.check_raises "key 0" (Invalid_argument "Tree.insert: key must be positive")
    (fun () -> Tree.insert t ~key:0 ~value:1);
  Alcotest.check_raises "value 0" (Invalid_argument "Tree.insert: value must be nonzero")
    (fun () -> Tree.insert t ~key:1 ~value:0)

let test_empty_tree_operations () =
  let a = mk_arena () in
  let t = Tree.create a in
  Alcotest.(check (option int)) "search empty" None (Tree.search t 5);
  Alcotest.(check bool) "delete empty" false (Tree.delete t 5);
  let n = ref 0 in
  Tree.range t ~lo:1 ~hi:100 (fun _ _ -> incr n);
  Alcotest.(check int) "range empty" 0 !n;
  Alcotest.(check int) "height" 1 (Tree.height t);
  Invariant.check_exn t

let test_delete_everything_then_refill () =
  let a = mk_arena () in
  let t = Tree.create ~node_bytes:128 a in
  for round = 1 to 3 do
    for k = 1 to 400 do
      Tree.insert t ~key:k ~value:(value_of (k + (round * 1000)))
    done;
    for k = 1 to 400 do
      Alcotest.(check bool) "delete" true (Tree.delete t k)
    done;
    Alcotest.(check (list int)) "empty after round" [] (Invariant.keys t)
  done;
  for k = 1 to 400 do
    Tree.insert t ~key:k ~value:(value_of k)
  done;
  Invariant.check_exn t

let test_switch_direction_stress () =
  (* Alternate insert/delete so the switch counter flips constantly;
     searches interleave in both directions. *)
  let a = mk_arena () in
  let t = Tree.create ~node_bytes:128 a in
  let rng = Prng.create 99 in
  let model = Hashtbl.create 256 in
  for _ = 1 to 4000 do
    let k = 1 + Prng.int rng 300 in
    if Prng.bool rng then begin
      Tree.insert t ~key:k ~value:(value_of k);
      Hashtbl.replace model k ()
    end
    else begin
      ignore (Tree.delete t k);
      Hashtbl.remove model k
    end;
    (* immediate read-back in the opposite-parity state *)
    let expect = if Hashtbl.mem model k then Some (value_of k) else None in
    Alcotest.(check (option int)) "read-back" expect (Tree.search t k)
  done;
  Invariant.check_exn t

let insert_25 t = Tree.insert t ~key:25 ~value:(value_of 25)

let test_non_tso_tree_crash_enum () =
  (* Tree-level crash enumeration under the ARM memory model with
     dmb fences active: split + root growth must stay endurable. *)
  let config = Config.arm () in
  let a0 = Arena.create ~config ~words:(1 lsl 20) () in
  let t0 = Tree.create ~node_bytes:128 a0 in
  let setup = [ 10; 20; 30; 40 ] in
  List.iter (fun k -> Tree.insert t0 ~key:k ~value:(value_of k)) setup;
  let reopen = Tree.open_existing ~node_bytes:128 in
  ignore
    (crash_every a0 ~reopen insert_25 (fun k crash ->
         for seed = 0 to 3 do
           let tc =
             reopen (crash (Storelog.Non_tso_random (Prng.create ((k * 17) + seed))))
           in
           List.iter
             (fun key ->
               Alcotest.(check (option int))
                 (Printf.sprintf "non-tso crash@%d seed %d key %d" k seed key)
                 (Some (value_of key)) (Tree.search tc key))
             setup;
           Tree.recover tc;
           match Invariant.check tc with
           | [] -> ()
           | vs -> Alcotest.failf "non-tso crash@%d: %s" k (String.concat "; " vs)
         done))

let test_leaflock_crash_enum () =
  (* The serializable variant must be exactly as endurable. *)
  let a0 = mk_arena ~words:(1 lsl 20) () in
  let t0 = Tree.create ~node_bytes:128 ~leaf_read_locks:true a0 in
  let setup = [ 10; 20; 30; 40 ] in
  List.iter (fun k -> Tree.insert t0 ~key:k ~value:(value_of k)) setup;
  let reopen = Tree.open_existing ~node_bytes:128 ~leaf_read_locks:true in
  ignore
    (crash_every a0 ~reopen insert_25 (fun k crash ->
         let tc = reopen (crash Storelog.Keep_all) in
         List.iter
           (fun key ->
             Alcotest.(check (option int))
               (Printf.sprintf "leaflock crash@%d key %d" k key)
               (Some (value_of key)) (Tree.search tc key))
           setup;
         Tree.recover tc;
         Invariant.check_exn tc))

let test_binary_mode_crash_recovery () =
  (* Binary mode relies on count hints; recovery must rebuild them. *)
  let a = mk_arena () in
  let t = Tree.create ~node_bytes:256 ~mode:Node.Binary a in
  for k = 1 to 500 do
    Tree.insert t ~key:k ~value:(value_of k)
  done;
  Arena.power_fail a Storelog.Keep_all;
  let t = Tree.open_existing ~node_bytes:256 ~mode:Node.Binary a in
  Tree.recover t;
  for k = 1 to 500 do
    Alcotest.(check (option int)) "binary post-crash" (Some (value_of k)) (Tree.search t k)
  done;
  for k = 501 to 600 do
    Tree.insert t ~key:k ~value:(value_of k)
  done;
  Invariant.check_exn t

let test_concurrent_range_scans () =
  (* Range scans racing with writers return each surviving key at most
     once and in order. *)
  let a = mk_arena () in
  let t = Tree.create ~node_bytes:128 ~lock_mode:Locks.Sim a in
  ignore
    (Mcsim.run ~arena:a
       [|
         (fun _ ->
           for k = 1 to 300 do
             Tree.insert t ~key:(2 * k) ~value:(value_of (2 * k))
           done);
       |]);
  let bad = ref [] in
  let scanner tid =
    for _ = 1 to 5 do
      let last = ref 0 in
      Tree.range t ~lo:1 ~hi:10_000 (fun k _ ->
          if k <= !last then
            bad := Printf.sprintf "tid %d: %d after %d" tid k !last :: !bad;
          last := k)
    done
  in
  let writer _ =
    for k = 1 to 150 do
      Tree.insert t ~key:((2 * k) + 601) ~value:(value_of ((2 * k) + 601));
      ignore (Tree.delete t ((2 * k) + 601))
    done
  in
  ignore (Mcsim.run ~cores:8 ~quantum_ns:1 ~arena:a [| scanner; writer; scanner; writer |]);
  Alcotest.(check (list string)) "ordered, deduplicated scans" [] !bad;
  Invariant.check_exn t

let test_values_at_extremes () =
  let a = mk_arena () in
  let t = Tree.create a in
  let big = (1 lsl 60) - 1 in
  Tree.insert t ~key:big ~value:max_int;
  Tree.insert t ~key:1 ~value:(-1);
  Alcotest.(check (option int)) "max-ish key" (Some max_int) (Tree.search t big);
  Alcotest.(check (option int)) "negative value" (Some (-1)) (Tree.search t 1)

let test_many_crash_recover_cycles () =
  (* Crash, recover, keep writing — ten times in a row. *)
  let a = mk_arena ~words:(1 lsl 22) () in
  let t = ref (Tree.create ~node_bytes:256 a) in
  let model = Hashtbl.create 512 in
  let rng = Prng.create 5 in
  for cycle = 1 to 10 do
    ignore
      (crash_at a (400 + Prng.int rng 2000) (fun () ->
           for _ = 1 to 500 do
             let k = 1 + Prng.int rng 3000 in
             Tree.insert !t ~key:k ~value:(value_of k);
             Hashtbl.replace model k (value_of k)
           done));
    Arena.power_fail a (Storelog.Random_eviction (Prng.create cycle));
    t := Tree.open_existing ~node_bytes:256 a;
    Tree.recover !t;
    Hashtbl.iter
      (fun k v ->
        Alcotest.(check (option int))
          (Printf.sprintf "cycle %d key %d" cycle k)
          (Some v) (Tree.search !t k))
      model;
    Invariant.check_exn !t
  done

let suite =
  [
    Alcotest.test_case "extreme node sizes" `Quick test_extreme_node_sizes;
    Alcotest.test_case "layout capacities" `Quick test_min_capacity_layout;
    Alcotest.test_case "rejects bad node bytes" `Quick test_rejects_bad_node_bytes;
    Alcotest.test_case "rejects bad keys/values" `Quick test_rejects_bad_keys_values;
    Alcotest.test_case "empty tree ops" `Quick test_empty_tree_operations;
    Alcotest.test_case "delete all, refill" `Quick test_delete_everything_then_refill;
    Alcotest.test_case "switch direction stress" `Quick test_switch_direction_stress;
    Alcotest.test_case "non-TSO tree crash enum" `Slow test_non_tso_tree_crash_enum;
    Alcotest.test_case "leaflock crash enum" `Quick test_leaflock_crash_enum;
    Alcotest.test_case "binary mode crash" `Quick test_binary_mode_crash_recovery;
    Alcotest.test_case "concurrent range scans" `Quick test_concurrent_range_scans;
    Alcotest.test_case "extreme values" `Quick test_values_at_extremes;
    Alcotest.test_case "crash/recover cycles" `Quick test_many_crash_recover_cycles;
  ]
