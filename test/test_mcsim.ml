(* Multicore simulator: scheduling, locks, determinism — and the
   paper's Section IV suspended-reader interleaving, reproduced
   deterministically with a preempt-every-access quantum. *)

open Ff_pmem
module Mcsim = Ff_mcsim.Mcsim
module Prng = Ff_util.Prng
module Tree = Ff_fastfair.Tree
module Locks = Ff_index.Locks

let value_of k = (2 * k) + 1

let test_parallel_speedup () =
  (* 8 independent threads on 8 cores should take ~1 thread's time; on
     1 core, ~8x. *)
  let body _ = Mcsim.charge 1000 in
  let r8 = Mcsim.run ~cores:8 (Array.init 8 (fun _ -> body)) in
  let r1 = Mcsim.run ~cores:1 (Array.init 8 (fun _ -> body)) in
  Alcotest.(check int) "8 cores" 1000 r8.Mcsim.makespan_ns;
  Alcotest.(check int) "1 core" 8000 r1.Mcsim.makespan_ns

let test_more_threads_than_cores () =
  let body _ = for _ = 1 to 10 do Mcsim.charge 100 done in
  let r = Mcsim.run ~cores:4 ~quantum_ns:100 (Array.init 16 (fun _ -> body)) in
  Alcotest.(check int) "makespan = work/cores" (16 * 1000 / 4) r.Mcsim.makespan_ns

let test_determinism () =
  let mk () =
    let m = Mcsim.create_mutex () in
    let acc = ref [] in
    let body tid =
      for _ = 1 to 3 do
        Mcsim.charge (100 + (tid * 7));
        Mcsim.lock m;
        acc := tid :: !acc;
        Mcsim.unlock m
      done
    in
    let r = Mcsim.run ~cores:2 (Array.init 4 (fun _ -> body)) in
    (r.Mcsim.makespan_ns, !acc)
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_mutex_mutual_exclusion () =
  let m = Mcsim.create_mutex () in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let body _ =
    for _ = 1 to 20 do
      Mcsim.lock m;
      incr inside;
      if !inside > !max_inside then max_inside := !inside;
      Mcsim.charge 50;
      (* yields while holding the lock *)
      decr inside;
      Mcsim.unlock m
    done
  in
  ignore (Mcsim.run ~cores:8 ~quantum_ns:1 (Array.init 8 (fun _ -> body)));
  Alcotest.(check int) "never two holders" 1 !max_inside

let test_mutex_blocking_time () =
  (* Two threads serialize on one lock held for 1000ns each. *)
  let m = Mcsim.create_mutex () in
  let body _ =
    Mcsim.lock m;
    Mcsim.charge 1000;
    Mcsim.unlock m
  in
  let r = Mcsim.run ~cores:2 ~lock_ns:0 (Array.init 2 (fun _ -> body)) in
  Alcotest.(check int) "serialized" 2000 r.Mcsim.makespan_ns

let test_rwlock_readers_parallel () =
  let l = Mcsim.create_rwlock () in
  let body _ =
    Mcsim.rd_lock l;
    Mcsim.charge 1000;
    Mcsim.rd_unlock l
  in
  let r = Mcsim.run ~cores:8 ~lock_ns:0 ~contention_ns:0 (Array.init 8 (fun _ -> body)) in
  Alcotest.(check int) "readers in parallel" 1000 r.Mcsim.makespan_ns

let test_rwlock_writer_excludes () =
  let l = Mcsim.create_rwlock () in
  let in_write = ref false in
  let violation = ref false in
  let writer _ =
    Mcsim.wr_lock l;
    in_write := true;
    Mcsim.charge 500;
    in_write := false;
    Mcsim.wr_unlock l
  in
  let reader _ =
    Mcsim.rd_lock l;
    if !in_write then violation := true;
    Mcsim.charge 100;
    Mcsim.rd_unlock l
  in
  ignore
    (Mcsim.run ~cores:8 ~quantum_ns:1
       [| writer; reader; reader; writer; reader; reader |]);
  Alcotest.(check bool) "no reader during write" false !violation

let test_gate () =
  let g = Mcsim.create_gate () in
  let order = ref [] in
  let waiter tid =
    Mcsim.gate_wait g;
    order := tid :: !order
  in
  let opener _ =
    Mcsim.charge 5000;
    order := 99 :: !order;
    Mcsim.gate_open g
  in
  ignore (Mcsim.run ~cores:4 [| waiter; waiter; opener |]);
  (match List.rev !order with
  | 99 :: rest -> Alcotest.(check int) "both waiters ran" 2 (List.length rest)
  | _ -> Alcotest.fail "opener must run first")

(* A waiter parked in [await] is never runnable while its condition is
   false, so a scheduler that always picks the first runnable thread
   (which would run a spinning waiter forever) still runs the setter.
   The waiter resumes when the segment that set the flag ends. *)
let test_await () =
  let flag = ref false and set_at = ref 0 and resumed_at = ref 0 in
  let waiter _ =
    Mcsim.await (fun () -> !flag);
    resumed_at := Option.get (Mcsim.sim_now ())
  in
  let setter _ =
    for _ = 1 to 10 do
      Mcsim.charge 100
    done;
    flag := true;
    set_at := Option.get (Mcsim.sim_now ());
    Mcsim.charge 100
  in
  ignore
    (Mcsim.run ~cores:1 ~quantum_ns:1 ~policy:(Mcsim.Choose (fun _ -> 0))
       [| waiter; setter |]);
  Alcotest.(check (list int)) "set, then resumed after that segment" [ 1000; 1100 ]
    [ !set_at; !resumed_at ];
  Mcsim.await (fun () -> true);
  Alcotest.check_raises "false outside run"
    (Failure "Mcsim.await: condition false outside Mcsim.run")
    (fun () -> Mcsim.await (fun () -> false))

let test_contention_cost () =
  (* Read-lock acquisitions on one shared lock cost more with more
     concurrent readers. *)
  let time readers =
    let l = Mcsim.create_rwlock () in
    let body _ =
      for _ = 1 to 100 do
        Mcsim.rd_lock l;
        Mcsim.charge 10;
        Mcsim.rd_unlock l
      done
    in
    let r =
      Mcsim.run ~cores:16 ~lock_ns:20 ~contention_ns:20 ~quantum_ns:1
        (Array.init readers (fun _ -> body))
    in
    r.Mcsim.makespan_ns
  in
  let t1 = time 1 and t8 = time 8 in
  (* With contention cost, 8 readers are much slower than 8x-parallel
     would suggest. *)
  Alcotest.(check bool) "contention hurts" true (t8 > t1 * 2)

let test_my_tid () =
  let seen = Array.make 4 (-1) in
  let body tid = seen.(tid) <- Mcsim.my_tid () in
  ignore (Mcsim.run ~cores:4 (Array.init 4 (fun _ -> body)));
  Alcotest.(check (array int)) "tids" [| 0; 1; 2; 3 |] seen

let test_my_tid_outside_run () =
  Alcotest.check_raises "outside run" (Failure "Mcsim.my_tid: not inside Mcsim.run")
    (fun () -> ignore (Mcsim.my_tid ()))

(* ------------------------------------------------------------------ *)
(* FAST+FAIR under the simulator                                       *)
(* ------------------------------------------------------------------ *)

let mk_sim_tree ?(node_bytes = 128) ?(leaf_read_locks = false) () =
  let a = Arena.create ~words:(1 lsl 21) () in
  let t = Tree.create ~node_bytes ~lock_mode:Locks.Sim ~leaf_read_locks a in
  (a, t)

(* Run a single-thread simulation step (setup or post-checks touching
   Sim-mode locks must happen inside Mcsim.run). *)
let in_sim a f = ignore (Mcsim.run ~arena:a [| (fun _ -> f ()) |])

(* The Section IV scenario: a reader is suspended mid-scan while a
   writer shifts the node under it; the reader must still follow a
   correct pointer.  quantum_ns = 1 preempts at every PM access, and
   the FIFO scheduler interleaves reader and writer densely. *)
let test_suspended_reader_insert () =
  let a, t = mk_sim_tree () in
  in_sim a (fun () ->
      List.iter (fun k -> Tree.insert t ~key:k ~value:(value_of k)) [ 10; 20; 30; 40 ]);
  let results = Array.make 8 (Some 0) in
  let reader slot key tid =
    ignore tid;
    results.(slot) <- Tree.search t key
  in
  let writer _ = Tree.insert t ~key:25 ~value:(value_of 25) in
  let bodies =
    [| reader 0 10; reader 1 20; reader 2 30; reader 3 40; writer;
       reader 4 10; reader 5 30; reader 6 40; reader 7 20 |]
  in
  ignore (Mcsim.run ~cores:8 ~quantum_ns:1 ~arena:a bodies);
  List.iteri
    (fun i key ->
      Alcotest.(check (option int))
        (Printf.sprintf "reader %d key %d" i key)
        (Some (value_of key)) results.(i))
    [ 10; 20; 30; 40; 10; 30; 40; 20 ];
  Alcotest.(check (option int)) "writer committed" (Some (value_of 25)) (Tree.search t 25)

let test_suspended_reader_delete () =
  let a, t = mk_sim_tree () in
  in_sim a (fun () ->
      List.iter (fun k -> Tree.insert t ~key:k ~value:(value_of k)) [ 10; 20; 30; 40 ]);
  let results = Array.make 3 (Some 0) in
  let reader slot key tid =
    ignore tid;
    results.(slot) <- Tree.search t key
  in
  let writer _ = ignore (Tree.delete t 20) in
  ignore
    (Mcsim.run ~cores:4 ~quantum_ns:1 ~arena:a
       [| reader 0 10; writer; reader 1 30; reader 2 40 |]);
  List.iteri
    (fun i key ->
      Alcotest.(check (option int))
        (Printf.sprintf "reader %d survives delete shifts" i)
        (Some (value_of key)) results.(i))
    [ 10; 30; 40 ]

let test_concurrent_writers_disjoint () =
  let a, t = mk_sim_tree () in
  let n_threads = 8 and per = 50 in
  let writer tid =
    for i = 1 to per do
      let k = (tid * 1000) + i in
      Tree.insert t ~key:k ~value:(value_of k)
    done
  in
  ignore (Mcsim.run ~cores:8 ~quantum_ns:1 ~arena:a (Array.init n_threads (fun _ -> writer)));
  for tid = 0 to n_threads - 1 do
    for i = 1 to per do
      let k = (tid * 1000) + i in
      Alcotest.(check (option int))
        (Printf.sprintf "key %d" k)
        (Some (value_of k)) (Tree.search t k)
    done
  done;
  Ff_fastfair.Invariant.check_exn t

let test_concurrent_mixed_with_readers () =
  let a, t = mk_sim_tree () in
  in_sim a (fun () ->
      for k = 1 to 200 do
        Tree.insert t ~key:(2 * k) ~value:(value_of (2 * k))
      done);
  let bad = ref [] in
  let reader tid =
    let rng = Prng.create (tid + 1) in
    for _ = 1 to 100 do
      let k = 2 * (1 + Prng.int rng 200) in
      match Tree.search t k with
      | Some v when v = value_of k -> ()
      | Some v -> bad := Printf.sprintf "key %d -> %d" k v :: !bad
      | None -> bad := Printf.sprintf "key %d lost" k :: !bad
    done
  in
  let writer tid =
    let rng = Prng.create (tid + 100) in
    for _ = 1 to 60 do
      (* writers touch only odd keys; readers check only even keys *)
      let k = (2 * (1 + Prng.int rng 300)) + 1 in
      if Prng.bool rng then Tree.insert t ~key:k ~value:(value_of k)
      else ignore (Tree.delete t k)
    done
  in
  ignore
    (Mcsim.run ~cores:16 ~quantum_ns:1 ~arena:a
       [| reader; writer; reader; writer; reader; writer; reader; writer |]);
  Alcotest.(check (list string)) "no anomalies" [] !bad;
  Ff_fastfair.Invariant.check_exn t

let test_leaflock_variant_concurrent () =
  let a, t = mk_sim_tree ~leaf_read_locks:true () in
  in_sim a (fun () ->
      for k = 1 to 100 do
        Tree.insert t ~key:k ~value:(value_of k)
      done);
  let ok = ref true in
  let reader tid =
    let rng = Prng.create tid in
    for _ = 1 to 50 do
      let k = 1 + Prng.int rng 100 in
      if Tree.search t k <> Some (value_of k) then ok := false
    done
  in
  let writer _ =
    for k = 101 to 140 do
      Tree.insert t ~key:k ~value:(value_of k)
    done
  in
  ignore (Mcsim.run ~cores:8 ~quantum_ns:1 ~arena:a [| reader; writer; reader; reader |]);
  in_sim a (fun () ->
      for k = 101 to 140 do
        if Tree.search t k <> Some (value_of k) then ok := false
      done);
  Alcotest.(check bool) "leaflock reads correct" true !ok;
  Ff_fastfair.Invariant.check_exn t

let suite =
  [
    Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "threads > cores" `Quick test_more_threads_than_cores;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "mutex exclusion" `Quick test_mutex_mutual_exclusion;
    Alcotest.test_case "mutex blocking time" `Quick test_mutex_blocking_time;
    Alcotest.test_case "rwlock parallel readers" `Quick test_rwlock_readers_parallel;
    Alcotest.test_case "rwlock writer excludes" `Quick test_rwlock_writer_excludes;
    Alcotest.test_case "gate" `Quick test_gate;
    Alcotest.test_case "await" `Quick test_await;
    Alcotest.test_case "lock contention cost" `Quick test_contention_cost;
    Alcotest.test_case "my_tid" `Quick test_my_tid;
    Alcotest.test_case "my_tid outside run" `Quick test_my_tid_outside_run;
    Alcotest.test_case "suspended reader vs insert" `Quick test_suspended_reader_insert;
    Alcotest.test_case "suspended reader vs delete" `Quick test_suspended_reader_delete;
    Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers_disjoint;
    Alcotest.test_case "mixed readers/writers" `Quick test_concurrent_mixed_with_readers;
    Alcotest.test_case "leaflock variant" `Quick test_leaflock_variant_concurrent;
  ]

let test_lock_port_resets_between_runs () =
  (* Port timestamps must not leak across Mcsim.run invocations. *)
  let m = Mcsim.create_mutex () in
  let body _ =
    for _ = 1 to 100 do
      Mcsim.lock m;
      Mcsim.charge 10;
      Mcsim.unlock m
    done
  in
  let r1 = Mcsim.run ~cores:2 ~contention_ns:50 [| body |] in
  let r2 = Mcsim.run ~cores:2 ~contention_ns:50 [| body |] in
  Alcotest.(check int) "same makespan across runs" r1.Mcsim.makespan_ns r2.Mcsim.makespan_ns

let test_port_serializes_shared_lock () =
  (* N threads hammering one lock are bounded by the port rate. *)
  let time threads =
    let l = Mcsim.create_rwlock () in
    let body _ =
      for _ = 1 to 200 do
        Mcsim.rd_lock l;
        Mcsim.rd_unlock l
      done
    in
    (Mcsim.run ~cores:16 ~lock_ns:0 ~contention_ns:100 (Array.init threads (fun _ -> body)))
      .Mcsim.makespan_ns
  in
  let t1 = time 1 and t8 = time 8 in
  (* 8x the lock traffic through one port: makespan must grow ~8x *)
  Alcotest.(check bool)
    (Printf.sprintf "port-bound (%d vs %d)" t1 t8)
    true
    (t8 > 5 * t1)

let test_spread_locks_scale () =
  (* Distinct locks have distinct ports: no serialization. *)
  let time threads =
    let locks = Array.init threads (fun _ -> Mcsim.create_mutex ()) in
    let body tid =
      for _ = 1 to 200 do
        Mcsim.lock locks.(tid);
        Mcsim.charge 10;
        Mcsim.unlock locks.(tid)
      done
    in
    (Mcsim.run ~cores:16 ~lock_ns:0 ~contention_ns:100 (Array.init threads (fun _ -> body)))
      .Mcsim.makespan_ns
  in
  let t1 = time 1 and t8 = time 8 in
  Alcotest.(check bool)
    (Printf.sprintf "parallel (%d vs %d)" t1 t8)
    true
    (t8 < 2 * t1)

let extra =
  [
    Alcotest.test_case "lock port resets between runs" `Quick test_lock_port_resets_between_runs;
    Alcotest.test_case "port serializes shared lock" `Quick test_port_serializes_shared_lock;
    Alcotest.test_case "spread locks scale" `Quick test_spread_locks_scale;
  ]

let suite = suite @ extra
