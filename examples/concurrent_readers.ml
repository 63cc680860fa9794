(* Lock-free search under concurrent writers (paper Section IV).

   The deterministic multicore simulator preempts at every PM access
   (quantum = 1ns), so readers get suspended in the middle of node
   scans while a writer's FAST shifts move keys under them — the exact
   scenario of the paper's Figure 1 walk-through — and still return
   correct results, because every intermediate store leaves a state
   the duplicate-pointer rule tolerates.

   Run with: dune exec examples/concurrent_readers.exe *)

module Arena = Ff_pmem.Arena
module Mcsim = Ff_mcsim.Mcsim
module Locks = Ff_index.Locks
module Tree = Ff_fastfair.Tree
module Prng = Ff_util.Prng

let value_of k = (2 * k) + 1

let () =
  let arena = Arena.create ~words:(1 lsl 21) () in
  let tree = Tree.create ~node_bytes:128 ~lock_mode:Locks.Sim arena in

  (* Preload (inside the simulator: the tree uses simulated locks). *)
  ignore
    (Mcsim.run ~arena
       [|
         (fun _ ->
           for k = 1 to 1000 do
             Tree.insert tree ~key:(2 * k) ~value:(value_of (2 * k))
           done);
       |]);
  print_endline "preloaded 1000 even keys";

  (* 6 readers hammer the even keys while 2 writers insert and delete
     odd keys, shifting records inside the same nodes. *)
  let anomalies = ref 0 and reads = ref 0 in
  let reader tid =
    let rng = Prng.create tid in
    for _ = 1 to 2000 do
      let k = 2 * (1 + Prng.int rng 1000) in
      incr reads;
      match Tree.search tree k with
      | Some v when v = value_of k -> ()
      | Some _ | None -> incr anomalies
    done
  in
  let writer tid =
    let rng = Prng.create (1000 + tid) in
    for _ = 1 to 800 do
      let k = (2 * (1 + Prng.int rng 1000)) + 1 in
      if Prng.bool rng then Tree.insert tree ~key:k ~value:(value_of k)
      else ignore (Tree.delete tree k)
    done
  in
  let outcome =
    Mcsim.run ~cores:8 ~quantum_ns:1 ~arena
      [| reader; reader; reader; writer; reader; writer; reader; reader |]
  in
  Printf.printf "%d lock-free reads against 1600 concurrent writes: %d anomalies\n"
    !reads !anomalies;
  Printf.printf "simulated makespan: %.2f ms on 8 cores\n"
    (float_of_int outcome.Mcsim.makespan_ns /. 1e6);
  Ff_fastfair.Invariant.check_exn tree;
  print_endline "final tree invariants OK";
  if !anomalies > 0 then exit 1;

  (* Scalability: the same search workload with 1..16 threads.  Reads
     never block, so throughput scales with cores. *)
  print_endline "\nlock-free read scaling (simulated 16-core machine):";
  List.iter
    (fun threads ->
      let per = 4000 / threads in
      let body tid =
        let rng = Prng.create (77 + tid) in
        for _ = 1 to per do
          ignore (Tree.search tree (2 * (1 + Prng.int rng 1000)))
        done
      in
      let o = Mcsim.run ~cores:16 ~arena (Array.init threads (fun _ -> body)) in
      Printf.printf "  %2d threads: %7.0f Kops/s\n" threads
        (float_of_int (per * threads) /. (float_of_int o.Mcsim.makespan_ns /. 1e9) /. 1000.))
    [ 1; 2; 4; 8; 16 ]
