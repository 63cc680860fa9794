(* Benchmark harness: one target per table/figure of the paper's
   evaluation (Section V), regenerating each series from the PM cost
   model (simulated nanoseconds) or, for Figure 7, from the multicore
   simulator's makespan.  `main.exe --help` lists targets; the default
   runs everything at a scaled-down size.

   Absolute numbers differ from the paper (our substrate is a
   simulator, not a Haswell testbed with Quartz); the *shapes* — who
   wins, crossover points, scaling knees — are the reproduction
   targets and are recorded against the paper in EXPERIMENTS.md. *)

module Arena = Ff_pmem.Arena
module Config = Ff_pmem.Config
module Stats = Ff_pmem.Stats
module Storelog = Ff_pmem.Storelog
module Prng = Ff_util.Prng
module Table = Ff_util.Table
module Mcsim = Ff_mcsim.Mcsim
module Locks = Ff_index.Locks
module Intf = Ff_index.Intf
module Descriptor = Ff_index.Descriptor
module Registry = Ff_index.Registry
module W = Ff_workload.Workload
module Shard = Ff_shard.Shard
module Histogram = Ff_util.Histogram
module Tree = Ff_fastfair.Tree
module Tpcc = Ff_tpcc.Tpcc
module Rebalance = Ff_rebalance.Rebalance

(* ------------------------------------------------------------------ *)
(* Scales (overridable via CLI)                                        *)
(* ------------------------------------------------------------------ *)

let scale = ref 1.0

let sc n = max 16 (int_of_float (float_of_int n *. !scale))

(* Scheduling policy for the concurrent (multi-thread) Mcsim runs:
   rerunning with the same policy+seed replays the same interleavings. *)
let sched_policy = ref "fifo"
let sched_seed = ref 0
let sched () = Mcsim.policy_of_spec ~seed:!sched_seed !sched_policy

(* Zipfian skew for the YCSB-style and soak workloads (--zipf). *)
let zipf_theta = ref 0.99

(* ------------------------------------------------------------------ *)
(* Builders — resolved through the index registry                      *)
(* ------------------------------------------------------------------ *)

let arena ?(config = Config.default) words = Arena.create ~config ~words ()

type maker = { label : string; build : Arena.t -> Intf.ops }

let of_registry ?label ?node_bytes ?(lock = Locks.Single) name =
  let d = Registry.find_exn name in
  {
    label = (match label with Some l -> l | None -> name);
    build =
      d.Descriptor.build
        { Descriptor.default_config with Descriptor.node_bytes; lock_mode = lock };
  }

let fastfair ?node_bytes ?lock () =
  of_registry ~label:"fast+fair" ?node_bytes ?lock "fastfair"

let fastlog () = of_registry ~label:"fast+log" "fastfair-logged"

let leaflock ?lock () = of_registry ~label:"ff+leaflock" ?lock "fastfair-leaflock"

let wbtree ?node_bytes () = of_registry ~label:"wb+tree" ?node_bytes "wbtree"

let fptree ?leaf_bytes ?lock () =
  of_registry ~label:"fp-tree" ?node_bytes:leaf_bytes ?lock "fptree"

let wort () = of_registry "wort"
let skiplist ?lock () = of_registry ?lock "skiplist"
let blink ?lock () = of_registry ~label:"b-link" ?lock "blink"

(* Search-mode (linear vs binary FAST) is a node-level ablation knob of
   the fastfair library, not an index-level capability; Figure 3 and
   ablation (4) build it directly. *)
let fastfair_mode ~node_bytes ~mode a = Tree.ops (Tree.create ~node_bytes ~mode a)

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let us_per_op a n = float_of_int (Arena.elapsed_ns a) /. float_of_int n /. 1000.

let kops a n =
  let ns = Arena.elapsed_ns a in
  if ns = 0 then 0. else float_of_int n /. (float_of_int ns /. 1e9) /. 1000.

(* ------------------------------------------------------------------ *)
(* Figure 3: linear vs binary search across node sizes                 *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  print_endline "== Figure 3: linear vs binary search, by node size (us/op) ==";
  print_endline "   (1M random keys in the paper; scaled here; PM = DRAM latency)";
  let n = sc 100_000 in
  let tbl =
    Table.create
      [ "node"; "lin-insert"; "bin-insert"; "lin-search"; "bin-search" ]
  in
  List.iter
    (fun node_bytes ->
      let cell mode phase =
        let a = arena (n * 48) in
        let rng = Prng.create 1 in
        let keys = W.distinct_uniform rng ~n ~space:(8 * n) in
        let t = fastfair_mode ~node_bytes ~mode a in
        (match phase with
        | `Insert ->
            Arena.reset_stats a;
            W.load_keys t keys
        | `Search ->
            W.load_keys t keys;
            Arena.reset_stats a;
            Array.iter (fun k -> ignore (t.Intf.search k)) keys);
        us_per_op a n
      in
      Table.add_floats tbl
        (string_of_int node_bytes ^ "B")
        [
          cell Ff_fastfair.Node.Linear `Insert;
          cell Ff_fastfair.Node.Binary `Insert;
          cell Ff_fastfair.Node.Linear `Search;
          cell Ff_fastfair.Node.Binary `Search;
        ])
    [ 256; 512; 1024; 2048; 4096 ];
  Table.print tbl

(* ------------------------------------------------------------------ *)
(* Figure 4: range query speedup over SkipList                         *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  print_endline "== Figure 4: range-query speedup over SkipList (read latency 300ns) ==";
  print_endline "   (10M keys / 1KB nodes in the paper; scaled here)";
  let n = sc 200_000 in
  let space = 8 * n in
  let queries = 20 in
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  let makers =
    [
      fastfair ~node_bytes:1024 ();
      fptree ();
      wbtree ();
      wort ();
      skiplist ();
    ]
  in
  let ratios = [ 0.1; 0.5; 1.0; 3.0; 5.0 ] in
  (* time per (maker, ratio) *)
  let times =
    List.map
      (fun m ->
        let a = arena ~config (n * 56) in
        let t = m.build a in
        let rng = Prng.create 2 in
        let keys = W.distinct_uniform rng ~n ~space in
        W.load_keys t keys;
        let per_ratio =
          List.map
            (fun r ->
              let width = int_of_float (float_of_int space *. r /. 100.) in
              Arena.reset_stats a;
              let qrng = Prng.create 3 in
              for _ = 1 to queries do
                let lo = 1 + Prng.int qrng (space - width) in
                t.Intf.range lo (lo + width) (fun _ _ -> ())
              done;
              us_per_op a queries)
            ratios
        in
        (m.label, per_ratio))
      makers
  in
  let skip_times = List.assoc "skiplist" times in
  let tbl = Table.create ("ratio%" :: List.map (fun (l, _) -> l) times) in
  List.iteri
    (fun i r ->
      Table.add_floats tbl
        (Printf.sprintf "%.1f" r)
        (List.map (fun (_, ts) -> List.nth skip_times i /. List.nth ts i) times))
    ratios;
  Table.print tbl;
  print_endline "   (values are speedups: higher = faster than SkipList)"

(* ------------------------------------------------------------------ *)
(* Figure 5: latency sweeps                                            *)
(* ------------------------------------------------------------------ *)

let insert_makers () =
  [ fastfair (); fastlog (); fptree (); wbtree (); wort (); skiplist () ]

let search_makers () =
  [ fastfair (); fptree (); wbtree (); wort (); skiplist () ]

let fig5a () =
  print_endline "== Figure 5(a): insertion-time breakdown (us/op) by PM latency ==";
  let n = sc 100_000 in
  let space = 8 * n in
  List.iter
    (fun lat ->
      Printf.printf "-- read/write latency %d ns --\n" lat;
      let config = Config.pm ~read_ns:lat ~write_ns:lat () in
      let tbl = Table.create [ "index"; "clflush"; "search"; "update"; "total" ] in
      List.iter
        (fun m ->
          let a = arena ~config (n * 56) in
          let t = m.build a in
          let rng = Prng.create 4 in
          let keys = W.distinct_uniform rng ~n ~space in
          let half = n / 2 in
          Array.iteri (fun i k -> if i < half then t.Intf.insert k (W.value_of k)) keys;
          Arena.reset_stats a;
          Array.iteri (fun i k -> if i >= half then t.Intf.insert k (W.value_of k)) keys;
          let s = Arena.total_stats a in
          let ops = float_of_int (n - half) *. 1000. in
          let flush = float_of_int (s.Stats.flush_ns + s.Stats.fence_ns) /. ops in
          let search = float_of_int s.Stats.search_ns /. ops in
          let update = float_of_int (s.Stats.update_ns + s.Stats.other_ns) /. ops in
          Table.add_floats tbl m.label [ flush; search; update; flush +. search +. update ])
        (insert_makers ());
      Table.print tbl)
    [ 120; 300; 600; 900 ]

let latency_sweep ~title ~latencies ~config_of ~makers ~run =
  print_endline title;
  let tbl = Table.create ("ns" :: List.map (fun m -> m.label) (makers ())) in
  List.iter
    (fun lat ->
      let row =
        List.map
          (fun m ->
            let config = config_of lat in
            run config m)
          (makers ())
      in
      Table.add_floats tbl (string_of_int lat) row)
    latencies;
  Table.print tbl

let fig5b () =
  let n = sc 100_000 in
  let space = 8 * n in
  latency_sweep
    ~title:"== Figure 5(b): search time (us/op) vs PM read latency =="
    ~latencies:[ 120; 300; 600; 900 ]
    ~config_of:(fun lat -> Config.pm ~read_ns:lat ~write_ns:300 ())
    ~makers:search_makers
    ~run:(fun config m ->
      let a = arena ~config (n * 56) in
      let t = m.build a in
      let rng = Prng.create 5 in
      let keys = W.distinct_uniform rng ~n ~space in
      W.load_keys t keys;
      let probes = min n (sc 50_000) in
      Arena.reset_stats a;
      for i = 0 to probes - 1 do
        ignore (t.Intf.search keys.(i * (n / probes)))
      done;
      us_per_op a probes)

let fig5c () =
  let n = sc 100_000 in
  let space = 8 * n in
  latency_sweep
    ~title:"== Figure 5(c): insert time (us/op) vs PM write latency (TSO) =="
    ~latencies:[ 120; 300; 600; 900 ]
    ~config_of:(fun lat -> Config.pm ~read_ns:120 ~write_ns:lat ())
    ~makers:insert_makers
    ~run:(fun config m ->
      let a = arena ~config (n * 56) in
      let t = m.build a in
      let rng = Prng.create 6 in
      let keys = W.distinct_uniform rng ~n ~space in
      let half = n / 2 in
      Array.iteri (fun i k -> if i < half then t.Intf.insert k (W.value_of k)) keys;
      Arena.reset_stats a;
      Array.iteri (fun i k -> if i >= half then t.Intf.insert k (W.value_of k)) keys;
      us_per_op a (n - half))

let fig5d () =
  let n = sc 100_000 in
  let space = 8 * n in
  let makers () =
    [
      fastfair ();
      fptree ~leaf_bytes:256 ();
      wbtree ~node_bytes:256 ();
      wort ();
      skiplist ();
    ]
  in
  latency_sweep
    ~title:
      "== Figure 5(d): insert time (us/op) vs write latency, non-TSO (ARM dmb; \
       256B wB+/FP nodes) =="
    ~latencies:[ 100; 700; 1000; 1300; 1600 ]
    ~config_of:(fun lat -> { (Config.arm ~read_ns:100 ~write_ns:lat ()) with max_threads = 4 })
    ~makers
    ~run:(fun config m ->
      let a = arena ~config (n * 56) in
      let t = m.build a in
      let rng = Prng.create 7 in
      let keys = W.distinct_uniform rng ~n ~space in
      let half = n / 2 in
      Array.iteri (fun i k -> if i < half then t.Intf.insert k (W.value_of k)) keys;
      Arena.reset_stats a;
      Array.iteri (fun i k -> if i >= half then t.Intf.insert k (W.value_of k)) keys;
      us_per_op a (n - half))

(* ------------------------------------------------------------------ *)
(* Figure 6: TPC-C                                                     *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  print_endline "== Figure 6: TPC-C throughput (simulated Kops/sec), latency 300/300 ==";
  let txns = sc 4000 in
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  let makers = [ fastfair (); fptree (); wbtree (); wort (); skiplist () ] in
  let mixes = [ ("W1", Tpcc.w1); ("W2", Tpcc.w2); ("W3", Tpcc.w3); ("W4", Tpcc.w4) ] in
  let tbl = Table.create ("mix" :: List.map (fun m -> m.label) makers) in
  List.iter
    (fun (mix_name, mix) ->
      let row =
        List.map
          (fun m ->
            let a = arena ~config (txns * 1600) in
            let idx = m.build a in
            let t = Tpcc.load ~arena:a idx Tpcc.default_config in
            Arena.reset_stats a;
            Tpcc.run t mix ~txns;
            kops a txns)
          makers
      in
      Table.add_floats tbl mix_name row)
    mixes;
  Table.print tbl

(* ------------------------------------------------------------------ *)
(* Figure 7: multithreaded scalability (simulated 16-core machine)     *)
(* ------------------------------------------------------------------ *)

type sim_ix = {
  sl : string;
  sbuild : Arena.t -> Intf.ops;
  searchable : bool; (* appears in (a) and (c) *)
}

let fig7_makers () =
  [
    { sl = "fast+fair"; sbuild = (fastfair ~lock:Locks.Sim ()).build; searchable = true };
    { sl = "ff+leaflock"; sbuild = (leaflock ~lock:Locks.Sim ()).build; searchable = true };
    { sl = "fp-tree"; sbuild = (fptree ~lock:Locks.Sim ()).build; searchable = true };
    { sl = "b-link"; sbuild = (blink ~lock:Locks.Sim ()).build; searchable = true };
    { sl = "skiplist"; sbuild = (skiplist ~lock:Locks.Sim ()).build; searchable = true };
  ]

let fig7_run ~workload ~threads ~preload ~total_ops ix =
  let config = { Config.default with Config.write_latency_ns = 300; max_threads = 64 } in
  let a = arena ~config ((preload + total_ops) * 60) in
  let t = ix.sbuild a in
  let rng = Prng.create 11 in
  let keys = W.distinct_uniform rng ~n:(preload + total_ops) ~space:(16 * (preload + total_ops)) in
  (* Preload inside a single simulated thread (Sim locks). *)
  ignore
    (Mcsim.run ~cores:16 ~arena:a
       [| (fun _ -> Array.iteri (fun i k -> if i < preload then t.Intf.insert k (W.value_of k)) keys) |]);
  (* contention_ns ~ the time a std::mutex critical section owns the
     lock's cache line; quantum keeps interleaving reasonably fine. *)
  let per = total_ops / threads in
  let body tid =
    let r = Prng.create (100 + tid) in
    match workload with
    | `Search ->
        for _ = 1 to per do
          ignore (t.Intf.search keys.(Prng.int r preload))
        done
    | `Insert ->
        let base = preload + (tid * per) in
        for i = 0 to per - 1 do
          let k = keys.(base + i) in
          t.Intf.insert k (W.value_of k)
        done
    | `Mixed ->
        (* per thread: groups of 16 searches, 4 inserts, 1 delete *)
        let base = preload + (tid * per) in
        let inserted = ref 0 in
        let g = ref 0 in
        while (16 + 4 + 1) * !g < per do
          for _ = 1 to 16 do
            ignore (t.Intf.search keys.(Prng.int r preload))
          done;
          for _ = 1 to 4 do
            if base + !inserted < preload + total_ops then begin
              let k = keys.(base + !inserted) in
              t.Intf.insert k (W.value_of k);
              incr inserted
            end
          done;
          ignore (t.Intf.delete keys.(Prng.int r preload));
          incr g
        done
  in
  let outcome =
    Mcsim.run ~cores:16 ~quantum_ns:150 ~lock_ns:20 ~contention_ns:100
      ~policy:(sched ()) ~arena:a
      (Array.init threads (fun _ -> body))
  in
  let ops = per * threads in
  if outcome.Mcsim.makespan_ns = 0 then 0.
  else float_of_int ops /. (float_of_int outcome.Mcsim.makespan_ns /. 1e9) /. 1000.

let fig7 () =
  print_endline "== Figure 7: scalability on 16 simulated cores (Kops/sec) ==";
  let preload = sc 30_000 in
  let total_ops = sc 16_000 in
  let threads_list = [ 1; 2; 4; 8; 16; 32 ] in
  List.iter
    (fun (name, workload, filter) ->
      Printf.printf "-- %s --\n" name;
      let makers = List.filter filter (fig7_makers ()) in
      let tbl = Table.create ("threads" :: List.map (fun m -> m.sl) makers) in
      List.iter
        (fun threads ->
          let row =
            List.map (fun ix -> fig7_run ~workload ~threads ~preload ~total_ops ix) makers
          in
          Table.add_floats tbl (string_of_int threads) row)
        threads_list;
      Table.print tbl)
    [
      ("(a) search", `Search, fun ix -> ix.searchable);
      ("(b) insert", `Insert, fun ix -> ix.sl <> "ff+leaflock");
      ("(c) mixed 16:4:1", `Mixed, fun ix -> ix.searchable);
    ]

(* ------------------------------------------------------------------ *)
(* Section 5.2 text: clflush counts                                    *)
(* ------------------------------------------------------------------ *)

let stats_target () =
  print_endline "== clflush statistics (paper Section 5.2/5.4 text) ==";
  let n = sc 50_000 in
  let space = 8 * n in
  let tbl = Table.create [ "index"; "flush/insert"; "fence/insert" ] in
  List.iter
    (fun m ->
      let a = arena (n * 56) in
      let t = m.build a in
      let rng = Prng.create 8 in
      let keys = W.distinct_uniform rng ~n ~space in
      let half = n / 2 in
      Array.iteri (fun i k -> if i < half then t.Intf.insert k (W.value_of k)) keys;
      Arena.reset_stats a;
      Array.iteri (fun i k -> if i >= half then t.Intf.insert k (W.value_of k)) keys;
      let s = Arena.total_stats a in
      let ops = float_of_int (n - half) in
      Table.add_floats tbl m.label
        [ float_of_int s.Stats.flushes /. ops; float_of_int s.Stats.fences /. ops ])
    (insert_makers ());
  Table.print tbl;
  print_endline
    "   paper: FAST+FAIR ~4.2 flushes/insert at 512B nodes (worst case 8);\n\
    \   wB+-tree ~1.7x FAST+FAIR; FP-tree 4.8 vs 4.2"

(* ------------------------------------------------------------------ *)
(* Section 5.7: recoverability                                         *)
(* ------------------------------------------------------------------ *)

let crash_target () =
  print_endline "== Recoverability (Section 5.7): crash-point sweep + recovery cost ==";
  let n = sc 5_000 in
  let a0 = arena (n * 80) in
  let t0 = Tree.create ~node_bytes:256 a0 in
  let rng = Prng.create 9 in
  let keys = W.distinct_uniform rng ~n ~space:(8 * n) in
  Array.iter (fun k -> Tree.insert t0 ~key:k ~value:(W.value_of k)) keys;
  Arena.drain a0;
  (* Crash a batch of inserts and deletes (with splits) at sampled
     store points; count tolerance, and soundness (a well-formed tree
     that still holds every committed key) after recovery. *)
  let batch tc =
    for i = 1 to 20 do
      Tree.insert tc ~key:((16 * n) + i) ~value:(W.value_of ((16 * n) + i))
    done;
    for i = 0 to 9 do
      ignore (Tree.delete tc keys.(i))
    done
  in
  let reopen = Tree.open_existing ~node_bytes:256 in
  let probe = Arena.store_span a0 ~reopen batch in
  (* keys 10.. were never deleted; they must stay readable *)
  let readable tc =
    let ok = ref true in
    Array.iteri
      (fun i key ->
        if i >= 10 && Tree.search tc key <> Some (W.value_of key) then ok := false)
      keys;
    !ok
  in
  let points = Arena.crash_points ~max_points:200 probe in
  let tolerated = ref 0 and recovered = ref 0 in
  List.iter
    (fun k ->
      let tc =
        reopen
          (Arena.crash_image a0 ~reopen batch ~at:k
             (Storelog.Random_eviction (Prng.create k)))
      in
      if readable tc then incr tolerated;
      Tree.recover tc;
      if Ff_fastfair.Invariant.check tc = [] && readable tc then incr recovered)
    points;
  Printf.printf
    "crash points: %d | readable pre-recovery: %d | sound post-recovery: %d\n"
    (List.length points) !tolerated !recovered;
  (* Recovery-cost comparison: FAST+FAIR reattaches instantly; FP-tree
     rebuilds its DRAM inner levels. *)
  let nrec = sc 50_000 in
  let ff_ns =
    let a = arena (nrec * 56) in
    let t = Tree.create a in
    let keys = W.distinct_uniform (Prng.create 10) ~n:nrec ~space:(8 * nrec) in
    Array.iter (fun k -> Tree.insert t ~key:k ~value:(W.value_of k)) keys;
    Arena.power_fail a Storelog.Keep_all;
    let t = Tree.open_existing a in
    Arena.reset_stats a;
    Tree.recover ~lazy_:true t;
    Arena.elapsed_ns a
  in
  let fp_ns =
    let a = arena (nrec * 56) in
    let t = Ff_fptree.Fptree.create a in
    let keys = W.distinct_uniform (Prng.create 10) ~n:nrec ~space:(8 * nrec) in
    Array.iter (fun k -> Ff_fptree.Fptree.insert t ~key:k ~value:(W.value_of k)) keys;
    Arena.power_fail a Storelog.Keep_all;
    let t = Ff_fptree.Fptree.open_existing a in
    Arena.reset_stats a;
    Ff_fptree.Fptree.recover t;
    Arena.elapsed_ns a
  in
  Printf.printf
    "recovery cost at %d keys: FAST+FAIR (lazy) %d ns | FP-tree inner rebuild %d ns\n"
    nrec ff_ns fp_ns

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks (wall-clock)                               *)
(* ------------------------------------------------------------------ *)

let micro () =
  print_endline "== Bechamel wall-clock microbenchmarks (host time, ns/op) ==";
  let open Bechamel in
  let open Toolkit in
  let n = 20_000 in
  let mk_loaded maker =
    let a = arena (n * 60) in
    let t = maker.build a in
    let keys = W.distinct_uniform (Prng.create 12) ~n ~space:(8 * n) in
    W.load_keys t keys;
    (t, keys)
  in
  let search_test maker =
    let t, keys = mk_loaded maker in
    let i = ref 0 in
    Test.make ~name:(maker.label ^ "-search")
      (Staged.stage (fun () ->
           i := (!i + 1) mod n;
           ignore (t.Intf.search keys.(!i))))
  in
  let insert_test maker =
    let t, _ = mk_loaded maker in
    let i = ref (16 * n) in
    Test.make ~name:(maker.label ^ "-insert")
      (Staged.stage (fun () ->
           incr i;
           t.Intf.insert !i (W.value_of !i)))
  in
  let range_test maker =
    let t, _ = mk_loaded maker in
    let i = ref 0 in
    Test.make ~name:(maker.label ^ "-range100")
      (Staged.stage (fun () ->
           i := (!i + 997) mod (7 * n);
           let c = ref 0 in
           t.Intf.range !i (!i + 800) (fun _ _ -> incr c)))
  in
  let tests =
    Test.make_grouped ~name:"ops"
      [
        search_test (fastfair ());
        insert_test (fastfair ());
        range_test (fastfair ());
        search_test (wbtree ());
        search_test (fptree ());
        search_test (wort ());
        search_test (skiplist ());
      ]
  in
  let benchmark () =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg instances tests in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Printf.printf "%-24s %10.1f ns/op\n" name est
      | Some [] | None -> Printf.printf "%-24s (no estimate)\n" name)
    results


(* ------------------------------------------------------------------ *)
(* Ablations: design choices isolated                                  *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline "== Ablations ==";
  let n = sc 50_000 in
  let space = 8 * n in

  (* 1. Store ordering: FAST vs a naive unordered shift, crash states. *)
  print_endline "-- (1) FAST store ordering vs naive shift: crash-state corruption --";
  let count_violations insert_fn =
    let module L = Ff_fastfair.Layout in
    let module Node = Ff_fastfair.Node in
    let l = L.make ~node_bytes:256 in
    let a0 = Arena.create ~words:(1 lsl 14) () in
    let node = Arena.alloc a0 l.L.node_words in
    Node.init a0 l node ~level:0 ~leftmost:0 ~low:0;
    let keys = [ 10; 20; 30; 40; 50; 60; 70 ] in
    List.iter
      (fun k ->
        Node.insert_nonfull a0 l node ~count:(Node.count a0 l node) ~key:k
          ~value:(W.value_of k))
      keys;
    Arena.drain a0;
    let run c = insert_fn c l node in
    let total = Arena.store_span a0 ~reopen:Fun.id run in
    let bad = ref 0 and states = ref 0 in
    for k = 0 to total do
      incr states;
      let c = Arena.crash_image a0 ~reopen:Fun.id run ~at:k Storelog.Keep_all in
      if
        not
          (List.for_all
             (fun key -> Node.search c l node ~mode:Node.Linear key = Some (W.value_of key))
             keys)
      then incr bad
    done;
    (!bad, !states)
  in
  let fast_bad, states =
    count_violations (fun a l n ->
        Ff_fastfair.Node.insert_nonfull a l n
          ~count:(Ff_fastfair.Node.count a l n)
          ~key:25 ~value:(W.value_of 25))
  in
  let naive_bad, _ =
    count_violations (fun a l n ->
        Ff_fastfair.Node.insert_nonfull_unordered a l n ~key:25 ~value:(W.value_of 25))
  in
  Printf.printf "FAST ordering : %d corrupted of %d crash states\n" fast_bad states;
  Printf.printf "naive shift   : %d corrupted of %d crash states\n\n" naive_bad states;

  (* 2. Bulk load vs incremental insertion. *)
  print_endline "-- (2) bulk load vs incremental insertion --";
  let rng = Prng.create 21 in
  let keys = W.distinct_uniform rng ~n ~space in
  let pairs = Array.map (fun k -> (k, W.value_of k)) keys in
  let a1 = arena (n * 56) in
  Arena.reset_stats a1;
  let t1 = Tree.create a1 in
  Array.iter (fun k -> Tree.insert t1 ~key:k ~value:(W.value_of k)) keys;
  let s1 = Arena.total_stats a1 in
  let a2 = arena (n * 56) in
  Arena.reset_stats a2;
  let _t2 = Ff_fastfair.Bulk.load a2 pairs in
  let s2 = Arena.total_stats a2 in
  Printf.printf "incremental: %8d flushes, %7.2f ms simulated\n" s1.Stats.flushes
    (float_of_int (Stats.total_ns s1) /. 1e6);
  Printf.printf "bulk load  : %8d flushes, %7.2f ms simulated\n\n" s2.Stats.flushes
    (float_of_int (Stats.total_ns s2) /. 1e6);

  (* 3. Compaction payoff for range scans after mass deletes. *)
  print_endline "-- (3) compaction after mass deletes: range-scan cost --";
  let a3 = arena (n * 56) in
  let t3 = Tree.create ~node_bytes:256 a3 in
  for k = 1 to n do
    Tree.insert t3 ~key:k ~value:(W.value_of k)
  done;
  for k = 1 to n do
    if k mod 8 <> 0 then ignore (Tree.delete t3 k)
  done;
  let scan () =
    Arena.reset_stats a3;
    let c = ref 0 in
    Tree.range t3 ~lo:1 ~hi:n (fun _ _ -> incr c);
    (float_of_int (Arena.elapsed_ns a3) /. 1e6, !c)
  in
  let before_ms, cnt = scan () in
  let freed = Ff_fastfair.Compact.compact t3 in
  let after_ms, cnt2 = scan () in
  Printf.printf "before compact: %7.2f ms for %d keys\n" before_ms cnt;
  Printf.printf "after  compact: %7.2f ms for %d keys (%d nodes freed)\n\n" after_ms cnt2
    freed;

  (* 4. MLP/prefetch discount: why linear search beats binary. *)
  print_endline "-- (4) sequential-prefetch discount vs linear/binary search (1KB nodes) --";
  List.iter
    (fun mlp ->
      (* small line cache so the tree does not fit and misses dominate *)
      let config =
        { (Config.pm ~read_ns:300 ~write_ns:300 ()) with
          Config.mlp_factor = mlp; cache_lines = 512 }
      in
      let time mode =
        let a = arena ~config (n * 56) in
        let t = fastfair_mode ~node_bytes:1024 ~mode a in
        let rng = Prng.create 22 in
        let ks = W.distinct_uniform rng ~n ~space in
        W.load_keys t ks;
        Arena.reset_stats a;
        Array.iter (fun k -> ignore (t.Intf.search k)) ks;
        us_per_op a n
      in
      Printf.printf "mlp_factor %d: linear %.3f us, binary %.3f us\n" mlp
        (time Ff_fastfair.Node.Linear) (time Ff_fastfair.Node.Binary))
    [ 1; 2; 4; 8 ];
  print_endline ""


(* ------------------------------------------------------------------ *)
(* Extension: YCSB-style skewed workloads                              *)
(* ------------------------------------------------------------------ *)

let ycsb () =
  print_endline "== Extension: YCSB-style Zipfian workloads (us/op, latency 300/300) ==";
  let n = sc 100_000 in
  let ops = sc 50_000 in
  let space = 4 * n in
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  let makers () = [ fastfair (); fptree (); wbtree (); wort (); skiplist () ] in
  let workloads =
    [
      ("A 50r/50u", fun rng t keys ->
          for _ = 1 to ops do
            let k = keys.(Prng.int rng n) in
            if Prng.bool rng then ignore (t.Intf.search k)
            else t.Intf.insert k (W.value_of k)
          done);
      ("B 95r/5u", fun rng t keys ->
          for _ = 1 to ops do
            let k = keys.(Prng.int rng n) in
            if Prng.int rng 100 < 95 then ignore (t.Intf.search k)
            else t.Intf.insert k (W.value_of k)
          done);
      ("C 100r", fun rng t keys ->
          for _ = 1 to ops do
            ignore (t.Intf.search keys.(Prng.int rng n))
          done);
      ("E scans", fun rng t keys ->
          for _ = 1 to ops / 50 do
            let k = keys.(Prng.int rng n) in
            let c = ref 0 in
            t.Intf.range k (k + (space / n * 100)) (fun _ _ -> incr c)
          done);
    ]
  in
  let tbl = Table.create ("workload" :: List.map (fun m -> m.label) (makers ())) in
  List.iter
    (fun (wname, run_w) ->
      let row =
        List.map
          (fun m ->
            let a = arena ~config (n * 56) in
            let t = m.build a in
            let rng = Prng.create 31 in
            let keys = W.distinct_uniform rng ~n ~space in
            W.load_keys t keys;
            (* zipfian access pattern over loaded keys *)
            let z = Ff_util.Zipf.create ~n ~theta:!zipf_theta in
            let zrng = Prng.create 32 in
            let hot = Array.init n (fun _ -> keys.(Ff_util.Zipf.sample z zrng)) in
            Arena.reset_stats a;
            run_w (Prng.create 33) t hot;
            let opcount = if wname = "E scans" then ops / 50 else ops in
            us_per_op a opcount)
          (makers ())
      in
      Table.add_floats tbl wname row)
    workloads;
  Table.print tbl;
  Printf.printf "   (Zipfian theta = %.2f over the loaded keys)\n" !zipf_theta


(* ------------------------------------------------------------------ *)
(* Extension: per-operation latency distributions                      *)
(* ------------------------------------------------------------------ *)

let latencies () =
  print_endline "== Extension: per-op simulated latency distribution (ns), latency 300/300 ==";
  let n = sc 100_000 in
  let probes = sc 20_000 in
  let space = 8 * n in
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  let tbl =
    Table.create
      [ "index"; "search p50"; "search p99"; "search max"; "insert p50"; "insert p99" ]
  in
  List.iter
    (fun m ->
      let a = arena ~config (n * 60) in
      let t = m.build a in
      let rng = Prng.create 41 in
      let keys = W.distinct_uniform rng ~n ~space in
      W.load_keys t keys;
      let h_search = Ff_util.Histogram.create () in
      let h_insert = Ff_util.Histogram.create () in
      let snap () = Arena.elapsed_ns a in
      for i = 0 to probes - 1 do
        let before = snap () in
        ignore (t.Intf.search keys.(i * (n / probes)));
        Ff_util.Histogram.add h_search (snap () - before)
      done;
      for i = 0 to (probes / 4) - 1 do
        let k = space + (2 * i) + 1 in
        let before = snap () in
        t.Intf.insert k (W.value_of k);
        Ff_util.Histogram.add h_insert (snap () - before)
      done;
      Table.add_row tbl
        [
          m.label;
          string_of_int (Ff_util.Histogram.percentile h_search 50.);
          string_of_int (Ff_util.Histogram.percentile h_search 99.);
          string_of_int (Ff_util.Histogram.max_sample h_search);
          string_of_int (Ff_util.Histogram.percentile h_insert 50.);
          string_of_int (Ff_util.Histogram.percentile h_insert 99.);
        ])
    [ fastfair (); fptree (); wbtree (); wort (); skiplist () ];
  Table.print tbl;
  print_endline
    "   (tails: FAIR splits / skiplist tower rebuilds / wB+ logged splits show in p99+)"

(* ------------------------------------------------------------------ *)
(* Sharded serving layer (--shards N,M,... ; target: sharded)          *)
(* ------------------------------------------------------------------ *)

let shard_counts : int list ref = ref []
let base_seed = ref 42

type sharded_row = {
  sh_shards : int;
  sh_group : bool;
  sh_kops : float; (* ops over the slowest shard's simulated time *)
  sh_fences_per_op : float;
  sh_flushes_per_op : float;
  sh_imb_max : int;
  sh_imb_mean : float;
  sh_p50 : int;
  sh_p99 : int;
}

let sharded_run ~shards ~group =
  let n = sc 40_000 in
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  let words = max (1 lsl 16) (n * 64 / shards) in
  let t =
    Shard.create ~pm_config:config ~words ~batch_cap:64 ~group
      ~inner:"fastfair" ~shards ()
  in
  (* One deterministic trace per shard stream, seeded from the base
     seed and the shard id, interleaved round-robin into a single
     submission stream (the scheduler re-partitions by key anyway). *)
  let per = n / shards in
  let mix =
    {
      W.insert_pct = 60;
      search_pct = 30;
      delete_pct = 5;
      range_pct = 5;
      range_len = 16;
      read_latest = false;
      scan_len_max = 0;
    }
  in
  let traces =
    Array.init shards (fun s ->
        W.mixed_trace
          (Prng.create (W.shard_seed ~base:!base_seed ~shard:s))
          ~n:per ~space:(8 * n) mix)
  in
  let ops =
    Array.init (per * shards) (fun i -> traces.(i mod shards).(i / shards))
  in
  ignore (Shard.submit t ops);
  let arenas = Shard.arenas t in
  let wall =
    Array.fold_left
      (fun acc a -> max acc (Arena.elapsed_ns a))
      0 arenas
  in
  let sum f = Array.fold_left (fun acc a -> acc + f (Arena.total_stats a)) 0 arenas in
  let fences = sum (fun s -> s.Stats.fences) in
  let flushes = sum (fun s -> s.Stats.flushes) in
  let imb_max, imb_mean = Shard.imbalance t in
  let lat = Shard.merged_latency t in
  let nops = Array.length ops in
  {
    sh_shards = shards;
    sh_group = group;
    sh_kops =
      (if wall = 0 then 0.
       else float_of_int nops /. (float_of_int wall /. 1e9) /. 1000.);
    sh_fences_per_op = float_of_int fences /. float_of_int nops;
    sh_flushes_per_op = float_of_int flushes /. float_of_int nops;
    sh_imb_max = imb_max;
    sh_imb_mean = imb_mean;
    sh_p50 = Histogram.percentile lat 50.;
    sh_p99 = Histogram.percentile lat 99.;
  }

let sharded_rows () =
  let counts = match !shard_counts with [] -> [ 1; 4; 8 ] | l -> l in
  List.concat_map
    (fun shards ->
      [ sharded_run ~shards ~group:false; sharded_run ~shards ~group:true ])
    counts

(* ------------------------------------------------------------------ *)
(* Scrub cost: what a post-crash scrub pass adds to recovery time      *)
(* ------------------------------------------------------------------ *)

module Scrub = Ff_scrub.Scrub

type scrub_row = {
  sc_index : string;
  sc_keys : int;
  sc_scrub_ns : int;
  sc_ns_per_key : float;
  sc_leaked : int;
  sc_reclaimed : int;
  sc_repaired : int;
  sc_quarantined : int;
}

(* One deterministic scenario per scrubbable index: load, crash an
   insert batch mid-split (so a node leaks), poison two lines, then
   time the full scrub-and-recover pass in simulated ns. *)
let scrub_run_one name =
  let d = Registry.find_exn name in
  if not (Scrub.scrubbable d) then None
  else begin
    let n = sc 20_000 in
    let config = Descriptor.default_config in
    let a = arena ~config:(Config.pm ~read_ns:300 ~write_ns:300 ()) (n * 64) in
    let t = d.Descriptor.build config a in
    let rng = Prng.create 71 in
    let keys = W.distinct_uniform rng ~n ~space:(8 * n) in
    W.load_keys t keys;
    t.Intf.close ();
    Arena.drain a;
    let t = d.Descriptor.open_existing config a in
    ignore
      (Arena.crash_after a 40 (fun () ->
           for i = 1 to 64 do
             let k = (8 * n) + i in
             t.Intf.insert k (W.value_of k)
           done));
    Arena.set_fault_plan a
      (Some { Arena.fault_seed = 71; poison_lines = 2; flip_words = 0; stuck_words = 0 });
    Arena.power_fail a (Storelog.Random_eviction (Prng.create 40));
    let r =
      Scrub.run ~config d a ~recover:(fun () ->
          let t = d.Descriptor.open_existing config a in
          t.Intf.recover ())
    in
    Some
      {
        sc_index = name;
        sc_keys = n;
        sc_scrub_ns = r.Scrub.duration_ns;
        sc_ns_per_key = float_of_int r.Scrub.duration_ns /. float_of_int n;
        sc_leaked = r.Scrub.leaked_words;
        sc_reclaimed = r.Scrub.reclaimed_words;
        sc_repaired = List.length r.Scrub.repaired_lines;
        sc_quarantined = List.length r.Scrub.quarantined_lines;
      }
  end

let scrub_target () =
  print_endline
    "== scrub cost: post-crash leak scan, media repair and reclamation ==";
  print_endline
    "   (crash mid-split over a preloaded tree, 2 poisoned lines, seed 71)";
  Printf.printf "%18s %9s %11s %9s %9s %10s %9s %12s\n" "index" "keys"
    "scrub(us)" "ns/key" "leaked" "reclaimed" "repaired" "quarantined";
  List.iter
    (fun r ->
      Printf.printf "%18s %9d %11.1f %9.2f %9d %10d %9d %12d\n" r.sc_index
        r.sc_keys
        (float_of_int r.sc_scrub_ns /. 1000.)
        r.sc_ns_per_key r.sc_leaked r.sc_reclaimed r.sc_repaired r.sc_quarantined)
    (List.filter_map scrub_run_one
       [ "fastfair"; "fastfair-logged"; "fastfair-leaflock"; "sharded-fastfair" ])

let sharded_target () =
  print_endline "== sharded serving layer: scaling and group-flush amortization ==";
  Printf.printf "   (mixed 60:30:5:5 workload, hash partition, batch_cap=64, seed %d)\n"
    !base_seed;
  Printf.printf "%8s %6s %10s %11s %12s %14s %9s %9s\n" "shards" "group"
    "kops" "fences/op" "flushes/op" "imbalance" "p50(ns)" "p99(ns)";
  List.iter
    (fun r ->
      Printf.printf "%8d %6s %10.1f %11.3f %12.3f %8d/%5.0f %9d %9d\n"
        r.sh_shards
        (if r.sh_group then "on" else "off")
        r.sh_kops r.sh_fences_per_op r.sh_flushes_per_op r.sh_imb_max
        r.sh_imb_mean r.sh_p50 r.sh_p99)
    (sharded_rows ())

(* ------------------------------------------------------------------ *)
(* Soak: zipfian mix + crash + fault storm + scrub, under SLO watch    *)
(* ------------------------------------------------------------------ *)

module Trace = Ff_trace.Trace
module Slo = Ff_obs.Slo
module Profile = Ff_obs.Profile
module Snapshot = Ff_obs.Snapshot
module Cluster = Ff_cluster.Cluster

let slo_flag = ref false
let slo_p99_ns = ref 20_000_000
let slo_out = ref ""
let soak_trace_file = ref ""
let slo_failed = ref false
let soak_retry_limit = ref 3
let soak_backoff_ns = ref 1_000

(* End-to-end latency includes queueing behind up to batch_cap ops, so
   the default bound is generous; --slo-p99-ns 1 injects a breach. *)
let soak_rules () =
  [
    Slo.Latency
      {
        rule = "insert-p99";
        metric = "shard.latency_ns.insert";
        percentile = 99.;
        bound_ns = !slo_p99_ns;
      };
    Slo.Latency
      {
        rule = "search-p99";
        metric = "shard.latency_ns.search";
        percentile = 99.;
        bound_ns = !slo_p99_ns;
      };
    Slo.Burn_rate
      {
        rule = "degraded-budget";
        events = "shard.degraded";
        ops = "shard.ops";
        max_per_1k = 5.;
      };
    (* Replication rules for the chaos phase below.  The multi-window
       burn rate tolerates the deliberate partition spike (the short
       window alone exceeds any sane budget while shard 0 is solo) and
       fires only if unavailability also persists across the long
       horizon — the SRE page-on-sustained-burn shape. *)
    Slo.Burn_rate_multi
      {
        rule = "repl-unavail-burn";
        events = "cluster.unavail";
        ops = "cluster.ops";
        max_per_1k = 250.;
        short_ns = 200_000;
        long_ns = 2_000_000;
      };
    Slo.Latency
      {
        rule = "failover-blackout";
        metric = "cluster.blackout_ns";
        percentile = 99.;
        bound_ns = 5_000_000;
      };
  ]

(* The nightly-style scenario: a zipfian mixed load on a 4-shard
   ensemble, one power failure with scrubbed recovery, one media-fault
   storm that degrades a shard until the next scrub re-admits it — all
   on simulated time, so the whole run (and its Perfetto trace) is
   reproducible from --seed. *)
let soak_scenario () =
  let shards = 4 in
  let n = sc 40_000 in
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  let words = max (1 lsl 16) (n * 64 / shards) in
  (* One tracer across all shard arenas; its clock is the slowest
     shard's accumulated simulated time, monotonic because per-arena
     time only grows. *)
  let clock_ref = ref (fun () -> 0) in
  let tr = Trace.create ~capacity:(1 lsl 16) ~clock:(fun () -> !clock_ref ()) () in
  let keys = W.zipfian (Prng.create !base_seed) ~n ~space:(8 * n) ~theta:!zipf_theta in
  let t =
    (* A range partition (not the default hash) so the mid-soak split
       below has a contiguous span to cut; bounds at the workload's
       own quantiles, or the zipfian skew would pile every op onto
       the lowest shard and serialize the batch scheduler. *)
    let bounds =
      let sorted = Array.copy keys in
      Array.sort compare sorted;
      let b = Array.init (shards - 1) (fun i -> sorted.((i + 1) * n / shards)) in
      for i = 1 to Array.length b - 1 do
        if b.(i) <= b.(i - 1) then b.(i) <- b.(i - 1) + 1
      done;
      b
    in
    Shard.create ~pm_config:config ~words ~batch_cap:64 ~group:true ~tracer:tr
      ~partition:(Shard.Partition.range ~bounds)
      ~retry_limit:!soak_retry_limit ~backoff_ns:!soak_backoff_ns
      ~inner:"fastfair" ~shards ()
  in
  let arenas = Shard.arenas t in
  clock_ref :=
    (fun () ->
      Array.fold_left
        (fun acc a -> max acc (Arena.elapsed_ns a))
        0 arenas);
  Array.iter (fun a -> Trace.attach_arena tr a) arenas;
  let oprng = Prng.create (W.shard_seed ~base:!base_seed ~shard:1) in
  let ops =
    Array.map
      (fun k ->
        let r = Prng.int oprng 100 in
        if r < 60 then W.Insert k
        else if r < 90 then W.Search k
        else if r < 95 then W.Delete k
        else W.Range (k, 8))
      keys
  in
  let mon = Slo.Monitor.create ~window_ns:200_000 ~tracer:tr (soak_rules ()) in
  let chunk = max 1 (Array.length ops / 32) in
  let run_range lo hi =
    let len = hi - lo in
    let off = ref 0 in
    while !off < len do
      let c = min chunk (len - !off) in
      ignore (Shard.submit t (Array.sub ops (lo + !off) c));
      let now = Trace.now tr in
      Slo.Monitor.tick mon ~now;
      off := !off + c
    done
  in
  let total = Array.length ops in
  (* Phase 1: steady state. *)
  run_range 0 (total / 2);
  (* Phase 1.5: elastic resharding under watch — the zipfian load
     piles onto the low end of the range partition, so split the
     hottest shard at its median key while the SLO monitor keeps
     scoring.  The new shard joins the tracer and the soak's own
     power failure below then exercises the post-split topology. *)
  let hot =
    let occ = Shard.occupancy t in
    let best = ref 0 in
    Array.iteri (fun i c -> if c > occ.(!best) then best := i) occ;
    !best
  in
  let pivot =
    let ops_h = Shard.instance_ops t hot in
    let count = ref 0 in
    ops_h.Intf.range 1 (8 * n) (fun _ _ -> incr count);
    let seen = ref 0 and p = ref 0 in
    (try
       ops_h.Intf.range 1 (8 * n) (fun k _ ->
           incr seen;
           if !seen >= !count / 2 then begin
             p := k;
             raise Exit
           end)
     with Exit -> ());
    !p
  in
  let dst = Arena.create ~config ~words () in
  let rb = Rebalance.split t ~shard:hot ~pivot ~dst in
  Trace.attach_arena tr dst;
  clock_ref :=
    (fun () ->
      Array.fold_left
        (fun acc a -> max acc (Arena.elapsed_ns a))
        0 (Shard.arenas t));
  Printf.printf
    "  [mid-soak split: shard %d at pivot %d -> %d shards, %d keys copied, \
     cutover %d ns]\n%!"
    hot pivot (Shard.shards t) rb.Rebalance.r_moved_keys
    rb.Rebalance.r_cutover_ns;
  (* Phase 2: one power failure, scrubbed recovery. *)
  Shard.power_fail t (Storelog.Random_eviction (Prng.create !base_seed));
  Shard.recover t;
  (* Phase 3: fault storm — poison the last shard's leftmost leaf
     header (a line scrub can repair it) and touch a key that
     descends into it, so that shard deterministically degrades until
     the scrub re-admits it.  The last shard owns the cold high span
     of the range partition; poisoning shard 0 would put the fault on
     the zipfian hot keys themselves and the retry storm would swamp
     the run. *)
  let victim = Shard.shards t - 1 in
  let av = Shard.instance_arena t victim in
  let leftmost_leaf a =
    let module L = Ff_fastfair.Layout in
    let rec go node =
      if Arena.peek a (node + L.off_level) = 0 then node
      else go (Arena.peek a (node + L.off_leftmost))
    in
    go (Arena.root_get a 0)
  in
  Arena.poison_line av (leftmost_leaf av / Arena.words_per_line);
  (try
     for k = 1 to 8 * n do
       if Shard.shard_of_key t k = victim then begin
         ignore (Shard.search t k);
         raise Exit
       end
     done
   with
  | Exit -> ()
  | Shard.Degraded _ -> ());
  run_range (total / 2) (3 * total / 4);
  (* Phase 3.5: replication chaos — a small cluster rides the soak's
     tracer, so its unavailability and blackout land in the same
     metrics registry the SLO monitor scores (the repl-unavail-burn
     and failover-blackout rules above).  The sequence is the failover
     demo's: partition the hot shard's replica pair, heal, kill the
     primary, promote, restart.  The cluster runs on the fabric clock,
     so its elapsed ns is folded into the tracer clock to keep the
     monitor's windows moving. *)
  let soak_clock = !clock_ref in
  let cluster_ns = ref 0 in
  clock_ref := (fun () -> soak_clock () + !cluster_ns);
  let cc =
    {
      Cluster.default with
      Cluster.nodes = 3;
      shards = 2;
      words = 1 lsl 14;
      seed = !base_seed;
    }
  in
  let c = Cluster.create ~tracer:tr cc in
  let cops = max 120 (sc 2_000) in
  let crng = Prng.create (W.shard_seed ~base:!base_seed ~shard:13) in
  let victim_node = ref (-1) in
  for j = 1 to cops do
    if j = cops / 3 then
      Cluster.partition c ~a:(Cluster.primary_of c ~shard:0)
        ~b:(Cluster.backup_of c ~shard:0);
    if j = cops / 2 then begin
      Cluster.heal c;
      let p = Cluster.primary_of c ~shard:0 in
      victim_node := p;
      Cluster.kill_node c p;
      for s = 0 to cc.Cluster.shards - 1 do
        if Cluster.primary_of c ~shard:s = p then
          ignore (Cluster.failover c ~shard:s)
      done
    end;
    (* Restart the victim well before the end: the promoted primaries
       run solo (hence read-only) until their backup resyncs, and the
       burn-rate budget above assumes that window is bounded. *)
    if j = 2 * cops / 3 && !victim_node >= 0 then begin
      Cluster.restart_node c !victim_node;
      victim_node := -1
    end;
    let k = 1 + Prng.int crng 64 in
    (match Prng.int crng 4 with
    | 0 -> ignore (Cluster.get c k)
    | _ -> ignore (Cluster.put c k j));
    cluster_ns := max !cluster_ns (Cluster.now_ns c);
    if j land 15 = 0 then Slo.Monitor.tick mon ~now:(Trace.now tr)
  done;
  if !victim_node >= 0 then Cluster.restart_node c !victim_node;
  for _ = 1 to 3 do
    Cluster.tick c
  done;
  cluster_ns := max !cluster_ns (Cluster.now_ns c);
  let ccs = Cluster.stats c in
  Printf.printf
    "  [replication chaos: %d acks, %d refused, %d failover(s), %d resync(s), \
     blackout %d ns]\n%!"
    ccs.Cluster.s_acks
    (ccs.Cluster.s_read_only + ccs.Cluster.s_unavailable)
    ccs.Cluster.s_failovers ccs.Cluster.s_resyncs ccs.Cluster.s_last_blackout_ns;
  Cluster.close c;
  (* Phase 4: scrub repairs the line and the shard is re-admitted;
     with the heat subsided, the elastic story closes by merging the
     two coldest neighbours back (the split scaled out, the merge
     scales back in), then a tail of clean traffic follows. *)
  Shard.power_fail t Ff_pmem.Storelog.Keep_all;
  Shard.recover t;
  let cold_left =
    let occ = Shard.occupancy t in
    let best = ref 0 in
    for i = 1 to Array.length occ - 2 do
      if occ.(i) + occ.(i + 1) < occ.(!best) + occ.(!best + 1) then best := i
    done;
    !best
  in
  let rbm = Rebalance.merge t ~left:cold_left in
  Printf.printf
    "  [mid-soak merge: shards %d+%d -> %d shards, %d keys copied back]\n%!"
    cold_left (cold_left + 1) (Shard.shards t) rbm.Rebalance.r_moved_keys;
  run_range (3 * total / 4) total;
  let now = Trace.now tr in
  Slo.Monitor.check mon ~now;
  let report = Slo.Monitor.report mon ~now in
  let profile = Profile.of_trace ~ops:total tr in
  let snap =
    (* The chaos cluster's fabric time was folded into the tracer
       clock to keep the SLO windows moving, but the headline kops
       measures the shard soak: charge only the shard arenas' time. *)
    Snapshot.make ~label:"soak" ~scale:!scale ~seed:!base_seed ~ops:total
      ~elapsed_ns:(now - !cluster_ns)
      ~latency:(Shard.merged_latency t)
      ~slo:report ~profile ()
  in
  (t, tr, snap, report)

let soak_target () =
  print_endline
    "== soak: zipfian mix + crash + fault storm + scrub + elastic \
     split/merge on 4 shards ==";
  let t, tr, snap, report = soak_scenario () in
  Snapshot.pp Format.std_formatter snap;
  Format.printf "shard health: %s@."
    (String.concat " "
       (Array.to_list
          (Array.map (fun h -> if h then "ok" else "degraded") (Shard.healthy t))));
  if !soak_trace_file <> "" then begin
    Ff_trace.Perfetto.write_file tr !soak_trace_file;
    Printf.printf "[perfetto trace -> %s: %d events]\n%!" !soak_trace_file
      (Trace.event_count tr)
  end;
  if !slo_out <> "" then begin
    let oc = open_out !slo_out in
    output_string oc (Ff_trace.Json.to_string (Slo.report_to_json report));
    output_char oc '\n';
    close_out oc;
    Printf.printf "[slo report -> %s]\n%!" !slo_out
  end;
  if !slo_flag && not (Slo.ok report) then slo_failed := true

(* ------------------------------------------------------------------ *)
(* Rebalance: copy throughput, cutover pause, foreground p99           *)
(* ------------------------------------------------------------------ *)

type rb_row = {
  rb_kind : string;
  rb_moved_keys : int;
  rb_moved_bytes : int;
  rb_cutover_ns : int;
  rb_copy_mb_s : float;
  rb_p99_before : int;
  rb_p99_during : int;
  rb_p99_after : int;
}

let p99_of = function
  | [] -> 0
  | l ->
      let a = Array.of_list (List.sort compare l) in
      a.(min (Array.length a - 1) (Array.length a * 99 / 100))

(* One rebalance under a foreground thread on the multicore simulator.
   Foreground latency is the simulated-clock delta around each op,
   bucketed by protocol phase (the rebalancer flips the bucket as it
   starts and finishes), so the three p99s isolate the background
   copy's interference and the cutover pause from steady state. *)
let rb_row kind =
  let n = sc 4_000 in
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  let words = max (1 lsl 20) (n * 96) in
  let prefill = Array.init n (fun i -> (2 * i) + 1) in
  let t, sim_arena, dst, run_rebalance =
    match kind with
    | "split" | "merge" ->
        let a = arena ~config words in
        let bounds = if kind = "merge" then [| n |] else [||] in
        let t =
          Shard.create_composite ~inner:"fastfair"
            ~partition:(Shard.Partition.range ~bounds)
            a
        in
        ( t,
          a,
          None,
          fun () ->
            if kind = "split" then Rebalance.split t ~shard:0 ~pivot:n
            else Rebalance.merge t ~left:0 )
    | "migrate" ->
        let t =
          Shard.create ~pm_config:config ~words ~group:false
            ~inner:"fastfair" ~shards:1 ()
        in
        let src = (Shard.arenas t).(0) in
        let dst = arena ~config words in
        (t, src, Some dst, fun () -> Rebalance.migrate t ~shard:0 ~dst)
    | s -> invalid_arg ("rb_row: unknown kind " ^ s)
  in
  Array.iter (fun k -> Shard.insert t ~key:k ~value:(W.value_of k)) prefill;
  (* Summing the arenas' consumed ns gives a monotonic clock that
     keeps ticking after a migrate cutover moves the writer onto the
     destination arena (a max would freeze at the source's total). *)
  let clock () =
    let ns a = Arena.elapsed_ns a in
    match dst with None -> ns sim_arena | Some d -> ns sim_arena + ns d
  in
  let phase = ref `Before in
  let before = ref [] and during = ref [] and after = ref [] in
  let before_ops = ref 0 and after_ops = ref 0 in
  let report = ref None in
  let writer _ =
    let rng = Prng.create (W.shard_seed ~base:!base_seed ~shard:11) in
    (* run until the post-rebalance bucket has enough samples for a
       stable p99 *)
    let quota = 256 in
    let i = ref 0 in
    while !after_ops < quota do
      incr i;
      let k = 1 + Prng.int rng (2 * n) in
      let ph = !phase in
      let t0 = clock () in
      if !i land 3 = 0 then Shard.insert t ~key:k ~value:(W.value_of k)
      else ignore (Shard.search t k);
      let dt = clock () - t0 in
      match ph with
      | `Before ->
          before := dt :: !before;
          incr before_ops
      | `During -> during := dt :: !during
      | `After ->
          after := dt :: !after;
          incr after_ops
    done
  in
  let rebalancer _ =
    (* let steady state accumulate first; cpu_work passes through the
       scheduler's yield hook, so the writer keeps running *)
    while !before_ops < 256 do
      Arena.cpu_work sim_arena 1_000
    done;
    phase := `During;
    report := Some (run_rebalance ());
    phase := `After
  in
  ignore
    (Mcsim.run ~cores:1 ~quantum_ns:200 ~arena:sim_arena
       [| writer; rebalancer |]);
  let r = Option.get !report in
  let moved_bytes =
    if r.Rebalance.r_moved_words > 0 then 8 * r.Rebalance.r_moved_words
    else 16 * r.Rebalance.r_moved_keys
  in
  {
    rb_kind = kind;
    rb_moved_keys = r.Rebalance.r_moved_keys;
    rb_moved_bytes = moved_bytes;
    rb_cutover_ns = r.Rebalance.r_cutover_ns;
    rb_copy_mb_s =
      (if r.Rebalance.r_copy_ns = 0 then 0.
       else float_of_int moved_bytes *. 1e3 /. float_of_int r.Rebalance.r_copy_ns);
    rb_p99_before = p99_of !before;
    rb_p99_during = p99_of !during;
    rb_p99_after = p99_of !after;
  }

let rebalance_target () =
  print_endline
    "== rebalance: live split / merge / migrate under foreground load ==";
  Printf.printf "%-8s %10s %10s %11s %12s %15s %15s %14s\n" "kind" "moved_keys"
    "moved_kb" "copy_MB_s" "cutover_ns" "p99_before_ns" "p99_during_ns"
    "p99_after_ns";
  List.iter
    (fun r ->
      Printf.printf "%-8s %10d %10d %11.2f %12d %15d %15d %14d\n" r.rb_kind
        r.rb_moved_keys (r.rb_moved_bytes / 1024) r.rb_copy_mb_s r.rb_cutover_ns
        r.rb_p99_before r.rb_p99_during r.rb_p99_after)
    (List.map rb_row [ "split"; "merge"; "migrate" ]);
  print_endline
    "   (simulated ns; p99 over foreground point ops before / during / after \
     the rebalance)"

(* ------------------------------------------------------------------ *)
(* Transactions: logged vs shadow commit-path cost, TPC-C aborts       *)
(* ------------------------------------------------------------------ *)

module Tx = Ff_tx.Tx

type tx_row = {
  tx_path : string;
  tx_fences_per_txn : float;
  tx_fences_per_op : float;
  tx_flushes_per_op : float;
  tx_us_per_txn : float;
  tx_site_fences : (string * int) list; (* tx_* profile sites only *)
}

(* Same multi-key update workload through both commit paths on the same
   tree shape, with a tracer attached so every fence is attributed to
   the tx_log / tx_commit / tx_replay site that issued it. *)
let tx_row path =
  let txns = sc 2_000 in
  let ops_per_txn = 4 in
  let n = sc 20_000 in
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  let a = arena ~config (max (n * 64) (1 lsl 17)) in
  let t = (fastfair ()).build a in
  W.load_keys t (W.sequential ~n);
  let tr = Ff_trace.Trace.for_arena ~capacity:(1 lsl 16) a in
  let mgr = Tx.create ~path a t in
  Tx.set_tracer mgr tr;
  Arena.reset_stats a;
  let rng = Prng.create (W.shard_seed ~base:!base_seed ~shard:7) in
  let vc = ref n in
  for _ = 1 to txns do
    ignore
      (Tx.run mgr (fun tx ->
           for _ = 1 to ops_per_txn do
             incr vc;
             Tx.put tx (1 + Prng.int rng n) (W.value_of !vc)
           done))
  done;
  Arena.set_event_sink a None;
  let s = Arena.total_stats a in
  let ops = txns * ops_per_txn in
  let profile = Profile.of_trace ~ops tr in
  let site_fences =
    List.filter_map
      (fun r ->
        let site = r.Profile.site in
        if String.length site >= 3 && String.sub site 0 3 = "tx_" then
          Some (site, r.Profile.fences)
        else None)
      profile.Profile.rows
  in
  {
    tx_path = (match path with Tx.Logged -> "logged" | Tx.Shadow -> "shadow");
    tx_fences_per_txn = float_of_int s.Stats.fences /. float_of_int txns;
    tx_fences_per_op = float_of_int s.Stats.fences /. float_of_int ops;
    tx_flushes_per_op = float_of_int s.Stats.flushes /. float_of_int ops;
    tx_us_per_txn =
      float_of_int (Stats.total_ns s) /. float_of_int txns /. 1000.;
    tx_site_fences = site_fences;
  }

(* TPC-C under real transactions: W1 mix, both paths; the abort count
   must be nonzero (invalid-item New-Orders roll back by spec).  The
   simulated time and write-backs per transaction are where the commit
   path's cost shows: fences are cheap, serialized flushes are not. *)
type tx_tpcc = {
  tp_commits : int;
  tp_aborts : int;
  tp_retries : int;
  tp_us_per_txn : float;
  tp_flushes_per_txn : float;
}

let tx_tpcc_stats path =
  let txns = sc 2_000 in
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  (* The TPC-C population is near-constant in txns; keep a floor so
     small --scale runs don't exhaust the arena. *)
  let a = arena ~config (max (txns * 1600) 400_000) in
  let idx = (fastfair ()).build a in
  let t = Tpcc.load ~path ~arena:a idx Tpcc.default_config in
  Arena.reset_stats a;
  Tpcc.run t Tpcc.w1 ~txns;
  let s = Arena.total_stats a in
  let per_txn x = float_of_int x /. float_of_int txns in
  {
    tp_commits = Tpcc.commits t;
    tp_aborts = Tpcc.aborts t;
    tp_retries = Tpcc.retries t;
    tp_us_per_txn = per_txn (Stats.total_ns s) /. 1000.;
    tp_flushes_per_txn = per_txn s.Stats.flushes;
  }

let tx_target () =
  print_endline
    "== tx: commit-path cost (4-op update txns, fast+fair), latency 300/300 ==";
  let rows = [ tx_row Tx.Logged; tx_row Tx.Shadow ] in
  let tbl =
    Table.create [ "path"; "fences/txn"; "fences/op"; "flushes/op"; "us/txn" ]
  in
  List.iter
    (fun r ->
      Table.add_floats tbl r.tx_path
        [ r.tx_fences_per_txn; r.tx_fences_per_op; r.tx_flushes_per_op; r.tx_us_per_txn ])
    rows;
  Table.print tbl;
  List.iter
    (fun r ->
      Printf.printf "  %-6s site fences: %s\n" r.tx_path
        (String.concat " "
           (List.map (fun (s, f) -> Printf.sprintf "%s=%d" s f) r.tx_site_fences)))
    rows;
  List.iter
    (fun path ->
      let r = tx_tpcc_stats path in
      Printf.printf
        "  tpcc[%s]: commits=%d aborts=%d retries=%d us/txn=%.2f flushes/txn=%.2f\n"
        (match path with Tx.Logged -> "logged" | Tx.Shadow -> "shadow")
        r.tp_commits r.tp_aborts r.tp_retries r.tp_us_per_txn
        r.tp_flushes_per_txn)
    [ Tx.Logged; Tx.Shadow ]

(* ------------------------------------------------------------------ *)
(* Snapshots: MVCC wrapper overhead, publish cost, backup throughput   *)
(* ------------------------------------------------------------------ *)

module Snap = Ff_snapshot.Snapshot

type snap_row = {
  sn_phase : string;
  sn_ops : int;
  sn_kops : float;
  sn_fences_per_op : float;
  sn_flushes_per_op : float;
}

let snap_mk_row phase a ops =
  let s = Arena.total_stats a in
  let fops = float_of_int ops in
  {
    sn_phase = phase;
    sn_ops = ops;
    sn_kops = kops a ops;
    sn_fences_per_op = float_of_int s.Stats.fences /. fops;
    sn_flushes_per_op = float_of_int s.Stats.flushes /. fops;
  }

(* Writer cost with and without the version store in the loop (a live
   pin forces every overwrite to preserve its superseded value), point
   reads live vs as-of a pinned epoch, the price of publishing an
   epoch, and online-backup streaming rate. *)
let snap_rows () =
  let n = sc 20_000 in
  let ops = sc 10_000 in
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  let fresh_wrapped () =
    let a = arena ~config (max (n * 96) (1 lsl 18)) in
    let st = Snap.create a ((fastfair ()).build a) in
    let t = Snap.ops_of st "snap-fastfair" in
    W.load_keys t (W.sequential ~n);
    (a, st, t)
  in
  let overwrite t rng =
    (* fresh values disjoint from the loaded ones: uniqueness contract *)
    let vc = ref 0 in
    for _ = 1 to ops do
      incr vc;
      t.Intf.insert (1 + Prng.int rng n) (W.value_of (n + (ops * 2) + !vc))
    done
  in
  let plain =
    let a = arena ~config (max (n * 64) (1 lsl 17)) in
    let t = (fastfair ()).build a in
    W.load_keys t (W.sequential ~n);
    Arena.reset_stats a;
    overwrite t (Prng.create !base_seed);
    snap_mk_row "writer-plain" a ops
  in
  let wrapped =
    let a, st, t = fresh_wrapped () in
    let pin = Snap.take st in
    Arena.reset_stats a;
    overwrite t (Prng.create !base_seed);
    Snap.release pin;
    snap_mk_row "writer-pinned" a ops
  in
  let reads =
    let a, st, t = fresh_wrapped () in
    let pin = Snap.take st in
    overwrite t (Prng.create !base_seed);
    let e = Snap.epoch pin in
    let rng = Prng.create (W.shard_seed ~base:!base_seed ~shard:3) in
    Arena.reset_stats a;
    for _ = 1 to ops do
      ignore (Snap.read_at st e (1 + Prng.int rng n))
    done;
    snap_mk_row "read-pinned" a ops
  in
  let publish =
    let a, st, t = fresh_wrapped () in
    let rng = Prng.create !base_seed in
    let pins = 64 in
    Arena.reset_stats a;
    for _ = 1 to pins do
      (* one write between pins so every publish advances the epoch *)
      t.Intf.insert (1 + Prng.int rng n) (W.value_of (n + (ops * 4) + Prng.int rng 1_000_000));
      ignore (Snap.snapshot_begin st 0)
    done;
    snap_mk_row "publish" a pins
  in
  let backup =
    let a, st, _t = fresh_wrapped () in
    let dest_arena = arena ~config (max (n * 64) (1 lsl 17)) in
    let dest = (fastfair ()).build dest_arena in
    let pin = Snap.take st in
    Arena.reset_stats a;
    Arena.reset_stats dest_arena;
    let total =
      Snap.backup st ~epoch:(Snap.epoch pin) ~dest ~chunk:512 ()
    in
    let s = Arena.total_stats a and d = Arena.total_stats dest_arena in
    let ns = Stats.total_ns s + Stats.total_ns d in
    let fpairs = float_of_int total in
    {
      sn_phase = "backup";
      sn_ops = total;
      sn_kops =
        (if ns = 0 then 0.
         else fpairs /. (float_of_int ns /. 1e9) /. 1000.);
      sn_fences_per_op = float_of_int (s.Stats.fences + d.Stats.fences) /. fpairs;
      sn_flushes_per_op =
        float_of_int (s.Stats.flushes + d.Stats.flushes) /. fpairs;
    }
  in
  [ plain; wrapped; reads; publish; backup ]

let snapshot_target () =
  print_endline
    "== snapshot: MVCC wrapper overhead over fast+fair, latency 300/300 ==";
  let rows = snap_rows () in
  let tbl = Table.create [ "phase"; "ops"; "kops"; "fences/op"; "flushes/op" ] in
  List.iter
    (fun r ->
      Table.add_floats tbl r.sn_phase
        [ float_of_int r.sn_ops; r.sn_kops; r.sn_fences_per_op; r.sn_flushes_per_op ])
    rows;
  Table.print tbl

(* ------------------------------------------------------------------ *)
(* YCSB mix presets (--mix ycsb-a..e)                                  *)
(* ------------------------------------------------------------------ *)

let mix_names_str = String.concat "|" W.mix_names

let bad_mix spec =
  raise
    (Arg.Bad
       (Printf.sprintf "--mix: unknown preset '%s' (valid: %s)" spec
          mix_names_str))

let ycsb_mix_target spec =
  let mix =
    match W.ycsb_mix spec with Some m -> m | None -> bad_mix spec
  in
  Printf.printf
    "== YCSB mix %s: %d%% update / %d%% read / %d%% scan, latency 300/300 ==\n"
    spec mix.W.insert_pct mix.W.search_pct mix.W.range_pct;
  let n = sc 50_000 in
  let opsn = sc 100_000 in
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  let tbl = Table.create [ "index"; "kops"; "fences/op"; "flushes/op" ] in
  List.iter
    (fun m ->
      let a = arena ~config ((n + opsn) * 60) in
      let t = m.build a in
      let rng = Prng.create !base_seed in
      let keys = W.distinct_uniform rng ~n ~space:(2 * n) in
      W.load_keys t keys;
      Arena.reset_stats a;
      let trace = W.mixed_trace rng ~n:opsn ~space:(2 * n) mix in
      ignore (W.run_trace t trace);
      let s = Arena.total_stats a in
      let fops = float_of_int opsn in
      Table.add_floats tbl m.label
        [
          kops a opsn;
          float_of_int s.Stats.fences /. fops;
          float_of_int s.Stats.flushes /. fops;
        ])
    (search_makers ());
  Table.print tbl

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let targets =
  [
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("fig5c", fig5c);
    ("fig5d", fig5d);
    ("fig6", fig6);
    ("fig7", fig7);
    ("stats", stats_target);
    ("crash", crash_target);
    ("ablation", ablation);
    ("ycsb", ycsb);
    ("latencies", latencies);
    ("micro", micro);
    ("sharded", sharded_target);
    ("scrub", scrub_target);
    ("soak", soak_target);
    ("rebalance", rebalance_target);
    ("tx", tx_target);
    ("snapshot", snapshot_target);
  ]

let () =
  let selected = ref [] in
  let mix_spec = ref "" in
  let spec =
    [
      ( "--scale",
        Arg.Float (fun s -> scale := s),
        "S  scale workload sizes by S (default 1.0)" );
      ( "--mix",
        Arg.String
          (fun s ->
            if W.ycsb_mix s = None then bad_mix s;
            mix_spec := s),
        Printf.sprintf
          "M  run a YCSB mix preset (%s) over the registered indexes"
          mix_names_str );
      ( "--shards",
        Arg.String
          (fun s ->
            shard_counts :=
              List.map
                (fun c ->
                  match int_of_string_opt (String.trim c) with
                  | Some n when n >= 1 -> n
                  | _ -> raise (Arg.Bad ("--shards: bad count " ^ c)))
                (String.split_on_char ',' s)),
        "N,M,...  shard counts for the sharded serving-layer report (default 1,4,8)"
      );
      ( "--seed",
        Arg.Set_int base_seed,
        "S  base PRNG seed; shard s uses Workload.shard_seed ~base:S ~shard:s (default 42)"
      );
      ( "--sched-policy",
        Arg.String
          (fun p ->
            (* Validate eagerly so a typo fails before minutes of warmup. *)
            (try ignore (Mcsim.policy_of_spec ~seed:0 p)
             with Invalid_argument m -> raise (Arg.Bad m));
            sched_policy := p),
        "P  Mcsim scheduling policy for concurrent runs: fifo|random|pct (default fifo)"
      );
      ( "--sched-seed",
        Arg.Set_int sched_seed,
        "S  seed for --sched-policy random/pct (default 0)" );
      ( "--zipf",
        Arg.Float
          (fun t ->
            if t <= 0. then
              raise (Arg.Bad (Printf.sprintf "--zipf: theta %g must be > 0" t));
            zipf_theta := t),
        "T  Zipfian skew theta for the ycsb and soak workloads (default 0.99; \
         smaller is flatter)" );
      ( "--slo",
        Arg.Set slo_flag,
        "  evaluate SLO rules on the soak scenario (exit 1 on violation)" );
      ( "--slo-p99-ns",
        Arg.Set_int slo_p99_ns,
        "N  p99 end-to-end latency bound in simulated ns for the SLO rules \
         (default 20000000; set low to inject a breach)" );
      ( "--slo-out",
        Arg.Set_string slo_out,
        "FILE  write the soak target's SLO report as JSON" );
      ( "--soak-trace",
        Arg.Set_string soak_trace_file,
        "FILE  write the soak target's Perfetto trace" );
      ( "--retry-limit",
        Arg.Set_int soak_retry_limit,
        "N  degraded-shard retry budget for the soak ensemble (default 3)" );
      ( "--backoff-ns",
        Arg.Set_int soak_backoff_ns,
        "N  base delay for the soak ensemble's jittered exponential retry \
         backoff, in simulated ns (default 1000)" );
    ]
  in
  let usage =
    "main.exe [targets] [--scale S] [--mix M] [--shards N,M,...]\n\
     targets: "
    ^ String.concat " " (List.map fst targets)
    ^ " (default: all; --mix alone runs only its own workload, \
       --shards alone runs sharded)"
  in
  Arg.parse spec (fun t -> selected := t :: !selected) usage;
  let selected =
    if !selected = [] then
      if !mix_spec <> "" then []
      else if !shard_counts <> [] then [ "sharded" ]
      else List.map fst targets
    else List.rev !selected
  in
  if !mix_spec <> "" then ycsb_mix_target !mix_spec;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f ->
          let s = Unix.gettimeofday () in
          f ();
          Printf.printf "[%s done in %.1fs]\n\n%!" name (Unix.gettimeofday () -. s)
      | None -> Printf.eprintf "unknown target %s\n" name)
    selected;
  Printf.printf "total %.1fs\n" (Unix.gettimeofday () -. t0);
  if !slo_failed then begin
    prerr_endline "SLO violated (see report above); failing the run";
    exit 1
  end
