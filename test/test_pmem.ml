(* Tests for the persistent-memory simulator: store/flush semantics,
   crash states, allocator, cost accounting. *)

open Ff_pmem
module Prng = Ff_util.Prng

let mk ?(config = Config.default) ?(words = 4096) () =
  Arena.create ~config ~words ()

let test_read_write_roundtrip () =
  let a = mk () in
  Arena.write a 100 42;
  Arena.write a 101 (-7);
  Alcotest.(check int) "read back" 42 (Arena.read a 100);
  Alcotest.(check int) "read back 2" (-7) (Arena.read a 101)

let test_unflushed_store_not_persisted () =
  let a = mk () in
  Arena.write a 100 42;
  Alcotest.(check int) "persisted image unchanged" 0 (Arena.peek_persisted a 100);
  Arena.flush a 100;
  Alcotest.(check int) "persisted after flush" 42 (Arena.peek_persisted a 100)

let test_flush_covers_whole_line () =
  let a = mk () in
  (* words 96..103 share one line *)
  for i = 96 to 103 do
    Arena.write a i (i * 10)
  done;
  Arena.flush a 99;
  for i = 96 to 103 do
    Alcotest.(check int) "line persisted" (i * 10) (Arena.peek_persisted a i)
  done;
  Arena.write a 104 7;
  Alcotest.(check int) "next line untouched" 0 (Arena.peek_persisted a 104)

let test_power_fail_keep_none () =
  let a = mk () in
  Arena.write a 100 1;
  Arena.flush a 100;
  Arena.write a 100 2;
  Arena.write a 200 3;
  Arena.power_fail a Storelog.Keep_none;
  Alcotest.(check int) "only flushed value survives" 1 (Arena.read a 100);
  Alcotest.(check int) "unflushed lost" 0 (Arena.read a 200)

let test_power_fail_keep_all () =
  let a = mk () in
  Arena.write a 100 1;
  Arena.write a 200 3;
  Arena.power_fail a Storelog.Keep_all;
  Alcotest.(check int) "pending applied" 1 (Arena.read a 100);
  Alcotest.(check int) "pending applied 2" 3 (Arena.read a 200)

let test_power_fail_random_is_per_line_prefix () =
  (* Store a sequence to one line; after a random-eviction crash the
     line must contain a prefix of the store sequence. *)
  for seed = 0 to 20 do
    let a = mk () in
    Arena.write a 96 1;
    Arena.write a 97 2;
    Arena.write a 98 3;
    Arena.power_fail a (Storelog.Random_eviction (Prng.create seed));
    let v1 = Arena.read a 96 and v2 = Arena.read a 97 and v3 = Arena.read a 98 in
    let state = (v1, v2, v3) in
    let valid =
      List.mem state [ (0, 0, 0); (1, 0, 0); (1, 2, 0); (1, 2, 3) ]
    in
    Alcotest.(check bool) "prefix state" true valid
  done

(* The crash primitive, on a program of stores, flushes and fences to
   distinct zeroed words, run over a base with flushed and pending
   stores of its own.  [prefix k] is every step before store k + 1. *)
type step = W of int * int | F of int | Fence

let program =
  List.concat
    (List.init 30 (fun i ->
         let addr = 200 + (5 * i mod 64) in
         (W (addr, i + 1) :: (if i mod 4 = 3 then [ F addr ] else []))
         @ if i mod 7 = 6 then [ Fence ] else []))

let writes = List.filter_map (function W (a, v) -> Some (a, v) | F _ | Fence -> None) program
let stores = List.length writes

let exec a = function
  | W (addr, v) -> Arena.write a addr v
  | F addr -> Arena.flush a addr
  | Fence -> Arena.fence a

let run a () = List.iter (exec a) program

let rec prefix k = function
  | W _ :: _ when k = 0 -> []
  | s :: rest -> s :: prefix (match s with W _ -> k - 1 | F _ | Fence -> k) rest
  | [] -> []

let crash_base () =
  let a = mk () in
  for i = 0 to 9 do
    Arena.write a (100 + i) (i + 1)
  done;
  Arena.flush_range a 100 5;
  a

let image a = Array.init (Arena.capacity a) (Arena.peek a)

let test_crash_each_visits () =
  let a = crash_base () and idle = mk () in
  let visits = ref [] in
  Arena.crash_each [| a; idle |] (run a) (fun i k _ ->
      Alcotest.(check int) "only the stored arena is visited" 0 i;
      List.iteri
        (fun j (addr, v) ->
          let label = Printf.sprintf "visit %d: store %d" k (j + 1) in
          if j < k then Alcotest.(check int) (label ^ " applied") v (Arena.peek a addr)
          else Alcotest.(check int) (label ^ " not applied") 0 (Arena.peek a addr))
        writes;
      visits := k :: !visits);
  Alcotest.(check (list int)) "n + 1 visits, in order" (List.init (stores + 1) Fun.id)
    (List.rev !visits)

let test_crash_each_stops_and_restores () =
  let seen = ref 0 in
  let sink =
    Some
      {
        Arena.ev_store = (fun _ -> incr seen);
        ev_flush = ignore;
        ev_fence = ignore;
        ev_alloc = (fun _ _ -> ());
        ev_free = (fun _ _ -> ());
        ev_crash = ignore;
      }
  in
  let exception Stop in
  (* k = stores stops at the visit after the run; k = stores + 1 never
     stops it. *)
  for k = 0 to stores + 1 do
    let a = crash_base () in
    Arena.set_event_sink a sink;
    seen := 0;
    let stopped =
      match Arena.crash_each [| a |] (run a) (fun _ j _ -> if j = k then raise Stop) with
      | () -> false
      | exception Stop -> true
    in
    let want = crash_base () in
    List.iter (exec want) (prefix k program);
    let label = Printf.sprintf "k=%d: " k in
    Alcotest.(check bool) (label ^ "the raise stopped the run") (k <= stores) stopped;
    Alcotest.(check bool) (label ^ "left as the crash found it") true (image a = image want);
    Alcotest.(check int) (label ^ "store count") (Arena.store_count want) (Arena.store_count a);
    Alcotest.(check int) (label ^ "earlier sink saw each applied store") (min k stores) !seen;
    Alcotest.(check bool) (label ^ "earlier sink restored") true (Arena.event_sink a == sink)
  done

let test_crash_each_equals_power_fail () =
  let base = crash_base () in
  let a = Arena.clone base in
  let points = ref 0 in
  Arena.crash_each [| a |] (run a) (fun _ k crash ->
      incr points;
      List.iter
        (fun (name, mode) ->
          let got = crash (mode ()) in
          let want = Arena.clone base in
          List.iter (exec want) (prefix k program);
          Arena.power_fail want (mode ());
          let label = Printf.sprintf "%s at %d: " name k in
          Alcotest.(check bool) (label ^ "same image") true (image got = image want);
          Alcotest.(check int) (label ^ "same store count") (Arena.store_count want)
            (Arena.store_count got);
          Alcotest.(check int) (label ^ "nothing pending") 0 (Arena.dirty_line_count got))
        [
          ("keep_none", fun () -> Storelog.Keep_none);
          ("keep_all", fun () -> Storelog.Keep_all);
          ("eviction", fun () -> Storelog.Random_eviction (Prng.create (k + 5)));
        ]);
  Alcotest.(check int) "every store count crashed" (stores + 1) !points

let test_crash_each_spare_reuse () =
  let base = crash_base () in
  let a = Arena.clone base in
  (* Scribble over every copy: the spare is all it may reach. *)
  Arena.crash_each [| a |] (run a) (fun _ k crash ->
      List.iter
        (fun mode ->
          let c = crash mode in
          for addr = 96 to 300 do
            Arena.write c addr (-k - 1)
          done;
          Arena.flush_range c 96 205)
        [ Storelog.Keep_none; Storelog.Keep_all; Storelog.Random_eviction (Prng.create k) ]);
  let want = Arena.clone base in
  run want ();
  let persisted x = Array.init (Arena.capacity x) (Arena.peek_persisted x) in
  Alcotest.(check bool) "live image untouched" true (image a = image want);
  Alcotest.(check bool) "live persisted image untouched" true (persisted a = persisted want)

let test_fence_epochs_non_tso () =
  (* Under Non_tso, stores in a later epoch must not persist unless all
     earlier-epoch stores do. *)
  let config = Config.arm () in
  let violations = ref 0 in
  for seed = 0 to 40 do
    let a = Arena.create ~config ~words:4096 () in
    Arena.write a 96 1;
    Arena.fence a;
    Arena.write a 104 2;
    (* different line, later epoch *)
    Arena.power_fail a (Storelog.Non_tso_random (Prng.create seed));
    let v1 = Arena.read a 96 and v2 = Arena.read a 104 in
    if v2 = 2 && v1 = 0 then incr violations
  done;
  Alcotest.(check int) "fence ordering respected" 0 !violations

let test_non_tso_without_fence_can_reorder () =
  (* Without a fence, the later store may persist without the earlier
     one — the hazard FAST's mfence_IF_NOT_TSO exists to prevent. *)
  let config = Config.arm () in
  let reordered = ref false in
  for seed = 0 to 100 do
    let a = Arena.create ~config ~words:4096 () in
    Arena.write a 96 1;
    Arena.write a 104 2;
    Arena.power_fail a (Storelog.Non_tso_random (Prng.create seed));
    if Arena.read a 104 = 2 && Arena.read a 96 = 0 then reordered := true
  done;
  Alcotest.(check bool) "reordering observable" true !reordered

let test_alloc_line_aligned_and_zeroed () =
  let a = mk () in
  Arena.write a 200 99;
  let n = Arena.alloc a 10 in
  Alcotest.(check int) "line aligned" 0 (n mod Arena.words_per_line);
  Alcotest.(check bool) "beyond reserved" true (n >= Arena.reserved_words);
  for i = n to n + 15 do
    Alcotest.(check int) "zeroed (rounded to lines)" 0 (Arena.read a i)
  done

let test_alloc_free_reuse () =
  let a = mk () in
  let n1 = Arena.alloc a 16 in
  Arena.free a n1 16;
  let n2 = Arena.alloc_raw a 16 in
  Alcotest.(check int) "freed block reused" n1 n2

let test_alloc_out_of_memory () =
  let a = mk ~words:256 () in
  let raised =
    try
      ignore (Arena.alloc a 1024);
      false
    with Out_of_memory -> true
  in
  Alcotest.(check bool) "out of memory" true raised

let test_root_slots_failure_atomic () =
  let a = mk () in
  Arena.root_set a 0 1234;
  Arena.power_fail a Storelog.Keep_none;
  Alcotest.(check int) "root survives crash" 1234 (Arena.root_get a 0)

let test_stats_counting () =
  let a = mk () in
  Arena.reset_stats a;
  Arena.write a 100 1;
  Arena.write a 101 2;
  ignore (Arena.read a 100);
  Arena.flush a 100;
  Arena.fence a;
  let s = Arena.total_stats a in
  Alcotest.(check int) "stores" 2 s.Stats.stores;
  Alcotest.(check int) "loads" 1 s.Stats.loads;
  Alcotest.(check int) "flushes" 1 s.Stats.flushes;
  Alcotest.(check bool) "fences >= 2 (flush implies fence)" true (s.Stats.fences >= 2)

let test_latency_charging () =
  let config = Config.pm ~read_ns:300 ~write_ns:500 () in
  let a = Arena.create ~config ~words:65536 () in
  Arena.reset_stats a;
  (* A miss far from previous accesses costs the full read latency. *)
  ignore (Arena.read a 30000);
  let s = Arena.total_stats a in
  Alcotest.(check bool) "miss charged ~read latency" true (Stats.total_ns s >= 300);
  Arena.reset_stats a;
  ignore (Arena.read a 30001);
  (* same line: hit *)
  let s = Arena.total_stats a in
  Alcotest.(check bool) "hit is cheap" true (Stats.total_ns s < 10);
  Arena.reset_stats a;
  Arena.flush a 30000;
  let s = Arena.total_stats a in
  Alcotest.(check int) "flush charged write latency" 500 s.Stats.flush_ns

let test_sequential_miss_discount () =
  let config = Config.pm ~read_ns:400 ~write_ns:400 () in
  let a = Arena.create ~config ~words:(1 lsl 16) () in
  Arena.reset_stats a;
  ignore (Arena.read a 1024);
  (* line 128: miss, full cost *)
  ignore (Arena.read a 1032);
  (* line 129: sequential miss, discounted *)
  let s = Arena.total_stats a in
  Alcotest.(check int) "misses" 2 s.Stats.line_misses;
  Alcotest.(check int) "one sequential" 1 s.Stats.seq_misses;
  Alcotest.(check bool) "discount applied" true
    (Stats.total_ns s < 2 * 400 && Stats.total_ns s >= 400 + (400 / 4))

let test_phase_buckets () =
  let a = mk () in
  Arena.reset_stats a;
  Arena.set_phase a Stats.Search;
  ignore (Arena.read a 2048);
  Arena.set_phase a Stats.Update;
  Arena.write a 2048 5;
  Arena.set_phase a Stats.Other;
  let s = Arena.total_stats a in
  Alcotest.(check bool) "search bucket nonzero" true (s.Stats.search_ns > 0);
  Alcotest.(check bool) "update bucket nonzero" true (s.Stats.update_ns > 0)

let test_clone_independent () =
  let a = mk () in
  Arena.write a 100 1;
  Arena.drain a;
  let b = Arena.clone a in
  Arena.write a 100 2;
  Alcotest.(check int) "clone sees old value" 1 (Arena.read b 100);
  Arena.write b 100 3;
  Alcotest.(check int) "original unaffected" 2 (Arena.read a 100)

(* A crashed copy is what [power_fail] leaves on a twin replay, under
   every TSO mode and every pending non-TSO cutoff: the same image,
   counters and allocator state (free lists and live table dropped),
   with flush elision off.  The original keeps its image, store count
   and pending stores, so one replay serves every mode; a spent copy
   passed as [into] lends its image without changing the result. *)
let test_crashed_copy_matches_power_fail () =
  let replay () =
    let a = Arena.create ~config:(Config.arm ()) ~words:4096 () in
    let blk = Arena.alloc a 16 in
    Arena.free a (Arena.alloc a 8) 8;
    for i = 0 to 15 do
      Arena.write a (blk + i) (i + 1);
      if i mod 5 = 4 then Arena.fence a;
      if i = 7 then Arena.flush a blk
    done;
    Arena.set_flush_elision a true;
    (a, blk)
  in
  let a, blk = replay () in
  let words f t = List.init (Arena.capacity t) (f t) in
  let state t =
    (words Arena.peek t, Arena.store_count t, Arena.used_words t, Arena.free_blocks t)
  in
  let original = (state a, words Arena.peek_persisted a, Arena.pending_epochs a) in
  let modes =
    [
      ("keep_none", fun () -> Storelog.Keep_none);
      ("keep_all", fun () -> Storelog.Keep_all);
      ("random_eviction", fun () -> Storelog.Random_eviction (Prng.create 7));
    ]
    @ List.map
        (fun e -> (Printf.sprintf "cutoff %d" e, fun () -> Storelog.Non_tso_cutoff (e, Prng.create 7)))
        (Arena.pending_epochs a)
  in
  Alcotest.(check bool) "several pending epochs" true (List.length modes > 4);
  let spare = ref None in
  List.iter
    (fun (name, mode) ->
      let c = Arena.crashed_copy ?into:!spare a (mode ()) in
      let twin, _ = replay () in
      Arena.power_fail twin (mode ());
      Alcotest.(check bool) (name ^ ": power_fail's image and allocator") true
        (state c = state twin && Arena.free_words c = 0);
      Alcotest.(check bool) (name ^ ": original unchanged") true
        (original = (state a, words Arena.peek_persisted a, Arena.pending_epochs a));
      (* A wrong-sized free is refused only while the live table knows
         the block. *)
      Alcotest.(check bool) (name ^ ": original keeps its live table") true
        (match Arena.free a blk 8 with () -> false | exception Invalid_argument _ -> true);
      Arena.free c blk 8;
      Arena.write c 500 9;
      Arena.flush c 500;
      Alcotest.(check int) (name ^ ": flush elision off") 9 (Arena.peek_persisted c 500);
      spare := Some c)
    modes

let test_drain_persists_everything () =
  let a = mk () in
  Arena.write a 100 1;
  Arena.write a 900 2;
  Arena.drain a;
  Alcotest.(check int) "persisted 1" 1 (Arena.peek_persisted a 100);
  Alcotest.(check int) "persisted 2" 2 (Arena.peek_persisted a 900)

let test_storelog_eviction_bounded () =
  (* Write past the high-water mark without flushing: the store that
     crosses it writes the oldest stores back until half remain. *)
  let image = Array.make 1024 0 in
  let log = Storelog.create () in
  let extra = 1000 in
  for i = 1 to Storelog.high_water + extra do
    let addr = i mod 1024 in
    let undo = image.(addr) in
    image.(addr) <- i;
    Storelog.record log ~addr ~value:i ~undo ~line:(addr / 8) ~epoch:0
  done;
  Alcotest.(check int) "pending bounded"
    ((Storelog.high_water / 2) + extra - 1)
    (Storelog.pending log);
  let persisted addr = Storelog.persisted log ~image ~line:(addr / 8) addr in
  let last = (Storelog.high_water / 2) + 1 in
  Alcotest.(check int) "newest written-back store" last (persisted (last mod 1024));
  Alcotest.(check int) "its successor's word keeps an older store" (last + 1 - 1024)
    (persisted ((last + 1) mod 1024))

let test_per_thread_stats () =
  let a = mk () in
  Arena.reset_stats a;
  Arena.set_tid a 0;
  ignore (Arena.read a 100);
  Arena.set_tid a 1;
  ignore (Arena.read a 200);
  ignore (Arena.read a 300);
  Alcotest.(check int) "tid 0 loads" 1 (Arena.stats a 0).Stats.loads;
  Alcotest.(check int) "tid 1 loads" 2 (Arena.stats a 1).Stats.loads;
  Arena.set_tid a 0

let test_cachesim_lru () =
  let c = Cachesim.create ~capacity:2 in
  ignore (Cachesim.access c 1);
  ignore (Cachesim.access c 2);
  Alcotest.(check bool) "1 resident" true (Cachesim.resident c 1);
  ignore (Cachesim.access c 3);
  (* evicts 1 (LRU) *)
  Alcotest.(check bool) "1 evicted" false (Cachesim.resident c 1);
  Alcotest.(check bool) "2 resident" true (Cachesim.resident c 2);
  (match Cachesim.access c 2 with
  | Cachesim.Hit -> ()
  | Cachesim.Miss | Cachesim.Seq_miss -> Alcotest.fail "expected hit");
  ignore (Cachesim.access c 4);
  Alcotest.(check bool) "3 evicted after 2 touched" false (Cachesim.resident c 3)

let test_cachesim_sequential_detection () =
  let c = Cachesim.create ~capacity:16 in
  (match Cachesim.access c 10 with
  | Cachesim.Miss -> ()
  | _ -> Alcotest.fail "first access: non-sequential miss");
  match Cachesim.access c 11 with
  | Cachesim.Seq_miss -> ()
  | _ -> Alcotest.fail "adjacent line: sequential miss"

let suite =
  [
    Alcotest.test_case "read/write roundtrip" `Quick test_read_write_roundtrip;
    Alcotest.test_case "unflushed not persisted" `Quick test_unflushed_store_not_persisted;
    Alcotest.test_case "flush covers line" `Quick test_flush_covers_whole_line;
    Alcotest.test_case "power fail keep none" `Quick test_power_fail_keep_none;
    Alcotest.test_case "power fail keep all" `Quick test_power_fail_keep_all;
    Alcotest.test_case "random eviction = line prefix" `Quick test_power_fail_random_is_per_line_prefix;
    Alcotest.test_case "crash_each visits every store" `Quick test_crash_each_visits;
    Alcotest.test_case "crash_each raise: stop, restore" `Quick
      test_crash_each_stops_and_restores;
    Alcotest.test_case "crash_each copy = power_fail" `Quick
      test_crash_each_equals_power_fail;
    Alcotest.test_case "crash_each spare spares live run" `Quick
      test_crash_each_spare_reuse;
    Alcotest.test_case "non-TSO fences ordered" `Quick test_fence_epochs_non_tso;
    Alcotest.test_case "non-TSO reorders without fence" `Quick test_non_tso_without_fence_can_reorder;
    Alcotest.test_case "alloc aligned+zeroed" `Quick test_alloc_line_aligned_and_zeroed;
    Alcotest.test_case "alloc free reuse" `Quick test_alloc_free_reuse;
    Alcotest.test_case "alloc OOM" `Quick test_alloc_out_of_memory;
    Alcotest.test_case "root slot atomic" `Quick test_root_slots_failure_atomic;
    Alcotest.test_case "stats counting" `Quick test_stats_counting;
    Alcotest.test_case "latency charging" `Quick test_latency_charging;
    Alcotest.test_case "sequential discount" `Quick test_sequential_miss_discount;
    Alcotest.test_case "phase buckets" `Quick test_phase_buckets;
    Alcotest.test_case "clone independent" `Quick test_clone_independent;
    Alcotest.test_case "crashed copy = power_fail" `Quick test_crashed_copy_matches_power_fail;
    Alcotest.test_case "drain persists" `Quick test_drain_persists_everything;
    Alcotest.test_case "storelog eviction bounded" `Quick test_storelog_eviction_bounded;
    Alcotest.test_case "per-thread stats" `Quick test_per_thread_stats;
    Alcotest.test_case "cachesim LRU" `Quick test_cachesim_lru;
    Alcotest.test_case "cachesim sequential" `Quick test_cachesim_sequential_detection;
  ]

let test_save_load_file () =
  let a = mk ~words:(1 lsl 12) () in
  Arena.write a 100 42;
  Arena.flush a 100;
  Arena.write a 200 7;
  (* unflushed: must NOT survive the file image *)
  let path = Filename.temp_file "arena" ".img" in
  Arena.save_to_file a path;
  let b = Arena.load_from_file path in
  Sys.remove path;
  Alcotest.(check int) "flushed word survives" 42 (Arena.read b 100);
  Alcotest.(check int) "unflushed word lost" 0 (Arena.read b 200);
  (* arena remains usable: allocation continues past the old bump *)
  let n = Arena.alloc b 8 in
  Alcotest.(check bool) "alloc past restored bump" true (n >= Arena.reserved_words)

let test_save_load_roundtrip_tree () =
  let a = mk ~words:(1 lsl 16) () in
  let t = Ff_fastfair.Tree.create ~node_bytes:128 a in
  for k = 1 to 300 do
    Ff_fastfair.Tree.insert t ~key:k ~value:((2 * k) + 1)
  done;
  Arena.drain a;
  let path = Filename.temp_file "tree" ".img" in
  Arena.save_to_file a path;
  let b = Arena.load_from_file path in
  Sys.remove path;
  let t2 = Ff_fastfair.Tree.open_existing ~node_bytes:128 b in
  Ff_fastfair.Tree.recover t2;
  for k = 1 to 300 do
    Alcotest.(check (option int)) "key survives file roundtrip" (Some ((2 * k) + 1))
      (Ff_fastfair.Tree.search t2 k)
  done;
  (* and keeps accepting writes *)
  Ff_fastfair.Tree.insert t2 ~key:301 ~value:603;
  Alcotest.(check (option int)) "post-reload insert" (Some 603)
    (Ff_fastfair.Tree.search t2 301)

let file_tests =
  [
    Alcotest.test_case "save/load file image" `Quick test_save_load_file;
    Alcotest.test_case "save/load tree roundtrip" `Quick test_save_load_roundtrip_tree;
  ]

(* The store log holds dirty state only: a flushed line leaves nothing
   behind, however many stores the arena has seen. *)
let test_storelog_holds_only_dirty () =
  let a = mk () in
  let touch i =
    let addr = Arena.reserved_words + (i mod 512) in
    Arena.write a addr i;
    Arena.flush a addr
  in
  for i = 0 to 511 do
    touch i
  done;
  let before = Obj.reachable_words (Obj.repr a) in
  for i = 0 to 200_000 - 1 do
    touch i
  done;
  let grown = Obj.reachable_words (Obj.repr a) - before in
  Alcotest.(check bool) (Printf.sprintf "arena grew by %d words" grown) true (grown < 1024)

(* A thread keeps only its counters: running tid 1 as well as tid 0
   allocates no cache or anything else, and each tid's loads land in
   its own stats. *)
let test_contexts_on_demand () =
  let run tids =
    let a = mk () in
    List.iter
      (fun tid ->
        Arena.set_tid a tid;
        Arena.write a 100 1;
        ignore (Arena.read a 200);
        Arena.flush a 100)
      tids;
    Arena.set_tid a 0;
    (a, Obj.reachable_words (Obj.repr a))
  in
  let both, words_both = run [ 0; 1 ] in
  let _, words_one = run [ 0 ] in
  Alcotest.(check int) "words tid 1 adds" 0 (words_both - words_one);
  (* Counters follow the tid that ran, not a context shared with it. *)
  Alcotest.(check int) "tid 0 loads" 1 (Arena.stats both 0).Stats.loads;
  Alcotest.(check int) "tid 1 loads" 1 (Arena.stats both 1).Stats.loads;
  Alcotest.(check int) "unused tid has zero stats" 0 (Arena.stats both 5).Stats.loads

(* One LLC per arena: a line tid 0 just loaded is a hit for tid 1. *)
let test_threads_share_llc () =
  let a = mk () in
  ignore (Arena.read a 200);
  Arena.set_tid a 1;
  ignore (Arena.read a 200);
  let s0 = Arena.stats a 0 and s1 = Arena.stats a 1 in
  Alcotest.(check (pair int int)) "tid 0 misses, hits" (1, 0) (s0.Stats.line_misses, s0.Stats.line_hits);
  Alcotest.(check (pair int int)) "tid 1 misses, hits" (0, 1) (s1.Stats.line_misses, s1.Stats.line_hits)

(* The charged path allocates nothing once warm: minor words per call,
   averaged over many calls (the [Gc.minor_words] readings themselves
   allocate a few words). *)
let minor_words_per_call f =
  let n = 100_000 in
  for i = 0 to n - 1 do
    f i
  done;
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_charged_path_allocation_free () =
  let a = mk ~config:{ Config.default with Config.cache_lines = 64 } () in
  let line i = Arena.reserved_words + (i mod 128 * Arena.words_per_line) in
  (* Two lines alternate, so each read hits a line that is not the most
     recent; 128 lines cycled through a 64-line LRU make every read miss. *)
  let cases =
    [
      ("read hit, same line", fun _ -> ignore (Arena.read a 100));
      ("read hit", fun i -> ignore (Arena.read a (line (i land 1))));
      ("read miss", fun i -> ignore (Arena.read a (line i)));
      ( "write + flush",
        fun i ->
          Arena.write a (line i) i;
          Arena.flush a (line i) );
      (* The shard clock outside a multicore run. *)
      ("elapsed_ns", fun _ -> ignore (Arena.elapsed_ns a));
      ("sim_now outside a run", fun _ -> ignore (Ff_mcsim.Mcsim.sim_now ()));
    ]
  in
  let words = List.map (fun (name, f) -> (name, minor_words_per_call f)) cases in
  Alcotest.(check bool)
    (String.concat ", "
       (List.map (fun (name, w) -> Printf.sprintf "%s: %.2f minor words per call" name w) words))
    true
    (List.for_all (fun (_, w) -> w < 0.01) words);
  Alcotest.(check bool) "reads missed" true ((Arena.stats a 0).Stats.line_misses > 100_000)

(* A flood of pending stores grows the store log; flushing it all gives
   the memory back. *)
let test_storelog_shrinks_when_empty () =
  let fresh = Obj.reachable_words (Obj.repr (mk ())) in
  let a = mk () in
  for i = 1 to Storelog.high_water + 1000 do
    Arena.write a (Arena.reserved_words + (i mod 64)) i
  done;
  let peak = Obj.reachable_words (Obj.repr a) - fresh in
  Arena.flush_range a Arena.reserved_words 64;
  let left = Obj.reachable_words (Obj.repr a) - fresh in
  Alcotest.(check bool)
    (Printf.sprintf "%d words over a fresh arena at the peak, %d after the flush" peak left)
    true
    (peak > Storelog.high_water && left < 256)

(* An arena holds one image: creating or cloning an [n]-word arena
   allocates [n] words plus the fixed cost of a fresh store log, cache
   and tables. *)
let test_one_image () =
  let n = 1 lsl 16 in
  let words_allocated f =
    (* An empty minor heap: no collection runs while [f] allocates. *)
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    let r = f () in
    let minor', promoted', major' = Gc.counters () in
    (r, int_of_float (minor' -. minor +. (major' -. major) -. (promoted' -. promoted)))
  in
  let a, created = words_allocated (fun () -> mk ~words:n ()) in
  Arena.write a 100 1;
  let _, cloned = words_allocated (fun () -> Arena.clone a) in
  Alcotest.(check bool)
    (Printf.sprintf "create %d and clone %d words for a %d-word arena" created cloned n)
    true
    (created <= n + 4096 && cloned <= n + 4096)

let memory_tests =
  [
    Alcotest.test_case "one image per arena" `Quick test_one_image;
    Alcotest.test_case "store log holds only dirty lines" `Quick test_storelog_holds_only_dirty;
    Alcotest.test_case "thread contexts on demand" `Quick test_contexts_on_demand;
    Alcotest.test_case "threads share the LLC" `Quick test_threads_share_llc;
    Alcotest.test_case "charged path allocation-free" `Quick test_charged_path_allocation_free;
    Alcotest.test_case "store log shrinks when empty" `Quick test_storelog_shrinks_when_empty;
  ]

(* Golden crash images.  A fixed seeded FAST+FAIR insert/delete run,
   interleaved with unflushed stores to a small scratch window and
   explicit fences, is stopped mid-operation by a crash visit that
   raises before its 6001st store, and then power-failed under every
   crash mode: every pending epoch as a
   [Non_tso_cutoff], media faults, and a run whose unflushed stores
   cross the store log's high-water mark first.  Each persisted image
   is digested.  The digests were recorded once; they pin the store
   log's crash semantics, including the PRNG draw order of every
   randomized mode, so recorded counterexamples keep replaying to the
   identical image. *)

let golden_words = 1 lsl 14
let golden_scratch = golden_words - 64

let golden_run ?(flood = 0) () =
  let a = Arena.create ~words:golden_words () in
  for i = 1 to flood do
    Arena.write a (golden_scratch + (i * 7 mod 64)) i;
    if i mod 4096 = 0 then Arena.fence a
  done;
  let t = Ff_fastfair.Tree.create ~node_bytes:256 a in
  let r = Prng.create 13 in
  let exception Stop in
  (try
     Arena.crash_each [| a |]
       (fun () ->
         for i = 1 to 2000 do
           let k = 1 + Prng.int r 500 in
           if Prng.int r 4 = 0 then ignore (Ff_fastfair.Tree.delete t k)
           else Ff_fastfair.Tree.insert t ~key:k ~value:((2 * k) + 1);
           if i mod 10 = 0 then begin
             for _ = 1 to 3 do
               Arena.write a (golden_scratch + Prng.int r 64) i
             done;
             if i mod 20 = 0 then Arena.fence a
           end
         done)
       (fun _ k _ -> if k = 6000 then raise Stop)
   with Stop -> ());
  a

let image_digest a =
  let b = Buffer.create (8 * Arena.capacity a) in
  for i = 0 to Arena.capacity a - 1 do
    Buffer.add_int64_le b (Int64.of_int (Arena.peek_persisted a i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let crash_digest ?flood ?plan mode =
  let a = golden_run ?flood () in
  Option.iter (fun p -> Arena.set_fault_plan a (Some p)) plan;
  Arena.power_fail a mode;
  image_digest a

let golden_digests () =
  let epochs = Arena.pending_epochs (golden_run ()) in
  (* One digest over every cutoff's image, tagged with its epoch. *)
  let cutoffs =
    List.map
      (fun e ->
        Printf.sprintf "%d:%s" e
          (crash_digest (Storelog.Non_tso_cutoff (e, Prng.create (5 + e)))))
      epochs
  in
  [
    ("pending epochs", string_of_int (List.length epochs));
    ("keep_none", crash_digest Storelog.Keep_none);
    ("keep_all", crash_digest Storelog.Keep_all);
    ("random_eviction", crash_digest (Storelog.Random_eviction (Prng.create 3)));
    ("non_tso_random", crash_digest (Storelog.Non_tso_random (Prng.create 4)));
    ("non_tso_cutoff, every epoch", Digest.to_hex (Digest.string (String.concat ";" cutoffs)));
    ( "fault_plan",
      crash_digest
        ~plan:{ Arena.fault_seed = 11; poison_lines = 2; flip_words = 3; stuck_words = 1 }
        Storelog.Keep_none );
    ("flood keep_none", crash_digest ~flood:70_000 Storelog.Keep_none);
    ("flood keep_all", crash_digest ~flood:70_000 Storelog.Keep_all);
    ("flood random_eviction", crash_digest ~flood:70_000 (Storelog.Random_eviction (Prng.create 7)));
    ("flood non_tso_random", crash_digest ~flood:70_000 (Storelog.Non_tso_random (Prng.create 8)));
  ]

let golden =
  [
    ("pending epochs", "110");
    ("keep_none", "0d26a69306fbc432f56b0fb0ca0a358b");
    ("keep_all", "f3e5c0754a1b53b629636d94a0659c7d");
    ("random_eviction", "bc310c7085576ffa6b5b84b0008698b5");
    ("non_tso_random", "1cce5c7f94290d1b14721d290a43f189");
    ("non_tso_cutoff, every epoch", "0be2491b6cc933b2f8fd2b874c78691e");
    ("fault_plan", "c5e9bc75c638474832f849579cb3d193");
    ("flood keep_none", "6f9cdbabdc8a1d369077365fb595a926");
    ("flood keep_all", "0fa947dee8d19f53a08019e24aca1809");
    ("flood random_eviction", "7efb2169d29ab30909687416277a9e13");
    ("flood non_tso_random", "a63752f93ccd131cd2d095a19d65098e");
  ]

let test_golden_crashed_images () =
  Alcotest.(check (list (pair string string))) "crash image digests" golden (golden_digests ())

(* The paths that touch pending stores without a power failure: saving
   the image, poisoning a dirty line, cloning.  [golden_run] leaves the
   scratch window's lines dirty, so the poisoned line has pending
   stores. *)
let pending_digests () =
  let saved =
    let a = golden_run () in
    let path = Filename.temp_file "golden" ".img" in
    Arena.save_to_file a path;
    let b = Arena.load_from_file path in
    Sys.remove path;
    (* Saving leaves the pending stores pending. *)
    Arena.power_fail a Storelog.Keep_all;
    Alcotest.(check string) "keep_all after save" (List.assoc "keep_all" golden) (image_digest a);
    image_digest b
  in
  let poisoned mode =
    let a = golden_run () in
    Arena.poison_line a ((golden_scratch / Arena.words_per_line) + 2);
    Arena.power_fail a mode;
    image_digest a
  in
  let cloned =
    let c = Arena.clone (golden_run ()) in
    Alcotest.(check bool) "clone's images agree" true
      (List.for_all
         (fun i -> Arena.peek c i = Arena.peek_persisted c i)
         (List.init golden_words Fun.id));
    let r = Prng.create 17 in
    for i = 1 to 40 do
      Arena.write c (golden_scratch + Prng.int r 64) (-i)
    done;
    Arena.power_fail c (Storelog.Random_eviction (Prng.create 9));
    image_digest c
  in
  [
    ("save_to_file", saved);
    ("poison keep_none", poisoned Storelog.Keep_none);
    ("poison keep_all", poisoned Storelog.Keep_all);
    ("poison random_eviction", poisoned (Storelog.Random_eviction (Prng.create 3)));
    ("poison non_tso_random", poisoned (Storelog.Non_tso_random (Prng.create 4)));
    ("poison non_tso_cutoff", poisoned (Storelog.Non_tso_cutoff (60, Prng.create 5)));
    ("clone", cloned);
  ]

let golden_pending =
  [
    ("save_to_file", "0d26a69306fbc432f56b0fb0ca0a358b");
    ("poison keep_none", "da8d64b1bd531ceab81c393901e05f4b");
    ("poison keep_all", "c1bdefe8968a6fe04c29d5c7bfed49a6");
    ("poison random_eviction", "eb86d2a075b0572a39c515099ddffe29");
    ("poison non_tso_random", "91ca83b74bce97c8498c38b2202a1b8c");
    ("poison non_tso_cutoff", "51b1eb38715484f8e68d6898862e6f34");
    ("clone", "72d4dac68388a6d68e3c808156e0161f");
  ]

let test_golden_pending_images () =
  Alcotest.(check (list (pair string string)))
    "pending-store image digests" golden_pending (pending_digests ())

let suite =
  suite @ file_tests @ memory_tests
  @ [
      Alcotest.test_case "golden crash images" `Quick test_golden_crashed_images;
      Alcotest.test_case "golden pending-store images" `Quick test_golden_pending_images;
    ]
