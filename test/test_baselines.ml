(* Correctness of the comparator indexes (wB+-tree, FP-tree, WORT,
   SkipList, B-link) through the uniform ops interface, including
   crash + recovery for the persistent ones. *)

open Ff_pmem
open Crash_util
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry

let value_of k = (2 * k) + 1

let mk_arena ?(words = 1 lsl 21) () = Arena.create ~words ()

type maker = {
  label : string;
  build : Arena.t -> Intf.ops;
  reopen : (Arena.t -> Intf.ops) option; (* None = volatile *)
}

(* Makers come from the registry; only the comparator baselines are
   exercised here (fastfair has its own suites). *)
let maker_of name =
  let d = Registry.find_exn name in
  let cfg =
    {
      D.default_config with
      D.node_bytes = (if d.D.caps.D.tunable_node_bytes then Some 256 else None);
    }
  in
  {
    label = name;
    build = d.D.build cfg;
    reopen = (if d.D.caps.D.has_recovery then Some (d.D.open_existing cfg) else None);
  }

let makers = List.map maker_of [ "wbtree"; "fptree"; "wort"; "skiplist"; "blink" ]

let test_basic m () =
  let a = mk_arena () in
  let t = m.build a in
  for k = 1 to 500 do
    t.Intf.insert k (value_of k)
  done;
  for k = 1 to 500 do
    Alcotest.(check (option int)) "find" (Some (value_of k)) (t.Intf.search k)
  done;
  Alcotest.(check (option int)) "miss" None (t.Intf.search 501)

let test_random_vs_model m () =
  let rng = Prng.create 123 in
  let a = mk_arena () in
  let t = m.build a in
  let model = Hashtbl.create 512 in
  for _ = 1 to 3000 do
    let k = 1 + Prng.int rng 5000 in
    match Prng.int rng 10 with
    | 0 | 1 ->
        let expected = Hashtbl.mem model k in
        let got = t.Intf.delete k in
        Alcotest.(check bool) "delete result" expected got;
        Hashtbl.remove model k
    | _ ->
        t.Intf.insert k (value_of k);
        Hashtbl.replace model k (value_of k)
  done;
  Hashtbl.iter
    (fun k v -> Alcotest.(check (option int)) "model" (Some v) (t.Intf.search k))
    model;
  (* negative probes *)
  for k = 5001 to 5050 do
    Alcotest.(check (option int)) "absent" None (t.Intf.search k)
  done

let test_update m () =
  let a = mk_arena () in
  let t = m.build a in
  t.Intf.insert 7 (value_of 7);
  t.Intf.insert 7 991;
  Alcotest.(check (option int)) "updated" (Some 991) (t.Intf.search 7)

let test_range m () =
  let a = mk_arena () in
  let t = m.build a in
  for k = 1 to 400 do
    t.Intf.insert (3 * k) (value_of k)
  done;
  let got = Intf.range_list t 30 90 in
  let expect = List.init 21 (fun i -> 30 + (3 * i)) in
  Alcotest.(check (list int)) "range keys" expect (List.map fst got);
  Alcotest.(check int) "range values sane" (value_of 10) (List.assoc 30 got)

let test_range_order m () =
  let rng = Prng.create 9 in
  let a = mk_arena () in
  let t = m.build a in
  let keys = Array.init 300 (fun i -> (7 * i) + 1) in
  Prng.shuffle rng keys;
  Array.iter (fun k -> t.Intf.insert k (value_of k)) keys;
  let got = ref [] in
  t.Intf.range 1 10_000 (fun k _ -> got := k :: !got);
  let got = List.rev !got in
  let sorted = List.sort compare got in
  Alcotest.(check (list int)) "ascending order" sorted got;
  Alcotest.(check int) "complete" 300 (List.length got)

let test_crash_recovery m reopen () =
  (* Quiesced crash: everything inserted, drained to PM, then power
     fails; after reopen+recover all keys must be there. *)
  let a = mk_arena () in
  let t = m.build a in
  for k = 1 to 300 do
    t.Intf.insert k (value_of k)
  done;
  Arena.power_fail a Storelog.Keep_all;
  let t = reopen a in
  t.Intf.recover ();
  for k = 1 to 300 do
    Alcotest.(check (option int)) "after crash" (Some (value_of k)) (t.Intf.search k)
  done;
  (* and the index keeps working *)
  for k = 301 to 350 do
    t.Intf.insert k (value_of k)
  done;
  for k = 301 to 350 do
    Alcotest.(check (option int)) "post-recovery insert" (Some (value_of k)) (t.Intf.search k)
  done

let test_crash_midstream m reopen () =
  (* Crash at arbitrary store counts during a load; all committed keys
     (ops that returned) must survive under the TSO prefix model. *)
  List.iter
    (fun at ->
      let a = mk_arena () in
      let t = m.build a in
      let committed = ref [] in
      ignore
        (crash_at a at (fun () ->
             for k = 1 to 400 do
               t.Intf.insert k (value_of k);
               committed := k :: !committed
             done));
      Arena.power_fail a Storelog.Keep_all;
      let t = reopen a in
      t.Intf.recover ();
      List.iter
        (fun k ->
          Alcotest.(check (option int))
            (Printf.sprintf "crash@%d key %d" at k)
            (Some (value_of k)) (t.Intf.search k))
        !committed)
    [ 50; 200; 500; 1500; 4000 ]

let test_wort_prefix_splits () =
  (* Keys engineered to force deep prefix sharing and splits. *)
  let a = mk_arena () in
  let w = Ff_wort.Wort.create a in
  let keys =
    [ 0x1111111111111; 0x1111111111112; 0x1111111112222; 0x1111222222222;
      0x2000000000001; 1; 2; (1 lsl 59) + 5 ]
  in
  List.iter (fun k -> Ff_wort.Wort.insert w ~key:k ~value:(value_of k)) keys;
  List.iter
    (fun k ->
      Alcotest.(check (option int)) "wort deep" (Some (value_of k)) (Ff_wort.Wort.search w k))
    keys;
  Alcotest.(check (option int)) "wort miss" None (Ff_wort.Wort.search w 0x1111111111113)

let test_wort_key_bounds () =
  let a = mk_arena () in
  let w = Ff_wort.Wort.create a in
  Alcotest.check_raises "key too large" (Invalid_argument "Wort: key must be in [1, 2^60)")
    (fun () -> Ff_wort.Wort.insert w ~key:(1 lsl 60) ~value:1)

let test_fptree_fingerprint_collisions () =
  (* Keys with colliding fingerprints must still resolve by key. *)
  let a = mk_arena () in
  let t = Ff_fptree.Fptree.create ~leaf_bytes:256 a in
  (* find two keys with the same fingerprint *)
  let fp k = let z = k * 0x9E3779B9 in let z = z lxor (z lsr 17) in z land 0x7f in
  let k1 = 1 in
  let k2 =
    let rec find k = if fp k = fp k1 && k <> k1 then k else find (k + 1) in
    find 2
  in
  Ff_fptree.Fptree.insert t ~key:k1 ~value:(value_of k1);
  Ff_fptree.Fptree.insert t ~key:k2 ~value:(value_of k2);
  Alcotest.(check (option int)) "k1" (Some (value_of k1)) (Ff_fptree.Fptree.search t k1);
  Alcotest.(check (option int)) "k2" (Some (value_of k2)) (Ff_fptree.Fptree.search t k2)

let test_skiplist_structure () =
  let a = mk_arena () in
  let s = Ff_skiplist.Skiplist.create a in
  for k = 1 to 200 do
    Ff_skiplist.Skiplist.insert s ~key:k ~value:(value_of k)
  done;
  Alcotest.(check int) "length" 200 (Ff_skiplist.Skiplist.length s);
  ignore (Ff_skiplist.Skiplist.delete s 100);
  Alcotest.(check int) "length after delete" 199 (Ff_skiplist.Skiplist.length s)

let test_wbtree_invariants () =
  let a = mk_arena () in
  let w = Ff_wbtree.Wbtree.create ~node_bytes:256 a in
  let rng = Prng.create 4 in
  let keys = Array.init 800 (fun i -> i + 1) in
  Prng.shuffle rng keys;
  Array.iter (fun k -> Ff_wbtree.Wbtree.insert w ~key:k ~value:(value_of k)) keys;
  Alcotest.(check (list string)) "invariants" [] (Ff_wbtree.Wbtree.check w);
  Alcotest.(check bool) "height grew" true (Ff_wbtree.Wbtree.height w >= 2)

(* A torn image can link a sibling chain back into itself: every
   sibling walk must stop at the arena's node count and raise, not
   spin. *)
let test_wbtree_sibling_cycle () =
  let a = mk_arena () in
  let w = Ff_wbtree.Wbtree.create ~node_bytes:256 a in
  for k = 1 to 5 do
    Ff_wbtree.Wbtree.insert w ~key:k ~value:(value_of k)
  done;
  let leaf = Arena.root_get a 4 in
  Arena.write a (leaf + 2) leaf;
  let cycle = Failure "Wbtree: sibling cycle" in
  Alcotest.check_raises "search" cycle (fun () -> ignore (Ff_wbtree.Wbtree.search w 100));
  Alcotest.check_raises "range" cycle (fun () ->
      Ff_wbtree.Wbtree.range w ~lo:1 ~hi:100 (fun _ _ -> ()));
  Alcotest.check_raises "check" cycle (fun () -> ignore (Ff_wbtree.Wbtree.check w))

let test_flush_counts_ranking () =
  (* Paper Section 5.2/5.4: wB+-tree issues substantially more flushes
     per insert than FAST+FAIR; WORT issues fewer. *)
  let count_flushes build =
    let a = mk_arena () in
    let t = build a in
    for k = 1 to 50 do
      t.Intf.insert (k * 977) (value_of k)
    done;
    Arena.reset_stats a;
    for k = 1 to 500 do
      t.Intf.insert ((k * 7919) mod 100_000 + 100) (value_of (k + 50))
    done;
    float_of_int (Arena.total_stats a).Stats.flushes /. 500.
  in
  let ff a = Ff_fastfair.Tree.ops (Ff_fastfair.Tree.create ~node_bytes:512 a) in
  let wb a = Ff_wbtree.Wbtree.ops (Ff_wbtree.Wbtree.create ~node_bytes:1024 a) in
  let wo a = Ff_wort.Wort.ops (Ff_wort.Wort.create a) in
  let f_ff = count_flushes ff and f_wb = count_flushes wb and f_wo = count_flushes wo in
  Alcotest.(check bool)
    (Printf.sprintf "wbtree (%.2f) > fastfair (%.2f)" f_wb f_ff)
    true (f_wb > f_ff);
  Alcotest.(check bool)
    (Printf.sprintf "wort (%.2f) < fastfair (%.2f)" f_wo f_ff)
    true (f_wo < f_ff)

let per_maker_tests m =
  let base =
    [
      Alcotest.test_case (m.label ^ " basic") `Quick (test_basic m);
      Alcotest.test_case (m.label ^ " vs model") `Quick (test_random_vs_model m);
      Alcotest.test_case (m.label ^ " update") `Quick (test_update m);
      Alcotest.test_case (m.label ^ " range") `Quick (test_range m);
      Alcotest.test_case (m.label ^ " range order") `Quick (test_range_order m);
    ]
  in
  match m.reopen with
  | None -> base
  | Some reopen ->
      base
      @ [
          Alcotest.test_case (m.label ^ " crash recovery") `Quick (test_crash_recovery m reopen);
          Alcotest.test_case (m.label ^ " crash midstream") `Quick (test_crash_midstream m reopen);
        ]

let suite =
  List.concat_map per_maker_tests makers
  @ [
      Alcotest.test_case "wort prefix splits" `Quick test_wort_prefix_splits;
      Alcotest.test_case "wort key bounds" `Quick test_wort_key_bounds;
      Alcotest.test_case "fptree fp collisions" `Quick test_fptree_fingerprint_collisions;
      Alcotest.test_case "skiplist structure" `Quick test_skiplist_structure;
      Alcotest.test_case "wbtree invariants" `Quick test_wbtree_invariants;
      Alcotest.test_case "wbtree sibling cycle" `Quick test_wbtree_sibling_cycle;
      Alcotest.test_case "flush-count ranking" `Quick test_flush_counts_ranking;
    ]

(* Fine-grained crash enumeration of a wB+-tree insert that triggers a
   logged split: its redo log must make every crash point recoverable. *)
let test_wbtree_split_crash_enum () =
  let a0 = mk_arena () in
  let w0 = Ff_wbtree.Wbtree.create ~node_bytes:256 a0 in
  let setup = List.init 8 (fun i -> (i + 1) * 10) in
  List.iter (fun k -> Ff_wbtree.Wbtree.insert w0 ~key:k ~value:(value_of k)) setup;
  let reopen = Ff_wbtree.Wbtree.open_existing ~node_bytes:256 in
  let insert wc = Ff_wbtree.Wbtree.insert wc ~key:45 ~value:(value_of 45) in
  let total =
    crash_every a0 ~reopen insert (fun k crash ->
        let wc = reopen (crash Storelog.Keep_none) in
        Ff_wbtree.Wbtree.recover wc;
        List.iter
          (fun key ->
            Alcotest.(check (option int))
              (Printf.sprintf "wbtree crash@%d key %d" k key)
              (Some (value_of key))
              (Ff_wbtree.Wbtree.search wc key))
          setup;
        Alcotest.(check (list string))
          (Printf.sprintf "wbtree crash@%d invariants" k)
          [] (Ff_wbtree.Wbtree.check wc))
  in
  Alcotest.(check bool) "split happened (many stores)" true (total > 30)

(* FP-tree micro-log: crash the leaf split at every store; after
   recovery (log replay + inner rebuild) nothing committed is lost and
   nothing appears twice. *)
let test_fptree_split_crash_enum () =
  let a0 = mk_arena () in
  let f0 = Ff_fptree.Fptree.create ~leaf_bytes:256 a0 in
  let setup = List.init 8 (fun i -> (i + 1) * 10) in
  List.iter (fun k -> Ff_fptree.Fptree.insert f0 ~key:k ~value:(value_of k)) setup;
  let reopen c =
    let fc = Ff_fptree.Fptree.open_existing ~leaf_bytes:256 c in
    Ff_fptree.Fptree.recover fc;
    fc
  in
  let insert fc = Ff_fptree.Fptree.insert fc ~key:45 ~value:(value_of 45) in
  ignore
    (crash_every a0 ~reopen insert (fun k crash ->
         let fc = reopen (crash Storelog.Keep_all) in
         List.iter
           (fun key ->
             Alcotest.(check (option int))
               (Printf.sprintf "fptree crash@%d key %d" k key)
               (Some (value_of key))
               (Ff_fptree.Fptree.search fc key))
           setup;
         (* no duplicates: a full scan returns each key once *)
         let seen = Hashtbl.create 16 in
         let dups = ref 0 in
         Ff_fptree.Fptree.range fc ~lo:1 ~hi:1000 (fun key _ ->
             if Hashtbl.mem seen key then incr dups else Hashtbl.replace seen key ());
         Alcotest.(check int) (Printf.sprintf "fptree crash@%d no dups" k) 0 !dups))

let crash_enum_tests =
  [
    Alcotest.test_case "wbtree split crash enum" `Quick test_wbtree_split_crash_enum;
    Alcotest.test_case "fptree split crash enum" `Quick test_fptree_split_crash_enum;
  ]

let suite = suite @ crash_enum_tests
