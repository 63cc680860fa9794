(* Extensions beyond the released implementation: crash-safe merging
   (Compact), cursors, bottom-up bulk loading, and the negative
   control showing why FAST's store ordering is required. *)

open Ff_pmem
open Ff_fastfair
open Crash_util
module Prng = Ff_util.Prng

let value_of k = (2 * k) + 1

let mk_arena ?(words = 1 lsl 21) () = Arena.create ~words ()

(* ------------------------------------------------------------------ *)
(* Compact                                                             *)
(* ------------------------------------------------------------------ *)

let load_tree ?(node_bytes = 128) n =
  let a = mk_arena () in
  let t = Tree.create ~node_bytes a in
  for k = 1 to n do
    Tree.insert t ~key:k ~value:(value_of k)
  done;
  (a, t)

let test_compact_after_mass_delete () =
  let _, t = load_tree 1000 in
  for k = 1 to 1000 do
    if k mod 10 <> 0 then ignore (Tree.delete t k)
  done;
  let nodes_before = List.length (Tree.reachable_nodes t) in
  let freed = Compact.compact t in
  let nodes_after = List.length (Tree.reachable_nodes t) in
  Alcotest.(check bool) "freed nodes" true (freed > 0);
  Alcotest.(check bool) "fewer nodes" true (nodes_after < nodes_before);
  for k = 1 to 1000 do
    let expect = if k mod 10 = 0 then Some (value_of k) else None in
    Alcotest.(check (option int)) "post-compact search" expect (Tree.search t k)
  done;
  Invariant.check_exn t

let test_compact_shrinks_height () =
  let _, t = load_tree 1000 in
  let h0 = Tree.height t in
  for k = 1 to 995 do
    ignore (Tree.delete t k)
  done;
  ignore (Compact.compact t);
  Alcotest.(check bool) "height shrank" true (Tree.height t < h0);
  for k = 996 to 1000 do
    Alcotest.(check (option int)) "survivors" (Some (value_of k)) (Tree.search t k)
  done;
  Invariant.check_exn t

let test_compact_noop_on_full_tree () =
  let _, t = load_tree 500 in
  let keys_before = Invariant.keys t in
  ignore (Compact.compact t);
  Alcotest.(check (list int)) "keys unchanged" keys_before (Invariant.keys t);
  Invariant.check_exn t

let test_compact_keeps_working () =
  let _, t = load_tree 600 in
  for k = 1 to 600 do
    if k mod 3 <> 0 then ignore (Tree.delete t k)
  done;
  ignore (Compact.compact t);
  (* tree keeps accepting operations after compaction *)
  for k = 601 to 900 do
    Tree.insert t ~key:k ~value:(value_of k)
  done;
  for k = 601 to 900 do
    Alcotest.(check (option int)) "post-compact insert" (Some (value_of k)) (Tree.search t k)
  done;
  Invariant.check_exn t

let test_compact_crash_points () =
  (* Crash compaction before every (sampled) store: committed keys
     survive in every state, pre- and post-recovery. *)
  let a0 = mk_arena () in
  let t0 = Tree.create ~node_bytes:128 a0 in
  for k = 1 to 120 do
    Tree.insert t0 ~key:k ~value:(value_of k)
  done;
  let survivors = List.filter (fun k -> k mod 7 = 0) (List.init 120 (fun i -> i + 1)) in
  for k = 1 to 120 do
    if k mod 7 <> 0 then ignore (Tree.delete t0 k)
  done;
  let reopen = Tree.open_existing ~node_bytes:128 in
  let compact tc = ignore (Compact.compact tc) in
  let total = stores_of a0 ~reopen compact in
  Alcotest.(check bool) "compaction stores" true (total > 0);
  (* Every step-th store count, counted on one more clone. *)
  let step = max 1 (total / 80) in
  let sampled = ref 0 in
  let check k crash =
    incr sampled;
    let tc = reopen (crash (Storelog.Random_eviction (Prng.create k))) in
    (* pre-recovery reader tolerance *)
    List.iter
      (fun key ->
        Alcotest.(check (option int))
          (Printf.sprintf "compact crash@%d key %d (pre)" k key)
          (Some (value_of key)) (Tree.search tc key))
      survivors;
    Tree.recover tc;
    match Invariant.check tc with
    | [] -> ()
    | vs -> Alcotest.failf "compact crash@%d: %s" k (String.concat "; " vs)
  in
  ignore (crash_every a0 ~reopen compact (fun k crash -> if k mod step = 0 then check k crash));
  Alcotest.(check int) "crashed every step-th store count" ((total / step) + 1) !sampled

(* 40 keys with every third kept: compaction merges internal donors
   that still hold an entry, so it shifts entries out of them.  Crash
   at every store under Keep_all (every store prefix) and a random
   eviction: the survivors read back before recovery, and after it
   the tree is sound, every internal switch even included (routes read
   none). *)
let test_compact_crash_internal_donor () =
  let a0 = mk_arena () in
  let t0 = Tree.create ~node_bytes:128 a0 in
  for k = 1 to 40 do
    Tree.insert t0 ~key:k ~value:(value_of k)
  done;
  for k = 1 to 40 do
    if k mod 3 <> 0 then ignore (Tree.delete t0 k)
  done;
  let survivors = List.init 13 (fun i -> 3 * (i + 1)) in
  let reopen = Tree.open_existing ~node_bytes:128 in
  let compact tc = ignore (Compact.compact tc) in
  ignore
    (crash_every a0 ~reopen compact (fun k crash ->
         List.iter
           (fun mode ->
             let tc = reopen (crash mode) in
             List.iter
               (fun key ->
                 Alcotest.(check (option int))
                   (Printf.sprintf "crash@%d key %d (pre)" k key)
                   (Some (value_of key)) (Tree.search tc key))
               survivors;
             Tree.recover tc;
             match Invariant.check tc with
             | [] -> ()
             | vs -> Alcotest.failf "crash@%d: %s" k (String.concat "; " vs))
           [ Storelog.Keep_all; Storelog.Random_eviction (Prng.create k) ]))

(* ------------------------------------------------------------------ *)
(* Cursor                                                              *)
(* ------------------------------------------------------------------ *)

let test_cursor_full_scan () =
  let _, t = load_tree 500 in
  let c = Cursor.create t ~lo:1 in
  let rec collect acc =
    match Cursor.next c with Some (k, _) -> collect (k :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list int)) "all keys in order" (List.init 500 (fun i -> i + 1))
    (collect [])

let test_cursor_seek () =
  let _, t = load_tree 100 in
  let c = Cursor.create t ~lo:1 in
  Cursor.seek c 42;
  (match Cursor.next c with
  | Some (42, v) -> Alcotest.(check int) "value" (value_of 42) v
  | Some (k, _) -> Alcotest.failf "expected 42, got %d" k
  | None -> Alcotest.fail "expected a key");
  Cursor.seek c 1000;
  Alcotest.(check bool) "past end" true (Cursor.next c = None)

let test_cursor_fold () =
  let _, t = load_tree 200 in
  let sum = Cursor.fold t ~lo:50 ~hi:60 ~init:0 (fun acc k _ -> acc + k) in
  Alcotest.(check int) "fold sum" (List.fold_left ( + ) 0 (List.init 11 (fun i -> 50 + i)))
    sum

let test_cursor_survives_mutation () =
  (* Inserting and deleting between next() calls must not derail an
     in-progress cursor (same tolerance as lock-free search). *)
  let _, t = load_tree 100 in
  let c = Cursor.create t ~lo:1 in
  let seen = ref [] in
  for _ = 1 to 50 do
    match Cursor.next c with
    | Some (k, _) -> seen := k :: !seen
    | None -> ()
  done;
  (* mutate around the cursor position *)
  Tree.insert t ~key:1000 ~value:(value_of 1000);
  ignore (Tree.delete t 60);
  for _ = 1 to 100 do
    match Cursor.next c with
    | Some (k, _) -> seen := k :: !seen
    | None -> ()
  done;
  let seen = List.rev !seen in
  (* strictly ascending, no duplicates *)
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ascending" true (ascending seen);
  Alcotest.(check bool) "saw the new tail key" true (List.mem 1000 seen);
  Alcotest.(check bool) "did not resurrect deleted 60 twice" true
    (List.length (List.filter (fun k -> k = 60) seen) <= 1)

(* ------------------------------------------------------------------ *)
(* Bulk load                                                           *)
(* ------------------------------------------------------------------ *)

let test_bulk_load_basic () =
  let a = mk_arena () in
  let rng = Prng.create 3 in
  let keys = Ff_workload.Workload.distinct_uniform rng ~n:5000 ~space:50_000 in
  let pairs = Array.map (fun k -> (k, value_of k)) keys in
  let t = Bulk.load ~node_bytes:256 a pairs in
  Array.iter
    (fun k ->
      Alcotest.(check (option int)) "bulk search" (Some (value_of k)) (Tree.search t k))
    keys;
  Alcotest.(check (option int)) "bulk miss" None (Tree.search t 50_001);
  Alcotest.(check int) "key count" 5000 (List.length (Invariant.keys t));
  Invariant.check_exn t

let test_bulk_load_then_mutate () =
  let a = mk_arena () in
  let pairs = Array.init 2000 (fun i -> ((2 * i) + 2, value_of (i + 1))) in
  let t = Bulk.load ~node_bytes:128 a pairs in
  (* odd keys go in incrementally, splits and all *)
  for k = 0 to 499 do
    Tree.insert t ~key:((4 * k) + 1) ~value:(value_of (3000 + k))
  done;
  for k = 0 to 499 do
    Alcotest.(check (option int)) "incremental over bulk"
      (Some (value_of (3000 + k)))
      (Tree.search t ((4 * k) + 1))
  done;
  ignore (Tree.delete t 2);
  Alcotest.(check (option int)) "delete over bulk" None (Tree.search t 2);
  Invariant.check_exn t

let test_bulk_load_crash_atomicity () =
  (* Anything before the root-slot store must leave the arena's old
     root untouched. *)
  let a = mk_arena () in
  let pairs = Array.init 500 (fun i -> (i + 1, value_of (i + 1))) in
  let load c = ignore (Bulk.load ~node_bytes:128 c pairs) in
  let probe = stores_of a ~reopen:Fun.id load in
  ignore
    (crash_every a ~reopen:Fun.id load (fun k crash ->
         (* crash in the middle of the build *)
         if k = probe / 2 then
           Alcotest.(check int) "root slot still empty" 0
             (Arena.root_get (crash Storelog.Keep_none) 0);
         (* crash after: everything present *)
         if k = probe then begin
           let t2 = Tree.open_existing ~node_bytes:128 (crash Storelog.Keep_none) in
           for k = 1 to 500 do
             Alcotest.(check (option int)) "bulk survives crash" (Some (value_of k))
               (Tree.search t2 k)
           done
         end))

(* A 1000-pair input with pair [i] replaced by [p]. *)
let bulk_load_with i p () =
  let keys = Ff_workload.Workload.distinct_uniform (Prng.create 8) ~n:1000 ~space:100_000 in
  let pairs = Array.map (fun k -> (k, value_of k)) keys in
  pairs.(i) <- p (keys.(0), keys.(700));
  ignore (Bulk.load (mk_arena ()) pairs)

let test_bulk_load_rejects_duplicates () =
  let a = mk_arena () in
  let dup = Invalid_argument "Bulk.load: duplicate key" in
  Alcotest.check_raises "duplicate keys" dup (fun () ->
      ignore (Bulk.load a [| (1, 3); (1, 5) |]));
  Alcotest.check_raises "duplicate far apart" dup (bulk_load_with 999 (fun (k0, _) -> (k0, 7)))

(* Each fault alone still raises its own message. *)
let test_bulk_load_rejects_invalid_pairs () =
  let key = Invalid_argument "Bulk.load: keys must be positive" in
  Alcotest.check_raises "zero key" key (bulk_load_with 500 (fun _ -> (0, 7)));
  Alcotest.check_raises "negative key" key (bulk_load_with 3 (fun _ -> (-5, 7)));
  Alcotest.check_raises "zero value" (Invalid_argument "Bulk.load: values must be nonzero")
    (bulk_load_with 700 (fun (_, k700) -> (k700, 0)))

let test_bulk_load_empty_and_tiny () =
  let a = mk_arena () in
  let t = Bulk.load ~root_slot:0 a [||] in
  Alcotest.(check (option int)) "empty" None (Tree.search t 1);
  Tree.insert t ~key:5 ~value:11;
  Alcotest.(check (option int)) "insert into empty bulk" (Some 11) (Tree.search t 5);
  let a2 = mk_arena () in
  let t2 = Bulk.load a2 [| (9, 19) |] in
  Alcotest.(check (option int)) "singleton" (Some 19) (Tree.search t2 9)

(* Keys that differ only above the low 16 bits: a sort that skips a
   radix digit misorders them. *)
let test_bulk_load_every_digit () =
  let a = mk_arena () in
  let spread = Array.init 200 (fun i -> (i + 1) * (max_int / 201)) in
  let keys =
    Array.append [| (1 lsl 48) + 5; 1; max_int; (1 lsl 32) + 1; 1 lsl 16 |] spread
  in
  Prng.shuffle (Prng.create 5) keys;
  let t = Bulk.load ~node_bytes:128 a (Array.mapi (fun i k -> (k, i + 1)) keys) in
  Array.iteri
    (fun i k -> Alcotest.(check (option int)) "every digit" (Some (i + 1)) (Tree.search t k))
    keys;
  Alcotest.(check (list int)) "sorted" (List.sort compare (Array.to_list keys))
    (Invariant.keys t);
  Invariant.check_exn t

(* The loader's simulated work, pinned: every charged access and flush
   of a fixed 20k-pair load, and nothing left pending afterwards.  With
   a 512-line cache the misses of the load, and of the searches right
   after it, also pin the order in which the loader touched lines.  A
   search checks the slot it uses (left pointer, own pointer, key
   again): 3 loads per internal level whose route stops at a greater
   key, 2 more at the leaf than the old key re-read, and 1 for the
   leaf's low key, all line hits. *)
let test_bulk_load_same_work () =
  let keys = Ff_workload.Workload.distinct_uniform (Prng.create 20) ~n:20_000 ~space:1_000_000 in
  let load config =
    let a = Arena.create ~config ~words:(1 lsl 18) () in
    let t = Bulk.load a (Array.map (fun k -> (k, value_of k)) keys) in
    (a, t)
  in
  let counts a =
    let s = Arena.total_stats a in
    Stats.
      [ s.loads; s.stores; s.flushes; s.fences; s.line_hits; s.line_misses; s.seq_misses;
        total_ns s; Arena.dirty_line_count a ]
  in
  let pm, _ = load (Config.pm ()) in
  Alcotest.(check (list int)) "pm arena"
    [ 1860; 107259; 7281; 7282; 1860; 0; 0; 2293427; 0 ] (counts pm);
  let small, t = load { (Config.pm ()) with Config.cache_lines = 512 } in
  Alcotest.(check (list int)) "512-line cache"
    [ 1860; 107259; 7281; 7282; 788; 1072; 0; 2613955; 0 ] (counts small);
  Arena.reset_stats small;
  Array.iter (fun k -> ignore (Tree.search t k)) (Array.sub keys 0 2000);
  Alcotest.(check (list int)) "searches after"
    [ 156577; 0; 0; 0; 146230; 10347; 7701; 1517605; 0 ] (counts small)

(* ------------------------------------------------------------------ *)
(* Negative control: the naive unordered shift corrupts crash states   *)
(* ------------------------------------------------------------------ *)

let test_unordered_insert_is_not_endurable () =
  (* With key-before-pointer stores and no boundary flushes, some
     crash prefix must yield a wrong read — demonstrating that FAST's
     ordering is what provides endurability, not the simulator. *)
  let violations = ref 0 in
  let l = Layout.make ~node_bytes:256 in
  let a0 = Arena.create ~words:(1 lsl 14) () in
  let n = Arena.alloc a0 l.Layout.node_words in
  Node.init a0 l n ~level:0 ~leftmost:0 ~low:0;
  List.iter
    (fun k ->
      Node.insert_nonfull a0 l n ~count:(Node.count a0 l n) ~key:k ~value:(value_of k))
    [ 10; 20; 30; 40; 50; 60; 70 ];
  let run c = Node.insert_nonfull_unordered c l n ~key:25 ~value:(value_of 25) in
  ignore
    (crash_every a0 ~reopen:Fun.id run (fun _ crash ->
         let c = crash Storelog.Keep_all in
         List.iter
           (fun key ->
             match Node.search c l n ~mode:Node.Linear key with
             | Some v when v = value_of key -> ()
             | Some _ | None -> incr violations)
           [ 10; 20; 30; 40; 50; 60; 70 ]));
  Alcotest.(check bool)
    (Printf.sprintf "unordered shift corrupts some crash state (%d violations)" !violations)
    true (!violations > 0)

let suite =
  [
    Alcotest.test_case "compact after mass delete" `Quick test_compact_after_mass_delete;
    Alcotest.test_case "compact shrinks height" `Quick test_compact_shrinks_height;
    Alcotest.test_case "compact noop when full" `Quick test_compact_noop_on_full_tree;
    Alcotest.test_case "compact keeps working" `Quick test_compact_keeps_working;
    Alcotest.test_case "compact crash points" `Quick test_compact_crash_points;
    Alcotest.test_case "compact crash: internal donor" `Quick
      test_compact_crash_internal_donor;
    Alcotest.test_case "cursor full scan" `Quick test_cursor_full_scan;
    Alcotest.test_case "cursor seek" `Quick test_cursor_seek;
    Alcotest.test_case "cursor fold" `Quick test_cursor_fold;
    Alcotest.test_case "cursor vs mutation" `Quick test_cursor_survives_mutation;
    Alcotest.test_case "bulk load basic" `Quick test_bulk_load_basic;
    Alcotest.test_case "bulk load then mutate" `Quick test_bulk_load_then_mutate;
    Alcotest.test_case "bulk load crash atomicity" `Quick test_bulk_load_crash_atomicity;
    Alcotest.test_case "bulk load duplicates" `Quick test_bulk_load_rejects_duplicates;
    Alcotest.test_case "bulk load invalid pairs" `Quick test_bulk_load_rejects_invalid_pairs;
    Alcotest.test_case "bulk load empty/tiny" `Quick test_bulk_load_empty_and_tiny;
    Alcotest.test_case "bulk load every radix digit" `Quick test_bulk_load_every_digit;
    Alcotest.test_case "bulk load same work" `Quick test_bulk_load_same_work;
    Alcotest.test_case "unordered insert not endurable" `Quick test_unordered_insert_is_not_endurable;
  ]
