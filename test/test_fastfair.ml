(* FAST+FAIR correctness: node-level FAST semantics, tree-level
   model-based checks, and the paper's central claim — every 8-byte
   store prefix leaves a state that readers tolerate and recovery can
   repair without logs. *)

open Ff_pmem
open Ff_fastfair
module Prng = Ff_util.Prng

let value_of k = (2 * k) + 1 (* odd, unique, never collides with node addrs *)

let mk_arena ?(config = Config.default) ?(words = 1 lsl 18) () =
  Arena.create ~config ~words ()

let mk_tree ?config ?words ?(node_bytes = 512) ?(mode = Node.Linear)
    ?(split_policy = Tree.Fair) () =
  let a = mk_arena ?config ?words () in
  let t = Tree.create ~node_bytes ~mode ~split_policy a in
  (a, t)

(* ------------------------------------------------------------------ *)
(* Node-level tests                                                    *)
(* ------------------------------------------------------------------ *)

let mk_node ?(node_bytes = 512) () =
  let a = mk_arena ~words:(1 lsl 14) () in
  let l = Layout.make ~node_bytes in
  let n = Arena.alloc a l.Layout.node_words in
  Node.init a l n ~level:0 ~leftmost:0 ~low:0;
  (a, l, n)

let test_node_insert_ascending () =
  let a, l, n = mk_node () in
  for k = 1 to l.Layout.capacity - 1 do
    Node.insert_nonfull a l n ~key:k ~value:(value_of k) ~mode:Node.Linear
  done;
  Alcotest.(check int) "count" (l.Layout.capacity - 1) (Node.count a l n);
  for k = 1 to l.Layout.capacity - 1 do
    Alcotest.(check (option int)) "find" (Some (value_of k))
      (Node.search a l n ~mode:Node.Linear k)
  done

let test_node_insert_descending () =
  let a, l, n = mk_node () in
  for k = 20 downto 1 do
    Node.insert_nonfull a l n ~key:k ~value:(value_of k) ~mode:Node.Linear
  done;
  let entries = Node.entries_debug a l n in
  Alcotest.(check (list int)) "sorted"
    (List.init 20 (fun i -> i + 1))
    (List.map fst entries)

let test_node_insert_random_order () =
  let rng = Prng.create 5 in
  let a, l, n = mk_node () in
  let keys = Array.init 25 (fun i -> (i * 3) + 1) in
  Prng.shuffle rng keys;
  Array.iter (fun k -> Node.insert_nonfull a l n ~key:k ~value:(value_of k) ~mode:Node.Linear) keys;
  let entries = Node.entries_debug a l n in
  Alcotest.(check int) "count" 25 (List.length entries);
  let sorted = List.sort compare (Array.to_list keys) in
  Alcotest.(check (list int)) "sorted entries" sorted (List.map fst entries)

let test_node_delete_and_search () =
  let a, l, n = mk_node () in
  for k = 1 to 20 do
    Node.insert_nonfull a l n ~key:k ~value:(value_of k) ~mode:Node.Linear
  done;
  Alcotest.(check bool) "delete 10" true (Node.delete a l n 10);
  Alcotest.(check bool) "delete again" false (Node.delete a l n 10);
  Alcotest.(check (option int)) "10 gone" None (Node.search a l n ~mode:Node.Linear 10);
  Alcotest.(check (option int)) "11 remains" (Some (value_of 11))
    (Node.search a l n ~mode:Node.Linear 11);
  Alcotest.(check int) "count" 19 (Node.count a l n);
  (* the switch counter is now odd: right-to-left reads *)
  Alcotest.(check bool) "switch odd" true (Layout.switch a n land 1 = 1)

let test_node_update_value () =
  let a, l, n = mk_node () in
  Node.insert_nonfull a l n ~key:5 ~value:(value_of 5) ~mode:Node.Linear;
  (match Node.find_exact a l n 5 with
  | Some pos -> Node.update_value a l n ~pos ~value:999
  | None -> Alcotest.fail "key missing");
  Alcotest.(check (option int)) "updated" (Some 999) (Node.search a l n ~mode:Node.Linear 5)

let test_node_zero_terminator_invariant () =
  let a, l, n = mk_node ~node_bytes:128 () in
  for k = 1 to l.Layout.capacity - 1 do
    Node.insert_nonfull a l n ~key:k ~value:(value_of k) ~mode:Node.Linear
  done;
  Node.truncate_from a l n 1;
  for i = 1 to l.Layout.capacity - 1 do
    Alcotest.(check int) "zeroed beyond truncation" 0 (Arena.peek a (n + Layout.ptr_off i))
  done;
  Alcotest.(check int) "count" 1 (Node.count a l n)

let test_node_binary_search () =
  let a, l, n = mk_node () in
  for k = 1 to 20 do
    Node.insert_nonfull a l n ~key:(2 * k) ~value:(value_of k) ~mode:Node.Binary
  done;
  for k = 1 to 20 do
    Alcotest.(check (option int)) "binary find" (Some (value_of k))
      (Node.search a l n ~mode:Node.Binary (2 * k))
  done;
  Alcotest.(check (option int)) "binary miss" None (Node.search a l n ~mode:Node.Binary 7)

(* The paper's node-level crash claim: enumerate a crash before every
   store of a FAST insert/delete; in every resulting state all
   previously committed keys must read back correctly, and writer_fix
   must restore a clean node. *)
let node_crash_enumeration op_name setup op committed in_flight =
  let a0, l, n = mk_node ~node_bytes:256 () in
  setup a0 l n;
  Arena.drain a0;
  let probe_stores () =
    let c = Arena.clone a0 in
    let before = Arena.store_count c in
    op c l n;
    Arena.store_count c - before
  in
  let total = probe_stores () in
  Alcotest.(check bool) (op_name ^ ": op does stores") true (total > 0);
  let modes =
    [
      ("keep_none", fun () -> Storelog.Keep_none);
      ("keep_all", fun () -> Storelog.Keep_all);
      ("random", fun () -> Storelog.Random_eviction (Prng.create 99));
    ]
  in
  for k = 0 to total do
    List.iter
      (fun (mode_name, mode) ->
        let c = Arena.clone a0 in
        Arena.set_crash_plan c (Arena.After_stores (Arena.store_count c + k));
        let crashed = try op c l n; false with Arena.Crashed -> true in
        if k < total then
          Alcotest.(check bool)
            (Printf.sprintf "%s: crash fires at %d" op_name k)
            true crashed;
        Arena.power_fail c (mode ());
        (* Reader tolerance, before any repair. *)
        List.iter
          (fun (key, v) ->
            Alcotest.(check (option int))
              (Printf.sprintf "%s/%s k=%d committed key %d" op_name mode_name k key)
              (Some v)
              (Node.search c l n ~mode:Node.Linear key))
          (committed k);
        (* The in-flight key must be absent or carry the right value. *)
        (match in_flight with
        | None -> ()
        | Some (key, expect) -> (
            match Node.search c l n ~mode:Node.Linear key with
            | None -> ()
            | Some v ->
                Alcotest.(check int)
                  (Printf.sprintf "%s/%s k=%d in-flight key atomic" op_name mode_name k)
                  expect v));
        (* Repair must produce a clean node. *)
        ignore (Node.writer_fix c l n);
        let entries = Node.entries_debug c l n in
        let keys = List.map fst entries in
        let sorted = List.sort_uniq compare keys in
        Alcotest.(check (list int))
          (Printf.sprintf "%s/%s k=%d clean after fix" op_name mode_name k)
          sorted keys)
      modes
  done

let test_node_crash_insert_middle () =
  let setup a l n =
    List.iter
      (fun k -> Node.insert_nonfull a l n ~key:k ~value:(value_of k) ~mode:Node.Linear)
      [ 10; 20; 30; 40; 50; 60; 70 ]
  in
  let op a l n = Node.insert_nonfull a l n ~key:25 ~value:(value_of 25) ~mode:Node.Linear in
  let committed _ = List.map (fun k -> (k, value_of k)) [ 10; 20; 30; 40; 50; 60; 70 ] in
  node_crash_enumeration "insert-mid" setup op committed (Some (25, value_of 25))

let test_node_crash_insert_head () =
  let setup a l n =
    List.iter
      (fun k -> Node.insert_nonfull a l n ~key:k ~value:(value_of k) ~mode:Node.Linear)
      [ 10; 20; 30 ]
  in
  let op a l n = Node.insert_nonfull a l n ~key:5 ~value:(value_of 5) ~mode:Node.Linear in
  let committed _ = List.map (fun k -> (k, value_of k)) [ 10; 20; 30 ] in
  node_crash_enumeration "insert-head" setup op committed (Some (5, value_of 5))

let test_node_crash_insert_tail () =
  let setup a l n =
    List.iter
      (fun k -> Node.insert_nonfull a l n ~key:k ~value:(value_of k) ~mode:Node.Linear)
      [ 10; 20; 30 ]
  in
  let op a l n = Node.insert_nonfull a l n ~key:99 ~value:(value_of 99) ~mode:Node.Linear in
  let committed _ = List.map (fun k -> (k, value_of k)) [ 10; 20; 30 ] in
  node_crash_enumeration "insert-tail" setup op committed (Some (99, value_of 99))

let test_node_crash_delete () =
  let setup a l n =
    List.iter
      (fun k -> Node.insert_nonfull a l n ~key:k ~value:(value_of k) ~mode:Node.Linear)
      [ 10; 20; 30; 40; 50; 60 ]
  in
  let op a l n = ignore (Node.delete a l n 20) in
  (* All keys except the deleted one must stay readable. *)
  let committed _ = List.map (fun k -> (k, value_of k)) [ 10; 30; 40; 50; 60 ] in
  node_crash_enumeration "delete" setup op committed (Some (20, value_of 20))

let test_node_crash_delete_empty_node_edge () =
  let setup a l n = Node.insert_nonfull a l n ~key:7 ~value:(value_of 7) ~mode:Node.Linear in
  let op a l n = ignore (Node.delete a l n 7) in
  let committed _ = [] in
  node_crash_enumeration "delete-last" setup op committed (Some (7, value_of 7))

(* Non-TSO: with the dmb fences active (Config.arm), non-TSO crash
   states must still be tolerable. *)
let test_node_crash_non_tso_with_fences () =
  let config = Config.arm () in
  let a0 = Arena.create ~config ~words:(1 lsl 14) () in
  let l = Layout.make ~node_bytes:256 in
  let n = Arena.alloc a0 l.Layout.node_words in
  Node.init a0 l n ~level:0 ~leftmost:0 ~low:0;
  List.iter
    (fun k -> Node.insert_nonfull a0 l n ~key:k ~value:(value_of k) ~mode:Node.Linear)
    [ 10; 20; 30; 40 ];
  Arena.drain a0;
  let total =
    let c = Arena.clone a0 in
    let b = Arena.store_count c in
    Node.insert_nonfull c l n ~key:25 ~value:(value_of 25) ~mode:Node.Linear;
    Arena.store_count c - b
  in
  for k = 0 to total do
    for seed = 0 to 5 do
      let c = Arena.clone a0 in
      Arena.set_crash_plan c (Arena.After_stores (Arena.store_count c + k));
      (try Node.insert_nonfull c l n ~key:25 ~value:(value_of 25) ~mode:Node.Linear
       with Arena.Crashed -> ());
      Arena.power_fail c (Storelog.Non_tso_random (Prng.create (seed + (k * 31))));
      List.iter
        (fun key ->
          Alcotest.(check (option int))
            (Printf.sprintf "non-tso k=%d committed %d" k key)
            (Some (value_of key))
            (Node.search c l n ~mode:Node.Linear key))
        [ 10; 20; 30; 40 ]
    done
  done

(* ------------------------------------------------------------------ *)
(* Tree-level tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_tree_insert_search_small () =
  let _, t = mk_tree () in
  for k = 1 to 100 do
    Tree.insert t ~key:k ~value:(value_of k)
  done;
  for k = 1 to 100 do
    Alcotest.(check (option int)) "find" (Some (value_of k)) (Tree.search t k)
  done;
  Alcotest.(check (option int)) "miss" None (Tree.search t 101);
  Invariant.check_exn t

let test_tree_splits_and_height () =
  let _, t = mk_tree ~node_bytes:128 ~words:(1 lsl 20) () in
  for k = 1 to 2000 do
    Tree.insert t ~key:k ~value:(value_of k)
  done;
  Alcotest.(check bool) "tree grew" true (Tree.height t >= 3);
  for k = 1 to 2000 do
    Alcotest.(check (option int)) "find after splits" (Some (value_of k)) (Tree.search t k)
  done;
  Invariant.check_exn t

let test_tree_random_inserts_vs_model () =
  let rng = Prng.create 77 in
  let _, t = mk_tree ~node_bytes:256 ~words:(1 lsl 21) () in
  let model = Hashtbl.create 1024 in
  for _ = 1 to 5000 do
    let k = 1 + Prng.int rng 20000 in
    Tree.insert t ~key:k ~value:(value_of k);
    Hashtbl.replace model k (value_of k)
  done;
  Hashtbl.iter
    (fun k v -> Alcotest.(check (option int)) "model match" (Some v) (Tree.search t k))
    model;
  Alcotest.(check int) "key count" (Hashtbl.length model)
    (List.length (Invariant.keys t));
  Invariant.check_exn t

let test_tree_update_in_place () =
  let _, t = mk_tree () in
  Tree.insert t ~key:42 ~value:(value_of 42);
  Tree.insert t ~key:42 ~value:1001;
  Alcotest.(check (option int)) "updated" (Some 1001) (Tree.search t 42);
  Alcotest.(check int) "single key" 1 (List.length (Invariant.keys t))

let test_tree_delete () =
  let _, t = mk_tree ~node_bytes:128 ~words:(1 lsl 20) () in
  for k = 1 to 500 do
    Tree.insert t ~key:k ~value:(value_of k)
  done;
  for k = 1 to 500 do
    if k mod 3 = 0 then
      Alcotest.(check bool) "delete present" true (Tree.delete t k)
  done;
  Alcotest.(check bool) "delete absent" false (Tree.delete t 3);
  for k = 1 to 500 do
    let expect = if k mod 3 = 0 then None else Some (value_of k) in
    Alcotest.(check (option int)) "post-delete search" expect (Tree.search t k)
  done;
  Invariant.check_exn t

let test_tree_range () =
  let _, t = mk_tree ~node_bytes:128 ~words:(1 lsl 20) () in
  for k = 1 to 300 do
    Tree.insert t ~key:(2 * k) ~value:(value_of k)
  done;
  let acc = ref [] in
  Tree.range t ~lo:100 ~hi:200 (fun k _ -> acc := k :: !acc);
  let got = List.rev !acc in
  let expect = List.init 51 (fun i -> 100 + (2 * i)) in
  Alcotest.(check (list int)) "range keys" expect got;
  (* open-ended corners *)
  let n = ref 0 in
  Tree.range t ~lo:0 ~hi:10_000 (fun _ _ -> incr n);
  Alcotest.(check int) "full range" 300 !n;
  let n = ref 0 in
  Tree.range t ~lo:601 ~hi:10_000 (fun _ _ -> incr n);
  Alcotest.(check int) "empty range" 0 !n

let test_tree_sequential_and_reverse () =
  List.iter
    (fun order ->
      let _, t = mk_tree ~node_bytes:128 ~words:(1 lsl 20) () in
      List.iter (fun k -> Tree.insert t ~key:k ~value:(value_of k)) order;
      List.iter
        (fun k ->
          Alcotest.(check (option int)) "find" (Some (value_of k)) (Tree.search t k))
        order;
      Invariant.check_exn t)
    [ List.init 800 (fun i -> i + 1); List.init 800 (fun i -> 800 - i) ]

let test_tree_binary_mode () =
  let _, t = mk_tree ~mode:Node.Binary ~words:(1 lsl 20) () in
  let rng = Prng.create 31 in
  let keys = Array.init 2000 (fun i -> (3 * i) + 1) in
  Prng.shuffle rng keys;
  Array.iter (fun k -> Tree.insert t ~key:k ~value:(value_of k)) keys;
  Array.iter
    (fun k ->
      Alcotest.(check (option int)) "binary find" (Some (value_of k)) (Tree.search t k))
    keys;
  Alcotest.(check (option int)) "binary miss" None (Tree.search t 2)

let test_tree_logged_split_policy () =
  let _, t = mk_tree ~split_policy:Tree.Logged ~node_bytes:128 ~words:(1 lsl 20) () in
  for k = 1 to 600 do
    Tree.insert t ~key:k ~value:(value_of k)
  done;
  for k = 1 to 600 do
    Alcotest.(check (option int)) "logged find" (Some (value_of k)) (Tree.search t k)
  done;
  Invariant.check_exn t

(* ------------------------------------------------------------------ *)
(* Tree-level crash enumeration                                        *)
(* ------------------------------------------------------------------ *)

(* Build a base tree, then for a given operation crash before every
   store; verify (a) reader tolerance without repair, (b) eager
   recovery restores all invariants. *)
let tree_crash_enum ?(node_bytes = 128) ~setup_keys ~op ~op_descr ~committed
    ~in_flight () =
  let a0 = mk_arena ~words:(1 lsl 20) () in
  let t0 = Tree.create ~node_bytes a0 in
  List.iter (fun k -> Tree.insert t0 ~key:k ~value:(value_of k)) setup_keys;
  Arena.drain a0;
  let total =
    let c = Arena.clone a0 in
    let tc = Tree.open_existing ~node_bytes c in
    let before = Arena.store_count c in
    op tc;
    Arena.store_count c - before
  in
  Alcotest.(check bool) (op_descr ^ " has stores") true (total > 0);
  let step = max 1 (total / 64) in
  let k = ref 0 in
  while !k <= total do
    List.iter
      (fun mode ->
        let c = Arena.clone a0 in
        let tc = Tree.open_existing ~node_bytes c in
        Arena.set_crash_plan c (Arena.After_stores (Arena.store_count c + !k));
        (try op tc with Arena.Crashed -> ());
        Arena.power_fail c mode;
        let tc = Tree.open_existing ~node_bytes c in
        (* (a) lock-free reader tolerance with no repair at all *)
        List.iter
          (fun key ->
            Alcotest.(check (option int))
              (Printf.sprintf "%s crash@%d committed %d (pre-recovery)" op_descr !k key)
              (Some (value_of key))
              (Tree.search tc key))
          committed;
        (match in_flight with
        | None -> ()
        | Some (key, v) -> (
            match Tree.search tc key with
            | None -> ()
            | Some got ->
                Alcotest.(check int)
                  (Printf.sprintf "%s crash@%d in-flight atomic" op_descr !k)
                  v got));
        (* (b) eager recovery then full invariants *)
        Tree.recover tc;
        (match Invariant.check tc with
        | [] -> ()
        | vs ->
            Alcotest.failf "%s crash@%d: invariants: %s" op_descr !k
              (String.concat "; " vs));
        List.iter
          (fun key ->
            Alcotest.(check (option int))
              (Printf.sprintf "%s crash@%d committed %d (post-recovery)" op_descr !k key)
              (Some (value_of key))
              (Tree.search tc key))
          committed)
      [ Storelog.Keep_none; Storelog.Keep_all;
        Storelog.Random_eviction (Prng.create (!k * 7)) ];
    k := !k + step
  done

let test_tree_crash_simple_insert () =
  let setup = [ 10; 20; 30; 40; 50 ] in
  tree_crash_enum ~setup_keys:setup
    ~op:(fun t -> Tree.insert t ~key:25 ~value:(value_of 25))
    ~op_descr:"tree-insert" ~committed:setup ~in_flight:(Some (25, value_of 25)) ()

let test_tree_crash_split_insert () =
  (* 128-byte nodes hold 4 records; 4 keys fill the root leaf, the 5th
     forces a FAIR split with root growth. *)
  let setup = [ 10; 20; 30; 40 ] in
  tree_crash_enum ~setup_keys:setup
    ~op:(fun t -> Tree.insert t ~key:25 ~value:(value_of 25))
    ~op_descr:"tree-split" ~committed:setup ~in_flight:(Some (25, value_of 25)) ()

let test_tree_crash_deep_split () =
  let setup = List.init 40 (fun i -> (i + 1) * 10) in
  tree_crash_enum ~setup_keys:setup
    ~op:(fun t -> Tree.insert t ~key:255 ~value:(value_of 255))
    ~op_descr:"tree-deep-split" ~committed:setup
    ~in_flight:(Some (255, value_of 255)) ()

let test_tree_crash_delete () =
  let setup = List.init 12 (fun i -> (i + 1) * 10) in
  tree_crash_enum ~setup_keys:setup
    ~op:(fun t -> ignore (Tree.delete t 60))
    ~op_descr:"tree-delete"
    ~committed:(List.filter (fun k -> k <> 60) setup)
    ~in_flight:(Some (60, value_of 60)) ()

let test_tree_crash_update () =
  let setup = [ 10; 20; 30 ] in
  tree_crash_enum ~setup_keys:setup
    ~op:(fun t -> Tree.insert t ~key:20 ~value:4242)
    ~op_descr:"tree-update"
    ~committed:(List.filter (fun k -> k <> 20) setup)
    ~in_flight:None ()

let test_tree_crash_logged_split () =
  (* The FAST+Logging baseline must also recover, via its log. *)
  let a0 = mk_arena ~words:(1 lsl 20) () in
  let t0 = Tree.create ~node_bytes:128 ~split_policy:Tree.Logged a0 in
  let setup = [ 10; 20; 30; 40 ] in
  List.iter (fun k -> Tree.insert t0 ~key:k ~value:(value_of k)) setup;
  Arena.drain a0;
  let total =
    let c = Arena.clone a0 in
    let tc = Tree.open_existing ~node_bytes:128 ~split_policy:Tree.Logged c in
    let b = Arena.store_count c in
    Tree.insert tc ~key:25 ~value:(value_of 25);
    Arena.store_count c - b
  in
  for k = 0 to total do
    let c = Arena.clone a0 in
    let tc = Tree.open_existing ~node_bytes:128 ~split_policy:Tree.Logged c in
    Arena.set_crash_plan c (Arena.After_stores (Arena.store_count c + k));
    (try Tree.insert tc ~key:25 ~value:(value_of 25) with Arena.Crashed -> ());
    Arena.power_fail c Storelog.Keep_none;
    let tc = Tree.open_existing ~node_bytes:128 ~split_policy:Tree.Logged c in
    Tree.recover tc;
    List.iter
      (fun key ->
        Alcotest.(check (option int))
          (Printf.sprintf "logged crash@%d committed %d" k key)
          (Some (value_of key))
          (Tree.search tc key))
      setup
  done

let test_tree_lazy_recovery_by_writers () =
  (* Crash mid-split, then let ordinary writers repair lazily. *)
  let a0 = mk_arena ~words:(1 lsl 20) () in
  let t0 = Tree.create ~node_bytes:128 a0 in
  let setup = [ 10; 20; 30; 40 ] in
  List.iter (fun k -> Tree.insert t0 ~key:k ~value:(value_of k)) setup;
  Arena.drain a0;
  let total =
    let c = Arena.clone a0 in
    let tc = Tree.open_existing ~node_bytes:128 c in
    let b = Arena.store_count c in
    Tree.insert tc ~key:25 ~value:(value_of 25);
    Arena.store_count c - b
  in
  for k = 0 to total do
    let c = Arena.clone a0 in
    let tc = Tree.open_existing ~node_bytes:128 c in
    Arena.set_crash_plan c (Arena.After_stores (Arena.store_count c + k));
    (try Tree.insert tc ~key:25 ~value:(value_of 25) with Arena.Crashed -> ());
    Arena.power_fail c Storelog.Keep_all;
    let tc = Tree.open_existing ~node_bytes:128 c in
    Tree.recover ~lazy_:true tc;
    (* Writers repair as a side effect of normal operation. *)
    List.iter (fun key -> Tree.insert tc ~key ~value:(value_of key)) [ 15; 35; 45 ];
    List.iter
      (fun key ->
        Alcotest.(check (option int))
          (Printf.sprintf "lazy crash@%d key %d" k key)
          (Some (value_of key))
          (Tree.search tc key))
      (setup @ [ 15; 35; 45 ])
  done

let test_tree_crash_random_workload () =
  (* Crash at random points of a longer randomized workload; committed
     prefix must fully survive under Keep_all (TSO strict model). *)
  let rng = Prng.create 2024 in
  for round = 1 to 8 do
    let a = mk_arena ~words:(1 lsl 21) () in
    let t = Tree.create ~node_bytes:128 a in
    let committed = Hashtbl.create 256 in
    let planned = 50 + Prng.int rng 300 in
    Arena.set_crash_plan a
      (Arena.After_stores (Arena.store_count a + 500 + Prng.int rng 4000));
    let crashed = ref false in
    (try
       for i = 1 to planned do
         let k = 1 + Prng.int rng 1000 in
         if Prng.int rng 10 < 7 then begin
           Tree.insert t ~key:k ~value:(value_of k);
           Hashtbl.replace committed k (value_of k)
         end
         else begin
           ignore (Tree.delete t k);
           Hashtbl.remove committed k
         end;
         ignore i
       done
     with Arena.Crashed -> crashed := true);
    Arena.power_fail a Storelog.Keep_all;
    let t = Tree.open_existing ~node_bytes:128 a in
    Tree.recover t;
    (match Invariant.check t with
    | [] -> ()
    | vs -> Alcotest.failf "round %d invariants: %s" round (String.concat "; " vs));
    Hashtbl.iter
      (fun k v ->
        Alcotest.(check (option int))
          (Printf.sprintf "round %d committed key %d" round k)
          (Some v) (Tree.search t k))
      committed
  done

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                 *)
(* ------------------------------------------------------------------ *)

let prop_tree_matches_model =
  QCheck.Test.make ~count:60 ~name:"tree matches Map model under random ops"
    QCheck.(pair small_int (list (pair (int_bound 500) bool)))
    (fun (seed, ops) ->
      let _ = seed in
      let _, t = mk_tree ~node_bytes:128 ~words:(1 lsl 21) () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k0, is_insert) ->
          let k = k0 + 1 in
          if is_insert then begin
            Tree.insert t ~key:k ~value:(value_of k);
            Hashtbl.replace model k (value_of k)
          end
          else begin
            let expected = Hashtbl.mem model k in
            let got = Tree.delete t k in
            if got <> expected then QCheck.Test.fail_report "delete mismatch";
            Hashtbl.remove model k
          end)
        ops;
      Hashtbl.iter
        (fun k v ->
          if Tree.search t k <> Some v then QCheck.Test.fail_report "search mismatch")
        model;
      Invariant.check t = [])

let prop_range_equals_model =
  QCheck.Test.make ~count:40 ~name:"range scan equals sorted model slice"
    QCheck.(pair (list (int_bound 1000)) (pair (int_bound 1000) (int_bound 1000)))
    (fun (keys, (a, b)) ->
      let lo = 1 + min a b and hi = 1 + max a b in
      let _, t = mk_tree ~node_bytes:128 ~words:(1 lsl 21) () in
      let module IS = Set.Make (Int) in
      let set =
        List.fold_left
          (fun s k0 ->
            let k = k0 + 1 in
            Tree.insert t ~key:k ~value:(value_of k);
            IS.add k s)
          IS.empty keys
      in
      let got = ref [] in
      Tree.range t ~lo ~hi (fun k _ -> got := k :: !got);
      let expect = IS.elements (IS.filter (fun k -> k >= lo && k <= hi) set) in
      List.rev !got = expect)

let prop_crash_then_recover_sound =
  QCheck.Test.make ~count:30 ~name:"random crash point: recovery sound"
    QCheck.(pair small_int (int_bound 3000))
    (fun (seed, crash_after) ->
      let rng = Prng.create (seed + 1) in
      let a = mk_arena ~words:(1 lsl 21) () in
      let t = Tree.create ~node_bytes:128 a in
      let committed = Hashtbl.create 64 in
      Arena.set_crash_plan a (Arena.After_stores (Arena.store_count a + 20 + crash_after));
      (try
         for _ = 1 to 400 do
           let k = 1 + Prng.int rng 500 in
           Tree.insert t ~key:k ~value:(value_of k);
           Hashtbl.replace committed k (value_of k)
         done
       with Arena.Crashed -> ());
      Arena.power_fail a (Storelog.Random_eviction (Prng.create seed));
      let t = Tree.open_existing ~node_bytes:128 a in
      Tree.recover t;
      Invariant.check t = []
      && Hashtbl.fold
           (fun k v ok ->
             ok
             && match Tree.search t k with
                | Some got -> got = v
                | None ->
                    (* Under per-line eviction only explicitly flushed
                       commits are guaranteed; committed ops always end
                       with a flush, so the key must be present. *)
                    false)
           committed true)

(* ------------------------------------------------------------------ *)
(* B-link descent                                                      *)
(* ------------------------------------------------------------------ *)

let level_of a n = Arena.peek a (n + Layout.off_level)

(* Keys 10, 20, ..., 10n go into 128-byte nodes (4 entries), then the
   insert of 10(n+1) crashes at its first store into a node of level
   >= [above] that already existed: the split below that level is
   published (sibling linked, donor truncated) but its separator never
   reached the parent.  Every store is kept, so the reopened tree is
   exactly that state.  Returns the tree, the donor and its dangling
   sibling. *)
let dangling_split ~mode ~above n =
  let a = mk_arena () in
  let t = Tree.create ~node_bytes:128 ~mode a in
  for i = 1 to n do
    Tree.insert t ~key:(10 * i) ~value:(value_of (10 * i))
  done;
  let words = (Tree.layout t).Layout.node_words in
  let upper =
    List.filter (fun nd -> level_of a nd >= above) (Tree.reachable_nodes t)
  in
  let dry = Arena.clone a in
  let base = Arena.store_count dry in
  let first = ref None in
  let nop _ = () and nop2 _ _ = () in
  Arena.set_event_sink dry
    (Some
       {
         Arena.ev_store =
           (fun addr ->
             if !first = None
                && List.exists (fun nd -> addr >= nd && addr < nd + words) upper
             then first := Some (Arena.store_count dry - base));
         ev_flush = nop;
         ev_fence = (fun () -> ());
         ev_alloc = nop2;
         ev_free = nop2;
         ev_crash = (fun () -> ());
       });
  let trigger = 10 * (n + 1) in
  Tree.insert (Tree.open_existing ~node_bytes:128 ~mode dry) ~key:trigger
    ~value:(value_of trigger);
  let k = Option.get !first in
  Arena.set_crash_plan a (Arena.After_stores (Arena.store_count a + k));
  (try Tree.insert t ~key:trigger ~value:(value_of trigger) with Arena.Crashed -> ());
  Arena.power_fail a Storelog.Keep_all;
  let t = Tree.open_existing ~node_bytes:128 ~mode a in
  let nodes = Tree.reachable_nodes t in
  let referenced =
    List.concat_map
      (fun p ->
        Arena.peek a (p + Layout.off_leftmost)
        :: List.map snd (Node.entries_debug a (Tree.layout t) p))
      (List.filter (fun p -> level_of a p = above) nodes)
  in
  let sib =
    List.find
      (fun nd ->
        level_of a nd = above - 1 && nd <> Tree.root t && not (List.mem nd referenced))
      nodes
  in
  let donor = List.find (fun nd -> Arena.peek a (nd + Layout.off_sibling) = sib) nodes in
  (t, donor, sib)

(* Route parities: even scans left to right, odd right to left (as
   while a delete shifts); set on every internal node. *)
let set_internal_parity t odd =
  let a = Tree.arena t in
  List.iter
    (fun nd -> if level_of a nd > 0 then Layout.set_switch a nd (if odd then 1 else 0))
    (Tree.reachable_nodes t)

let descent_variants = [ (Node.Linear, false); (Node.Linear, true); (Node.Binary, false) ]

let variant_name (mode, odd) =
  match mode with
  | Node.Binary -> "binary"
  | Node.Linear -> if odd then "linear odd" else "linear even"

(* A leaf split whose separator is missing: the descent stops at the
   donor (no move-right at the leaf), and search, range, insert and
   delete of keys at and past the donor's last entry still reach the
   sibling through their own sibling checks. *)
let test_descent_dangling_leaf () =
  List.iter
    (fun ((mode, odd) as v) ->
      let t, donor, sib = dangling_split ~mode ~above:1 6 in
      set_internal_parity t odd;
      let a = Tree.arena t and l = Tree.layout t in
      let name what = Printf.sprintf "%s: %s" (variant_name v) what in
      let donor_keys = List.map fst (Node.entries_debug a l donor) in
      let sib_keys = List.map fst (Node.entries_debug a l sib) in
      let last = List.nth donor_keys (List.length donor_keys - 1) in
      Alcotest.(check bool) (name "split moved keys right") true (sib_keys <> []);
      List.iter
        (fun k ->
          Alcotest.(check int) (name "descent stays on the donor") donor (Tree.to_leaf t k);
          Alcotest.(check (option int)) (name "search") (Some (value_of k)) (Tree.search t k))
        (last :: sib_keys);
      let got = ref [] in
      Tree.range t ~lo:last ~hi:max_int (fun k _ -> got := k :: !got);
      Alcotest.(check (list int)) (name "range") (last :: sib_keys) (List.rev !got);
      let past = 10 * (List.length donor_keys + List.length sib_keys + 5) in
      Tree.insert t ~key:past ~value:(value_of past);
      Tree.insert t ~key:(List.hd sib_keys) ~value:1001;
      Alcotest.(check bool) (name "delete") true (Tree.delete t (List.nth sib_keys 1));
      Alcotest.(check (list (pair int int)))
        (name "writes landed in the sibling")
        ((List.hd sib_keys, 1001)
         :: List.map (fun k -> (k, value_of k)) (List.tl (List.tl sib_keys) @ [ past ]))
        (Node.entries_debug a l sib);
      Alcotest.(check (list int)) (name "donor untouched") donor_keys
        (List.map fst (Node.entries_debug a l donor)))
    descent_variants

(* An internal split whose separator is missing from the root: the
   route through the truncated donor runs off its end, so the descent
   reads the sibling and moves right, reaching the leaf that covers the
   key in every route parity and in binary mode. *)
let test_descent_dangling_internal () =
  List.iter
    (fun ((mode, odd) as v) ->
      let t, donor, sib = dangling_split ~mode ~above:2 18 in
      set_internal_parity t odd;
      let a = Tree.arena t and l = Tree.layout t in
      let name what = Printf.sprintf "%s: %s" (variant_name v) what in
      let low = Arena.peek a (sib + Layout.off_low) in
      let last = List.fold_left (fun m (k, _) -> max m k) 0 (Node.entries_debug a l donor) in
      Alcotest.(check bool) (name "donor truncated below the sibling") true (last < low);
      List.iter
        (fun k ->
          let leaf = Tree.to_leaf t k in
          let s = Arena.peek a (leaf + Layout.off_sibling) in
          Alcotest.(check bool)
            (name (Printf.sprintf "leaf reached for %d covers it" k))
            true
            (Arena.peek a (leaf + Layout.off_low) <= k
            && (s = 0 || Arena.peek a (s + Layout.off_low) > k)
            && List.mem_assoc k (Node.entries_debug a l leaf));
          Alcotest.(check (option int)) (name "search") (Some (value_of k)) (Tree.search t k))
        (List.filter (fun k -> k >= last) (List.init 18 (fun i -> 10 * (i + 1)))))
    descent_variants

(* A cold search for the first key of a full leaf (the root) reads the
   header line and the first record line, and nothing else: 8 loads
   (the root pointer, cached by open_existing; level, switch and
   leftmost; ptr, key and the key re-read of record 0; the switch
   re-check) and 2 line misses, the second at the sequential discount.
   A descent that probed the leaf's tail first would add a full miss on
   line 7 and make the header line's miss a full one. *)
let test_descent_cold_cost () =
  let config = Config.pm ~read_ns:300 ~write_ns:300 () in
  let a = mk_arena ~config () in
  let t = Tree.create a in
  let cap = (Tree.layout t).Layout.capacity in
  for k = 1 to cap do
    Tree.insert t ~key:k ~value:(value_of k)
  done;
  Alcotest.(check int) "one full leaf" 1 (Tree.height t);
  Arena.power_fail a Storelog.Keep_all;
  let t = Tree.open_existing a in
  Arena.reset_stats a;
  Alcotest.(check (option int)) "found" (Some (value_of 1)) (Tree.search t 1);
  let s = Arena.total_stats a in
  Alcotest.(check (list int)) "loads, line misses, sequential misses" [ 8; 2; 1 ]
    [ s.Stats.loads; s.Stats.line_misses; s.Stats.seq_misses ]

let suite =
  [
    Alcotest.test_case "node insert ascending" `Quick test_node_insert_ascending;
    Alcotest.test_case "node insert descending" `Quick test_node_insert_descending;
    Alcotest.test_case "node insert random" `Quick test_node_insert_random_order;
    Alcotest.test_case "node delete" `Quick test_node_delete_and_search;
    Alcotest.test_case "node update value" `Quick test_node_update_value;
    Alcotest.test_case "node zero terminator" `Quick test_node_zero_terminator_invariant;
    Alcotest.test_case "node binary search" `Quick test_node_binary_search;
    Alcotest.test_case "node crash: insert mid" `Quick test_node_crash_insert_middle;
    Alcotest.test_case "node crash: insert head" `Quick test_node_crash_insert_head;
    Alcotest.test_case "node crash: insert tail" `Quick test_node_crash_insert_tail;
    Alcotest.test_case "node crash: delete" `Quick test_node_crash_delete;
    Alcotest.test_case "node crash: delete last" `Quick test_node_crash_delete_empty_node_edge;
    Alcotest.test_case "node crash: non-TSO fenced" `Quick test_node_crash_non_tso_with_fences;
    Alcotest.test_case "tree insert/search" `Quick test_tree_insert_search_small;
    Alcotest.test_case "tree splits+height" `Quick test_tree_splits_and_height;
    Alcotest.test_case "tree vs model" `Quick test_tree_random_inserts_vs_model;
    Alcotest.test_case "tree update in place" `Quick test_tree_update_in_place;
    Alcotest.test_case "tree delete" `Quick test_tree_delete;
    Alcotest.test_case "tree range" `Quick test_tree_range;
    Alcotest.test_case "tree seq+reverse" `Quick test_tree_sequential_and_reverse;
    Alcotest.test_case "tree binary mode" `Quick test_tree_binary_mode;
    Alcotest.test_case "tree logged splits" `Quick test_tree_logged_split_policy;
    Alcotest.test_case "descent: dangling leaf split" `Quick test_descent_dangling_leaf;
    Alcotest.test_case "descent: dangling internal split" `Quick
      test_descent_dangling_internal;
    Alcotest.test_case "descent: cold search cost" `Quick test_descent_cold_cost;
    Alcotest.test_case "tree crash: insert" `Quick test_tree_crash_simple_insert;
    Alcotest.test_case "tree crash: split" `Quick test_tree_crash_split_insert;
    Alcotest.test_case "tree crash: deep split" `Quick test_tree_crash_deep_split;
    Alcotest.test_case "tree crash: delete" `Quick test_tree_crash_delete;
    Alcotest.test_case "tree crash: update" `Quick test_tree_crash_update;
    Alcotest.test_case "tree crash: logged split" `Quick test_tree_crash_logged_split;
    Alcotest.test_case "tree crash: lazy recovery" `Quick test_tree_lazy_recovery_by_writers;
    Alcotest.test_case "tree crash: random workload" `Slow test_tree_crash_random_workload;
    QCheck_alcotest.to_alcotest prop_tree_matches_model;
    QCheck_alcotest.to_alcotest prop_range_equals_model;
    QCheck_alcotest.to_alcotest prop_crash_then_recover_sound;
  ]
