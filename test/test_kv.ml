(* The Kv layer: arbitrary (duplicate/zero) values over FAST+FAIR via
   persistent value cells. *)

open Ff_pmem
open Ff_fastfair
open Crash_util
module Prng = Ff_util.Prng

let mk () =
  let a = Arena.create ~words:(1 lsl 21) () in
  (a, Kv.create ~node_bytes:256 a)

let test_basic () =
  let _, kv = mk () in
  Kv.put kv ~key:1 ~value:100;
  Kv.put kv ~key:2 ~value:100;
  (* duplicate values OK *)
  Kv.put kv ~key:3 ~value:0;
  (* zero values OK *)
  Alcotest.(check (option int)) "k1" (Some 100) (Kv.get kv 1);
  Alcotest.(check (option int)) "k2" (Some 100) (Kv.get kv 2);
  Alcotest.(check (option int)) "k3 zero" (Some 0) (Kv.get kv 3);
  Alcotest.(check (option int)) "miss" None (Kv.get kv 4)

let test_update_in_place () =
  let a, kv = mk () in
  Kv.put kv ~key:9 ~value:1;
  let stores_before = Arena.store_count a in
  Kv.put kv ~key:9 ~value:2;
  let delta = Arena.store_count a - stores_before in
  Alcotest.(check (option int)) "updated" (Some 2) (Kv.get kv 9);
  Alcotest.(check bool) "update is a single store" true (delta = 1)

let test_vs_model () =
  let _, kv = mk () in
  let rng = Prng.create 7 in
  let model = Hashtbl.create 256 in
  for _ = 1 to 5000 do
    let k = 1 + Prng.int rng 800 in
    match Prng.int rng 10 with
    | 0 ->
        let expected = Hashtbl.mem model k in
        Alcotest.(check bool) "delete" expected (Kv.delete kv k);
        Hashtbl.remove model k
    | _ ->
        let v = Prng.int rng 50 in
        (* heavily duplicated values *)
        Kv.put kv ~key:k ~value:v;
        Hashtbl.replace model k v
  done;
  Hashtbl.iter
    (fun k v -> Alcotest.(check (option int)) "model" (Some v) (Kv.get kv k))
    model

let test_range_reads_cells () =
  let _, kv = mk () in
  for k = 1 to 100 do
    Kv.put kv ~key:k ~value:(k mod 5)
  done;
  let acc = ref [] in
  Kv.range kv ~lo:10 ~hi:14 (fun k v -> acc := (k, v) :: !acc);
  Alcotest.(check (list (pair int int))) "range"
    [ (10, 0); (11, 1); (12, 2); (13, 3); (14, 4) ]
    (List.rev !acc)

let test_cell_reuse () =
  let a, kv = mk () in
  for k = 1 to 100 do
    Kv.put kv ~key:k ~value:k
  done;
  let used = Arena.used_words a in
  for k = 1 to 100 do
    ignore (Kv.delete kv k)
  done;
  for k = 101 to 200 do
    Kv.put kv ~key:k ~value:k
  done;
  (* cells recycled: little new allocation beyond node churn *)
  Alcotest.(check bool) "bounded growth" true (Arena.used_words a - used < 2048);
  for k = 101 to 200 do
    Alcotest.(check (option int)) "reused cells correct" (Some k) (Kv.get kv k)
  done

let test_crash_durability () =
  let a, kv = mk () in
  let committed = ref [] in
  ignore
    (crash_at a 3000 (fun () ->
         for k = 1 to 500 do
           Kv.put kv ~key:k ~value:(k * 7);
           committed := k :: !committed
         done));
  Arena.power_fail a (Storelog.Random_eviction (Prng.create 1));
  let kv = Kv.open_existing ~node_bytes:256 a in
  Kv.recover kv;
  List.iter
    (fun k ->
      Alcotest.(check (option int))
        (Printf.sprintf "committed %d" k)
        (Some (k * 7)) (Kv.get kv k))
    !committed;
  (* keeps working post-recovery *)
  Kv.put kv ~key:9999 ~value:1;
  Alcotest.(check (option int)) "post-recovery" (Some 1) (Kv.get kv 9999)

let test_crash_update_atomic () =
  (* An in-place value update is one atomic store: after any crash the
     cell holds the old or the new value, nothing else. *)
  let a, kv = mk () in
  Kv.put kv ~key:5 ~value:111;
  let reopen = Kv.open_existing ~node_bytes:256 in
  let put kvc = Kv.put kvc ~key:5 ~value:222 in
  let total = stores_of a ~reopen put in
  (* Points 0 .. 3: those past the put's last store crash its end. *)
  let check k crash =
    let kvc = reopen (crash Storelog.Keep_all) in
    match Kv.get kvc 5 with
    | Some 111 | Some 222 -> ()
    | other ->
        Alcotest.failf "crash@%d: got %s" k
          (match other with Some v -> string_of_int v | None -> "none")
  in
  ignore
    (crash_every a ~reopen put (fun k crash ->
         for j = k to if k = total then 3 else min k 3 do
           check j crash
         done))

let suite =
  [
    Alcotest.test_case "kv basic" `Quick test_basic;
    Alcotest.test_case "kv update in place" `Quick test_update_in_place;
    Alcotest.test_case "kv vs model" `Quick test_vs_model;
    Alcotest.test_case "kv range" `Quick test_range_reads_cells;
    Alcotest.test_case "kv cell reuse" `Quick test_cell_reuse;
    Alcotest.test_case "kv crash durability" `Quick test_crash_durability;
    Alcotest.test_case "kv crash update atomic" `Quick test_crash_update_atomic;
  ]
