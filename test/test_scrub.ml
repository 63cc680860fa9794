(* Media faults, the hardened allocator, the post-crash scrubber and
   graceful shard degradation.

   Covers the fault model end to end: seeded poison/flip/stuck
   injection and its replay determinism, Media_error semantics and
   write-clears-poison, the hardened Arena.free contract, mid-split
   crash leaks being found / reclaimed / surviving a save-load round
   trip, per-damage-class repair (split log, leaf records, leaf
   header, inner rebuild), the reachable+free == used leak oracle over
   every scrubbable index, and the sharded serving layer's
   degraded-shard state machine. *)

open Ff_pmem
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Scrub = Ff_scrub.Scrub
module Shard = Ff_shard.Shard
module L = Ff_fastfair.Layout

let value_of k = (2 * k) + 1
let wpl = Arena.words_per_line
let dcfg = D.default_config
let small_cfg = { dcfg with D.node_bytes = Some 128 }
let ff () = Registry.find_exn "fastfair"

(* A quiesced small tree: 120 keys (k*10), node_bytes 128 so the tree
   has multiple levels. *)
let build_base ?(config = small_cfg) ?(n = 120) () =
  let a = Arena.create ~words:(1 lsl 16) () in
  let d = ff () in
  let t = d.D.build config a in
  for k = 1 to n do
    t.Intf.insert (k * 10) (value_of (k * 10))
  done;
  t.Intf.close ();
  Arena.drain a;
  (a, d)

let reopen d a = d.D.open_existing small_cfg a

(* Walk header pointers with peeks to the leftmost leaf. *)
let leftmost_leaf a =
  let rec go n =
    if Arena.peek a (n + L.off_level) = 0 then n
    else go (Arena.peek a (n + L.off_leftmost))
  in
  go (Arena.root_get a 0)

(* ------------------------------------------------------------------ *)
(* Arena: poison semantics                                             *)
(* ------------------------------------------------------------------ *)

let test_poison_read_write () =
  let a = Arena.create ~words:4096 () in
  let b = Arena.alloc a 16 in
  Arena.write a b 7777;
  Arena.flush a b;
  let line = b / wpl in
  Arena.poison_line a line;
  Alcotest.(check bool) "is_poisoned" true (Arena.is_poisoned a b);
  Alcotest.check_raises "read raises" (Arena.Media_error b) (fun () ->
      ignore (Arena.read a b));
  (* Scrambled, not the stored value — and peek never raises. *)
  Alcotest.(check bool) "peek scrambled" true (Arena.peek a b <> 7777);
  Alcotest.(check int) "media_error_reads counted" 1
    (Arena.fault_stats a).Arena.media_error_reads;
  (* A full-line overwrite clears the poison. *)
  Arena.write a b 1234;
  Alcotest.(check bool) "write clears poison" false (Arena.is_poisoned a b);
  Alcotest.(check int) "readable again" 1234 (Arena.read a b);
  Alcotest.(check (list int)) "no poisoned lines" [] (Arena.poisoned_lines a)

let test_poison_survives_power_fail () =
  let a = Arena.create ~words:4096 () in
  let b = Arena.alloc a 16 in
  Arena.poison_line a (b / wpl);
  Arena.power_fail a Storelog.Keep_all;
  Alcotest.(check bool) "still poisoned" true (Arena.is_poisoned a b);
  Alcotest.check_raises "still raises" (Arena.Media_error b) (fun () ->
      ignore (Arena.read a b))

let test_fault_plan_deterministic () =
  let mk () =
    let a = Arena.create ~words:8192 () in
    for i = 1 to 40 do
      let b = Arena.alloc a 16 in
      Arena.write a b i;
      Arena.flush a b
    done;
    Arena.set_fault_plan a
      (Some { Arena.fault_seed = 99; poison_lines = 3; flip_words = 4; stuck_words = 2 });
    Arena.power_fail a Storelog.Keep_all;
    a
  in
  let a1 = mk () and a2 = mk () in
  Alcotest.(check bool) "same injected faults" true
    (Arena.injected_faults a1 = Arena.injected_faults a2);
  Alcotest.(check (list int)) "same poisoned lines"
    (Arena.poisoned_lines a1) (Arena.poisoned_lines a2);
  let s = Arena.fault_stats a1 in
  Alcotest.(check int) "poisoned" 3 s.Arena.poisoned;
  Alcotest.(check int) "flipped" 4 s.Arena.flipped;
  Alcotest.(check int) "stuck" 2 s.Arena.stuck;
  (* Stuck words read all-ones; flips change exactly one bit. *)
  List.iter
    (fun f ->
      match f.Arena.fault_kind with
      | Arena.Fault_stuck ->
          Alcotest.(check int) "stuck at ones" max_int
            (Arena.peek a1 f.Arena.fault_addr)
      | Arena.Fault_flip | Arena.Fault_poison -> ())
    (Arena.injected_faults a1);
  (* Images agree word for word. *)
  let same = ref true in
  for w = 0 to Arena.capacity a1 - 1 do
    if Arena.peek a1 w <> Arena.peek a2 w then same := false
  done;
  Alcotest.(check bool) "images identical" true !same;
  (* Plan is one-shot: disarmed after firing. *)
  Alcotest.(check bool) "plan disarmed" true (Arena.fault_plan a1 = None)

(* ------------------------------------------------------------------ *)
(* Arena: hardened free                                                *)
(* ------------------------------------------------------------------ *)

let expect_invalid name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_free_hardening () =
  let a = Arena.create ~words:4096 () in
  let b1 = Arena.alloc a 16 in
  let b2 = Arena.alloc a 16 in
  expect_invalid "out of bounds" (fun () -> Arena.free a (Arena.capacity a) 16);
  expect_invalid "reserved region" (fun () -> Arena.free a 0 16);
  expect_invalid "beyond bump" (fun () -> Arena.free a (b2 + 64) 16);
  expect_invalid "unaligned" (fun () -> Arena.free a (b1 + 1) 16);
  expect_invalid "size mismatch" (fun () -> Arena.free a b1 32);
  (* Interior free goes to the free list; double free is rejected. *)
  Arena.free a b1 16;
  Alcotest.(check int) "free_words" 16 (Arena.free_words a);
  expect_invalid "double free" (fun () -> Arena.free a b1 16);
  (* Same-size alloc reuses the freed block. *)
  Alcotest.(check int) "free-list reuse" b1 (Arena.alloc_raw a 16);
  Alcotest.(check int) "free list drained" 0 (Arena.free_words a)

let test_free_trims_bump () =
  let a = Arena.create ~words:4096 () in
  let b1 = Arena.alloc a 16 in
  let b2 = Arena.alloc a 16 in
  let used = Arena.used_words a in
  (* Tail free shrinks the heap... *)
  Arena.free a b2 16;
  Alcotest.(check int) "tail trim" (used - 16) (Arena.used_words a);
  (* ...and an interior free followed by the tail free cascades. *)
  let b3 = Arena.alloc a 16 in
  let b4 = Arena.alloc a 16 in
  Arena.free a b3 16;
  Alcotest.(check int) "interior free listed" 16 (Arena.free_words a);
  Arena.free a b4 16;
  Alcotest.(check int) "cascaded trim" (used - 16) (Arena.used_words a);
  Alcotest.(check int) "free list absorbed" 0 (Arena.free_words a);
  ignore b1

let test_free_unknown_after_crash () =
  let a = Arena.create ~words:4096 () in
  let b = Arena.alloc a 16 in
  Arena.drain a;
  (* The crash drops the live-block table; reclaiming the now-unknown
     block must still be accepted (that is the scrubber's whole job). *)
  Arena.power_fail a Storelog.Keep_all;
  Arena.free a b 16;
  expect_invalid "still no double free" (fun () -> Arena.free a b 16)

(* ------------------------------------------------------------------ *)
(* Mid-split crash leaks                                               *)
(* ------------------------------------------------------------------ *)

let batch (t : Intf.ops) =
  for i = 1 to 40 do
    t.Intf.insert (5000 + i) (value_of (5000 + i))
  done

let eviction k = Storelog.Random_eviction (Prng.create k)

(* Crash the insert batch on a clone of [base] just before its store
   [k + 1], apply a deterministic eviction pattern, return the crashed
   arena. *)
let crashed_at ~base k =
  let a = Arena.clone base in
  let t = reopen (ff ()) a in
  ignore (Crash_util.crash_at a k (fun () -> batch t));
  Arena.power_fail a (eviction k);
  a

(* First crash point whose post-crash image leaks a block, from one
   run of the batch; no later point is crashed, so its image stays. *)
let find_leaky base =
  let d = ff () in
  let found = ref None in
  ignore
    (Crash_util.crash_every base ~reopen:(reopen d) batch (fun k crash ->
         if k >= 1 && k <= 3000 && Option.is_none !found then begin
           let a = crash (eviction k) in
           let r = Scrub.audit ~config:small_cfg d a in
           if r.Scrub.leaked_blocks <> [] then found := Some (k, a, r)
         end));
  match !found with Some f -> f | None -> Alcotest.fail "no leaking crash point found"

let scrub_full d a =
  Scrub.run ~config:small_cfg d a ~recover:(fun () ->
      let t = reopen d a in
      t.Intf.recover ())

let test_midsplit_leak_reclaimed () =
  let base, d = build_base () in
  let _k, a, audit = find_leaky base in
  Alcotest.(check bool) "leak detected" true (audit.Scrub.leaked_words > 0);
  let r = scrub_full d a in
  Alcotest.(check bool) "clean" true (Scrub.clean r);
  Alcotest.(check int) "all leaks reclaimed" r.Scrub.leaked_words
    r.Scrub.reclaimed_words;
  Alcotest.(check bool) "reclaimed something" true (r.Scrub.reclaimed_words > 0);
  (* Nothing leaks after the scrub, and the reclaimed block is
     genuinely reusable by the next node-sized allocation. *)
  let post = Scrub.audit ~config:small_cfg d a in
  Alcotest.(check (list (pair int int))) "post-scrub audit clean" []
    post.Scrub.leaked_blocks;
  let grain =
    match Registry.scrub_provider "fastfair" with
    | Some p -> (p small_cfg a).D.scrub_grain
    | None -> assert false
  in
  let na = Arena.alloc_raw a grain in
  Alcotest.(check bool) "next alloc reuses the leak" true
    (List.exists
       (fun (addr, w) -> na >= addr && na + grain <= addr + w)
       r.Scrub.leaked_blocks);
  (* The recovered tree still serves every committed key. *)
  let t = reopen d a in
  t.Intf.recover ();
  for k = 1 to 120 do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d" (k * 10))
      (Some (value_of (k * 10)))
      (t.Intf.search (k * 10))
  done

let test_scrub_report_deterministic () =
  let run () =
    let base, d = build_base () in
    let k, _, _ = find_leaky base in
    let a = crashed_at ~base k in
    Scrub.to_string (scrub_full d a)
  in
  Alcotest.(check string) "same seed, same report" (run ()) (run ())

let test_scrub_save_load_roundtrip () =
  let base, d = build_base () in
  let _k, a, _ = find_leaky base in
  let r = scrub_full d a in
  Alcotest.(check bool) "clean before save" true (Scrub.clean r);
  let used_post_scrub = Arena.used_words a in
  let path = Filename.temp_file "scrub" ".img" in
  Arena.save_to_file a path;
  let a2 = Arena.load_from_file path in
  Sys.remove path;
  Alcotest.(check int) "used_words survives the round trip" used_post_scrub
    (Arena.used_words a2);
  (* Free lists are volatile: anything not tail-trimmed resurfaces as
     a leak, and a recovery-time scrub must make the image clean. *)
  let r2 = scrub_full d a2 in
  Alcotest.(check bool) "clean after reload" true (Scrub.clean r2);
  let post = Scrub.audit ~config:small_cfg d a2 in
  Alcotest.(check (list (pair int int))) "no leaks after reload" []
    post.Scrub.leaked_blocks;
  Alcotest.(check int) "oracle: reachable + free = used"
    post.Scrub.used_words_before
    (post.Scrub.reachable_words + post.Scrub.free_words);
  let t = reopen d a2 in
  t.Intf.recover ();
  for k = 1 to 120 do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d" (k * 10))
      (Some (value_of (k * 10)))
      (t.Intf.search (k * 10))
  done

(* ------------------------------------------------------------------ *)
(* Media repair per damage class                                       *)
(* ------------------------------------------------------------------ *)

let test_repair_leaf_header () =
  let a, d = build_base () in
  let leaf = leftmost_leaf a in
  Arena.poison_line a (leaf / wpl);
  let r = scrub_full d a in
  Alcotest.(check bool) "clean" true (Scrub.clean r);
  Alcotest.(check bool) "header line repaired" true
    (List.mem (leaf / wpl) r.Scrub.repaired_lines);
  Alcotest.(check int) "no records lost" 0 r.Scrub.lost_records;
  let t = reopen d a in
  t.Intf.recover ();
  for k = 1 to 120 do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d" (k * 10))
      (Some (value_of (k * 10)))
      (t.Intf.search (k * 10))
  done

let test_repair_leaf_records () =
  let a, d = build_base () in
  let leaf = leftmost_leaf a in
  (* Second line of the leaf = first record line. *)
  Arena.poison_line a ((leaf / wpl) + 1);
  let r = scrub_full d a in
  Alcotest.(check bool) "clean" true (Scrub.clean r);
  Alcotest.(check bool) "line quarantined" true
    (List.mem ((leaf / wpl) + 1) r.Scrub.quarantined_lines);
  (* Surviving keys still answer; disappeared keys are accounted. *)
  let t = reopen d a in
  t.Intf.recover ();
  let missing = ref 0 in
  for k = 1 to 120 do
    match t.Intf.search (k * 10) with
    | Some v -> Alcotest.(check int) "value intact" (value_of (k * 10)) v
    | None -> incr missing
  done;
  Alcotest.(check bool) "missing keys accounted as lost records" true
    (!missing <= r.Scrub.lost_records);
  Alcotest.(check bool) "something was actually lost" true (!missing > 0)

let test_repair_inner_rebuild () =
  let a, d = build_base () in
  let root = Arena.root_get a 0 in
  Alcotest.(check bool) "tree has inner levels" true
    (Arena.peek a (root + L.off_level) > 0);
  (* Poison an inner record line: all routing must be rebuilt from the
     leaf chain, and the abandoned inner nodes reclaimed. *)
  Arena.poison_line a ((root / wpl) + 1);
  let r = scrub_full d a in
  Alcotest.(check bool) "clean" true (Scrub.clean r);
  Alcotest.(check bool) "old routing reclaimed" true (r.Scrub.reclaimed_words > 0);
  Alcotest.(check int) "no records lost" 0 r.Scrub.lost_records;
  let t = reopen d a in
  t.Intf.recover ();
  for k = 1 to 120 do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d" (k * 10))
      (Some (value_of (k * 10)))
      (t.Intf.search (k * 10))
  done;
  (* Range order survives the rebuild. *)
  let prev = ref 0 and count = ref 0 in
  t.Intf.range 1 10_000 (fun k _ ->
      Alcotest.(check bool) "ascending" true (k > !prev);
      prev := k;
      incr count);
  Alcotest.(check int) "all keys in range" 120 !count

(* A poisoned inner header takes the node's level and its leftmost
   child pointer with it.  The clean record lines still name the other
   children, and the lost leftmost child is the node whose sibling
   pointer names the first surviving one.  Nothing else points at the
   chain heads below the root, or below the leftmost level-1 node. *)
let test_repair_inner_header () =
  let level a n = Arena.peek a (n + L.off_level) in
  let rec leftmost_at a n lvl =
    if level a n = lvl then n
    else leftmost_at a (Arena.peek a (n + L.off_leftmost)) lvl
  in
  List.iter
    (fun target ->
      let a, d = build_base () in
      let root = Arena.root_get a 0 in
      Alcotest.(check bool) "tree has two inner levels" true (level a root > 1);
      Arena.poison_line a (target a root / wpl);
      let r = scrub_full d a in
      Alcotest.(check bool) "clean" true (Scrub.clean r);
      Alcotest.(check (list int)) "no poison left" [] (Arena.poisoned_lines a);
      let t = reopen d a in
      t.Intf.recover ();
      let missing = ref 0 in
      for k = 1 to 120 do
        match t.Intf.search (k * 10) with
        | Some v -> Alcotest.(check int) "value intact" (value_of (k * 10)) v
        | None -> incr missing
      done;
      Alcotest.(check bool) "missing keys accounted as lost records" true
        (!missing <= r.Scrub.lost_records))
    [ (fun _ root -> root); (fun a root -> leftmost_at a root 1) ]

(* ------------------------------------------------------------------ *)
(* Leak oracle over every scrubbable index                             *)
(* ------------------------------------------------------------------ *)

let test_leak_oracle_all_scrubbable () =
  let scrubbable = List.filter Scrub.scrubbable (Registry.all ()) in
  Alcotest.(check bool) "at least 4 scrubbable indexes" true
    (List.length scrubbable >= 4);
  List.iter
    (fun d ->
      let a = Arena.create ~words:(1 lsl 18) () in
      let t = d.D.build dcfg a in
      let rng = Prng.create 7 in
      for _ = 1 to 4000 do
        let k = 1 + Prng.int rng 700 in
        if Prng.int rng 4 = 0 then ignore (t.Intf.delete k)
        else t.Intf.insert k (value_of k)
      done;
      t.Intf.close ();
      Arena.drain a;
      let r = Scrub.audit ~config:dcfg d a in
      Alcotest.(check (list (pair int int)))
        (d.D.name ^ ": no leaks on a clean tree")
        [] r.Scrub.leaked_blocks;
      Alcotest.(check int)
        (d.D.name ^ ": reachable + free = used")
        r.Scrub.used_words_before
        (r.Scrub.reachable_words + r.Scrub.free_words))
    scrubbable

let test_non_scrubbable_rejected () =
  let d = Registry.find_exn "wort" in
  let a = Arena.create ~words:4096 () in
  ignore (d.D.build dcfg a);
  Alcotest.(check bool) "wort not scrubbable" false (Scrub.scrubbable d);
  (match Scrub.run ~config:dcfg d a with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Graceful shard degradation                                          *)
(* ------------------------------------------------------------------ *)

(* Load a serving-mode ensemble and poison the leftmost leaf of one
   shard, then pick a preloaded key of that shard that descends into
   the poisoned leaf (its smallest key). *)
let degraded_setup () =
  let t =
    Shard.create ~inner:"fastfair" ~shards:2 ~words:(1 lsl 16)
      ~inner_config:small_cfg ()
  in
  for k = 1 to 400 do
    Shard.insert t ~key:k ~value:(value_of k)
  done;
  let bad_shard = Shard.shard_of_key t 1 in
  let a = (Shard.arenas t).(bad_shard) in
  let leaf = leftmost_leaf a in
  (* The victim: the smallest key this shard serves lives in the
     leftmost leaf. *)
  let victim = ref 0 in
  (try
     for k = 1 to 400 do
       if Shard.shard_of_key t k = bad_shard then begin
         victim := k;
         raise Exit
       end
     done
   with Exit -> ());
  Arena.poison_line a (leaf / wpl);
  (t, bad_shard, !victim)

let test_degraded_shard () =
  let t, bad, victim = degraded_setup () in
  let good = 1 - bad in
  (* The damaged shard rejects with the typed error after retries. *)
  (match Shard.search t victim with
  | _ -> Alcotest.fail "expected Degraded"
  | exception Shard.Degraded { shard; attempts; _ } ->
      Alcotest.(check int) "degraded shard" bad shard;
      Alcotest.(check int) "initial try + retries" (Shard.retry_limit + 1)
        attempts);
  Alcotest.(check (array bool)) "health flags"
    (Array.init 2 (fun i -> i <> bad))
    (Shard.healthy t);
  let me, rt, rj = (Shard.degraded_stats t).(bad) in
  Alcotest.(check int) "media errors" (Shard.retry_limit + 1) me;
  Alcotest.(check int) "retries" Shard.retry_limit rt;
  Alcotest.(check int) "rejected" 1 rj;
  (* Sibling shards keep serving. *)
  let served = ref 0 in
  for k = 1 to 400 do
    if Shard.shard_of_key t k = good then begin
      Alcotest.(check (option int)) "sibling serves" (Some (value_of k))
        (Shard.search t k);
      incr served
    end
  done;
  Alcotest.(check bool) "sibling actually exercised" true (!served > 100)

let test_degraded_batch_continues () =
  let t, bad, victim = degraded_setup () in
  ignore bad;
  (* A batch containing the poisoned-key op must not die: the damaged
     op fails, the rest of the batch still runs. *)
  let ops =
    Array.init 64 (fun i ->
        if i = 0 then Ff_workload.Workload.Search victim
        else Ff_workload.Workload.Search (1 + (i mod 400)))
  in
  let hits = Shard.submit t ops in
  Alcotest.(check bool) "batch survived the degraded op" true (hits > 0);
  let _, _, rj = (Shard.degraded_stats t).(bad) in
  Alcotest.(check bool) "op was rejected" true (rj >= 1)

let test_degraded_recover_readmits () =
  let t, bad, victim = degraded_setup () in
  (match Shard.search t victim with
  | _ -> ()
  | exception Shard.Degraded _ -> ());
  Alcotest.(check bool) "degraded before recover" false (Shard.healthy t).(bad);
  Shard.power_fail t Storelog.Keep_all;
  Shard.recover t;
  Alcotest.(check (array bool)) "all shards re-admitted" [| true; true |]
    (Shard.healthy t);
  Alcotest.(check int) "one scrub report per shard" 2
    (List.length (Shard.scrub_reports t));
  List.iter
    (fun r -> Alcotest.(check bool) "report clean" true (Scrub.clean r))
    (Shard.scrub_reports t);
  (* The repaired shard serves the victim key again. *)
  Alcotest.(check (option int)) "victim key served" (Some (value_of victim))
    (Shard.search t victim)

let test_non_scrubbable_inner_recovers_plain () =
  let t = Shard.create ~inner:"wort" ~shards:2 ~words:(1 lsl 16) () in
  for k = 1 to 100 do
    Shard.insert t ~key:k ~value:(value_of k)
  done;
  Shard.power_fail t Storelog.Keep_all;
  Shard.recover t;
  Alcotest.(check int) "no scrub reports" 0
    (List.length (Shard.scrub_reports t));
  for k = 1 to 100 do
    Alcotest.(check (option int)) "key survives" (Some (value_of k))
      (Shard.search t k)
  done

(* Single-arena composite: the whole ensemble scrubs as one image. *)
let test_composite_scrub_roundtrip () =
  let a = Arena.create ~words:(1 lsl 16) () in
  let d = Registry.find_exn "sharded-fastfair" in
  let t = d.D.build dcfg a in
  for k = 1 to 400 do
    t.Intf.insert k (value_of k)
  done;
  t.Intf.close ();
  Arena.drain a;
  Arena.set_fault_plan a
    (Some { Arena.fault_seed = 5; poison_lines = 2; flip_words = 0; stuck_words = 0 });
  Arena.power_fail a Storelog.Keep_all;
  let t = d.D.open_existing dcfg a in
  t.Intf.recover ();
  Alcotest.(check (list int)) "poison repaired" [] (Arena.poisoned_lines a);
  let r = Scrub.audit ~config:dcfg d a in
  Alcotest.(check (list (pair int int))) "no leaks" [] r.Scrub.leaked_blocks;
  let present = ref 0 in
  for k = 1 to 400 do
    match t.Intf.search k with
    | Some v when v = value_of k -> incr present
    | Some _ -> Alcotest.fail "wrong value"
    | None -> ()
  done;
  (* Poison may quarantine records (accounted loss), never corrupt. *)
  Alcotest.(check bool) "most keys survive" true (!present >= 390)

let suite =
  [
    Alcotest.test_case "poison: read/write semantics" `Quick test_poison_read_write;
    Alcotest.test_case "poison: survives power_fail" `Quick
      test_poison_survives_power_fail;
    Alcotest.test_case "fault plan: deterministic replay" `Quick
      test_fault_plan_deterministic;
    Alcotest.test_case "free: hardened rejections" `Quick test_free_hardening;
    Alcotest.test_case "free: bump trimming" `Quick test_free_trims_bump;
    Alcotest.test_case "free: unknown block after crash" `Quick
      test_free_unknown_after_crash;
    Alcotest.test_case "mid-split leak: found and reclaimed" `Quick
      test_midsplit_leak_reclaimed;
    Alcotest.test_case "scrub report: deterministic" `Quick
      test_scrub_report_deterministic;
    Alcotest.test_case "scrub: save/load round trip" `Quick
      test_scrub_save_load_roundtrip;
    Alcotest.test_case "repair: leaf header re-derived" `Quick
      test_repair_leaf_header;
    Alcotest.test_case "repair: leaf records quarantined" `Quick
      test_repair_leaf_records;
    Alcotest.test_case "repair: inner rebuild" `Quick test_repair_inner_rebuild;
    Alcotest.test_case "repair: root + inner header" `Quick
      test_repair_inner_header;
    Alcotest.test_case "leak oracle: all scrubbable indexes" `Quick
      test_leak_oracle_all_scrubbable;
    Alcotest.test_case "non-scrubbable rejected" `Quick test_non_scrubbable_rejected;
    Alcotest.test_case "degradation: typed error after retries" `Quick
      test_degraded_shard;
    Alcotest.test_case "degradation: batch continues" `Quick
      test_degraded_batch_continues;
    Alcotest.test_case "degradation: recover re-admits" `Quick
      test_degraded_recover_readmits;
    Alcotest.test_case "degradation: non-scrubbable inner" `Quick
      test_non_scrubbable_inner_recovers_plain;
    Alcotest.test_case "composite: single-arena scrub" `Quick
      test_composite_scrub_roundtrip;
  ]
