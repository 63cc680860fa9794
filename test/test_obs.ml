(* Tests for lib/obs: the fence-attribution profiler, SLO rule
   evaluation, the run snapshot's derived headline, plus the
   end-to-end property the observability layer hangs on — a
   sharded media-fault run yields a well-formed Perfetto trace with
   degraded and re-admission events, byte-identical across two
   same-seed runs. *)

module Trace = Ff_trace.Trace
module Metrics = Ff_trace.Metrics
module J = Ff_trace.Json
module Hist = Ff_util.Histogram
module Prng = Ff_util.Prng
module Profile = Ff_obs.Profile
module Slo = Ff_obs.Slo
module Snapshot = Ff_obs.Snapshot
module Arena = Ff_pmem.Arena
module Stats = Ff_pmem.Stats
module Shard = Ff_shard.Shard
module W = Ff_workload.Workload

(* ------------------------------------------------------------------ *)
(* Profiler: site attribution through a real instrumented tree         *)
(* ------------------------------------------------------------------ *)

let test_profile_site_table () =
  let arena = Arena.create ~words:(1 lsl 16) () in
  (* Build first, then attach: stores made before the sink exists
     (node header of the empty tree) must not show up untagged. *)
  let t = Ff_fastfair.Tree.create ~node_bytes:256 arena in
  let tr = Trace.for_arena arena in
  Ff_fastfair.Tree.set_tracer t tr;
  let n = 300 in
  for k = 1 to n do
    Ff_fastfair.Tree.insert t ~key:k ~value:(W.value_of k)
  done;
  let p = Profile.of_trace ~ops:n tr in
  Alcotest.(check int) "ops recorded" n p.Profile.ops;
  Alcotest.(check bool) "stores attributed" true (p.Profile.total_stores > 0);
  Alcotest.(check bool) "fences attributed" true (p.Profile.total_fences > 0);
  let site name =
    List.find_opt (fun r -> r.Profile.site = name) p.Profile.rows
  in
  (match site "insert" with
  | None -> Alcotest.fail "no insert row"
  | Some r ->
      Alcotest.(check int) "one insert span per op" n r.Profile.spans;
      Alcotest.(check bool) "insert row carries fences" true (r.Profile.fences > 0));
  Alcotest.(check bool) "splits attributed" true (site "split" <> None);
  (* A sequential load through the tree API leaves nothing untagged. *)
  Alcotest.(check bool) "no untagged row" true (site "untagged" = None);
  let sum = List.fold_left (fun a r -> a + r.Profile.fences) 0 p.Profile.rows in
  Alcotest.(check int) "rows partition total fences" p.Profile.total_fences sum

(* ------------------------------------------------------------------ *)
(* SLO rules                                                           *)
(* ------------------------------------------------------------------ *)

let manual_tracer () =
  let clock = ref 0 in
  let tr = Trace.create ~clock:(fun () -> !clock) () in
  (clock, tr)

let test_slo_violation_names_rule () =
  let clock, tr = manual_tracer () in
  let reg = Trace.metrics tr in
  Metrics.observe reg "shard.latency_ns.insert" 5_000;
  clock := 1_000;
  let rules =
    [
      Slo.Latency
        {
          rule = "tight-insert";
          metric = "shard.latency_ns.insert";
          percentile = 99.;
          bound_ns = 10;
        };
      Slo.Latency
        {
          rule = "loose-insert";
          metric = "shard.latency_ns.insert";
          percentile = 99.;
          bound_ns = 1_000_000;
        };
      (* No samples yet: passes vacuously. *)
      Slo.Latency
        { rule = "absent"; metric = "no.such"; percentile = 99.; bound_ns = 1 };
    ]
  in
  let r = Slo.evaluate ~tracer:tr ~now:!clock rules in
  Alcotest.(check int) "all rules evaluated" 3 r.Slo.evaluated;
  Alcotest.(check (list string)) "only the tight rule fires" [ "tight-insert" ]
    (List.map (fun (v : Slo.violation) -> v.Slo.rule) r.Slo.violations);
  Alcotest.(check bool) "report not ok" false (Slo.ok r)

let test_slo_burn_rate () =
  let clock, tr = manual_tracer () in
  let reg = Trace.metrics tr in
  Metrics.add reg (Metrics.shard_label "shard.degraded" 0) 1;
  Metrics.add reg (Metrics.shard_label "shard.degraded" 3) 2;
  Metrics.add reg (Metrics.shard_label "shard.ops" 0) 200;
  Metrics.add reg (Metrics.shard_label "shard.ops" 1) 200;
  Alcotest.(check int) "per-shard labels sum under the prefix" 3
    (Metrics.counter_prefix_sum reg "shard.degraded");
  clock := 50;
  let rule ~max_per_1k =
    Slo.Burn_rate
      {
        rule = "degraded-budget";
        events = "shard.degraded";
        ops = "shard.ops";
        max_per_1k;
      }
  in
  (* 3 events over 400 ops = 7.5 per 1k. *)
  let hot = Slo.evaluate ~tracer:tr ~now:!clock [ rule ~max_per_1k:5. ] in
  Alcotest.(check bool) "budget burned" false (Slo.ok hot);
  let cold = Slo.evaluate ~tracer:tr ~now:!clock [ rule ~max_per_1k:10. ] in
  Alcotest.(check bool) "within budget" true (Slo.ok cold)

let test_slo_monitor_emits_instant () =
  let clock, tr = manual_tracer () in
  let reg = Trace.metrics tr in
  Metrics.observe reg "shard.latency_ns.insert" 5_000;
  let rules =
    [
      Slo.Latency
        {
          rule = "tight-insert";
          metric = "shard.latency_ns.insert";
          percentile = 99.;
          bound_ns = 10;
        };
    ]
  in
  let mon = Slo.Monitor.create ~window_ns:100 ~tracer:tr rules in
  clock := 100;
  Slo.Monitor.check mon ~now:!clock;
  let r = Slo.Monitor.report mon ~now:!clock in
  Alcotest.(check bool) "monitor saw the breach" false (Slo.ok r);
  Alcotest.(check int) "violation counter bumped" 1
    (Metrics.counter_value reg "slo.violations.tight-insert");
  let instants = ref 0 in
  Trace.iter_events tr (fun ~tid:_ ~ts:_ -> function
    | Trace.Inst { name = "slo_violation"; _ } -> incr instants
    | _ -> ());
  Alcotest.(check int) "slo_violation instant in the ring" 1 !instants

(* ------------------------------------------------------------------ *)
(* Snapshot headline                                                   *)
(* ------------------------------------------------------------------ *)

let test_snapshot_headline () =
  let arena = Arena.create ~words:(1 lsl 16) () in
  let t = Ff_fastfair.Tree.create ~node_bytes:256 arena in
  let tr = Trace.for_arena arena in
  Ff_fastfair.Tree.set_tracer t tr;
  let ops = 1000 in
  for k = 1 to ops do
    Ff_fastfair.Tree.insert t ~key:k ~value:(W.value_of k)
  done;
  let profile = Profile.of_trace ~ops tr in
  (* Samples at bucket bounds, so each percentile is an exact sample:
     ranks 1-980 at [a], 981-998 at [b], 999-1000 at [c]. *)
  let a = Hist.bound 20 and b = Hist.bound 30 and c = Hist.bound 40 in
  let lat = Hist.create () in
  List.iter
    (fun (v, n) ->
      for _ = 1 to n do
        Hist.add lat v
      done)
    [ (a, 980); (b, 18); (c, 2) ];
  let s =
    Snapshot.make ~label:"unit" ~scale:1. ~seed:1 ~ops ~elapsed_ns:2_000_000
      ~latency:lat ~profile ()
  in
  Alcotest.(check (float 1e-9)) "kops = ops per simulated ms" 500.
    s.Snapshot.kops;
  Alcotest.(check (list int)) "p50/p99/p999 from the histogram" [ a; b; c ]
    [ s.Snapshot.p50_ns; s.Snapshot.p99_ns; s.Snapshot.p999_ns ];
  Alcotest.(check bool) "profile attributed fences" true
    (profile.Profile.total_fences > 0);
  Alcotest.(check (float 1e-9)) "fences/op from the profile"
    (float_of_int profile.Profile.total_fences /. float_of_int ops)
    s.Snapshot.fences_per_op;
  Alcotest.(check (float 1e-9)) "flushes/op from the profile"
    (float_of_int profile.Profile.total_flushes /. float_of_int ops)
    s.Snapshot.flushes_per_op

(* ------------------------------------------------------------------ *)
(* Satellite: sharded media-fault run -> well-formed, deterministic     *)
(* Perfetto trace carrying degraded + re-admission events              *)
(* ------------------------------------------------------------------ *)

let sharded_fault_trace seed =
  let clock_ref = ref (fun () -> 0) in
  let tr = Trace.create ~capacity:(1 lsl 14) ~clock:(fun () -> !clock_ref ()) () in
  let t =
    Shard.create ~words:(1 lsl 16) ~batch_cap:16 ~tracer:tr ~inner:"fastfair"
      ~shards:2 ()
  in
  let arenas = Shard.arenas t in
  clock_ref :=
    (fun () ->
      Array.fold_left
        (fun acc a -> max acc (Stats.total_ns (Arena.total_stats a)))
        0 arenas);
  Array.iter (fun a -> Trace.attach_arena tr a) arenas;
  let rng = Prng.create seed in
  let ks = W.distinct_uniform rng ~n:400 ~space:4000 in
  ignore (Shard.submit t (Array.map (fun k -> W.Insert k) ks));
  ignore (Shard.drain_queues t);
  (* Poison shard 0's leftmost leaf header — a line the scrub repairs
     in place — and probe a key that descends into it. *)
  let a0 = arenas.(0) in
  let module L = Ff_fastfair.Layout in
  let rec leftmost node =
    if Arena.peek a0 (node + L.off_level) = 0 then node
    else leftmost (Arena.peek a0 (node + L.off_leftmost))
  in
  Arena.poison_line a0 (leftmost (Arena.root_get a0 0) / Arena.words_per_line);
  (try
     for k = 1 to 4000 do
       if Shard.shard_of_key t k = 0 then begin
         ignore (Shard.search t k);
         raise Exit
       end
     done
   with
  | Exit -> ()
  | Shard.Degraded _ -> ());
  Alcotest.(check bool) "shard 0 degraded" false (Shard.healthy t).(0);
  Shard.power_fail t Ff_pmem.Storelog.Keep_all;
  Shard.recover t;
  Alcotest.(check bool) "shard 0 re-admitted" true (Shard.healthy t).(0);
  Shard.close t;
  tr

let test_fault_trace_events () =
  let tr = sharded_fault_trace 7 in
  let degraded = ref 0 and readmit = ref 0 in
  Trace.iter_events tr (fun ~tid:_ ~ts:_ -> function
    | Trace.Inst { name = "degraded"; _ } -> incr degraded
    | Trace.Inst { name = "readmit"; _ } -> incr readmit
    | _ -> ());
  Alcotest.(check int) "one degraded instant" 1 !degraded;
  Alcotest.(check int) "one readmit instant" 1 !readmit;
  (* The export is well-formed JSON with a non-empty event array. *)
  let doc = J.of_string (Ff_trace.Perfetto.to_string tr) in
  match Option.bind (J.member "traceEvents" doc) J.to_list with
  | None -> Alcotest.fail "no traceEvents array"
  | Some events ->
      Alcotest.(check bool) "events present" true (List.length events > 0)

let test_fault_trace_deterministic () =
  let s1 = Ff_trace.Perfetto.to_string (sharded_fault_trace 7) in
  let s2 = Ff_trace.Perfetto.to_string (sharded_fault_trace 7) in
  Alcotest.(check bool) "same seed, byte-identical trace" true (s1 = s2);
  let s3 = Ff_trace.Perfetto.to_string (sharded_fault_trace 8) in
  Alcotest.(check bool) "different seed, different trace" true (s1 <> s3)

let suite =
  [
    Alcotest.test_case "profile site table" `Quick test_profile_site_table;
    Alcotest.test_case "slo violation names rule" `Quick
      test_slo_violation_names_rule;
    Alcotest.test_case "slo burn rate" `Quick test_slo_burn_rate;
    Alcotest.test_case "slo monitor instant" `Quick
      test_slo_monitor_emits_instant;
    Alcotest.test_case "snapshot headline" `Quick test_snapshot_headline;
    Alcotest.test_case "fault trace events" `Quick test_fault_trace_events;
    Alcotest.test_case "fault trace deterministic" `Quick
      test_fault_trace_deterministic;
  ]
