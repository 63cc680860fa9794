module Trace = Ff_trace.Trace
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Prng = Ff_util.Prng
module Cluster = Ff_cluster.Cluster
module Fabric = Ff_net.Fabric
module Cx = Counterexample

let default = { Sweep.default with Cx.ops = 60; keyspace = 12; seed = 42; schedules = 12 }

(* The scenario product has no Mcsim schedules, no prefill and no
   crash sweep to turn off: a config asking for one is refused, not
   ignored. *)
let checkable d (cfg : Cx.config) =
  let c = d.D.caps in
  if not (c.D.is_persistent && c.D.has_recovery) then
    Some "not replication-checkable: volatile or no recovery"
  else if cfg.nodes < 2 then Some "need at least 2 nodes"
  else if cfg.ops < 1 || cfg.keyspace < 2 then
    Some "need at least 1 op and keyspace >= 2"
  else if not cfg.crashes then
    Some "every scenario kills a primary: crashes cannot be turned off"
  else if cfg.non_tso then Some "the cluster runs under TSO only: non_tso does not apply"
  else if cfg.explorer <> Cx.Pct then
    Some "scenarios are enumerated: only the pct explorer applies"
  else if cfg.prefill <> default.prefill then
    Some
      (Printf.sprintf "the script needs no prefill: prefill must stay at its default %d"
         default.prefill)
  else None

(* ------------------------------------------------------------------ *)
(* Deterministic client script                                         *)
(* ------------------------------------------------------------------ *)

(* Values are the script position + 1, so per-key values are strictly
   increasing and a stale read is detectable by inequality alone.  The
   script is the commit log: entry [j] is the op at position [j], so
   prefix [j] is every write issued before it. *)
let gen_script (cfg : Cx.config) =
  let rng = Prng.create (cfg.seed * 31 + 17) in
  Spec.make ~initial:[]
    (Array.init cfg.ops (fun j ->
         let k = 1 + Prng.int rng cfg.keyspace in
         match Prng.int rng 10 with
         | 0 | 1 -> [ Spec.Search k ]
         | 2 -> [ Spec.Delete k ]
         | _ -> [ Spec.Insert (k, j + 1) ]))

(* ------------------------------------------------------------------ *)
(* Scenario product                                                    *)
(* ------------------------------------------------------------------ *)

(* What follows the kill.  [Failover] promotes the backup and the
   victim rejoins as a backup at settle; [Restart] brings the victim
   straight back while it is still the route primary (no failover at
   all); [Restart_refail] does that and then kills the primary a
   second time later in the script, failing over for real, so the
   audit reads from the backup the post-restart acks had to reach. *)
type recovery = Failover | Restart | Restart_refail

let recovery_to_string = function
  | Failover -> "failover"
  | Restart -> "restart"
  | Restart_refail -> "restart_refail"

(* Scenario [i] of the product: every field derives from the seed and
   [i], so an artifact records only [i]. *)
let scenario (cfg : Cx.config) i =
  if i < 0 then invalid_arg (Printf.sprintf "Replcheck: negative scenario index %d" i);
  let kill_points = [| -1; cfg.ops / 4; cfg.ops / 2; 3 * cfg.ops / 4 |] in
  let recoveries = [| Failover; Restart; Restart_refail |] in
  let fault_seed = (cfg.seed * 7919) + (101 * i) in
  let kill_at = kill_points.(i mod Array.length kill_points) in
  let recovery =
    recoveries.(i / Array.length kill_points mod Array.length recoveries)
  in
  let partition = i / 2 mod 2 = 1 in
  let mode = if i mod 2 = 0 then "keep_all" else "keep_none" in
  (fault_seed, kill_at, recovery, partition, mode)

(* ------------------------------------------------------------------ *)
(* One scenario                                                        *)
(* ------------------------------------------------------------------ *)

(* Drive scenario [i]'s script against a fresh cluster; kill the hot
   shard's primary after [kill_at] acks (optionally partitioning it
   from its backup a few ops earlier), recover per [recovery] — fail
   over, or restart the victim in place with no failover, or restart
   in place and fail over on a second kill — finish the script, then
   heal, restart any dead node and audit every key.  The kill is
   recorded as the crash: [store_count] is the ack count it fired
   after, and [mode] the crash mode the victim lost its pending stores
   under. *)
let run_scenario (cfg : Cx.config) ~tracer ~name i =
  let fault_seed, kill_at, recovery, partition, mode = scenario cfg i in
  let crash =
    { Cx.arena = 0; store_count = kill_at; mode; crash_seed = fault_seed; cutoff = None }
  in
  let crash_mode = Sweep.mode_of_crash crash in
  let script = gen_script cfg in
  let ccfg =
    {
      Cluster.default with
      nodes = cfg.nodes;
      shards = cfg.shards;
      inner = name;
      words = 1 lsl 14;
      seed = fault_seed;
      faults = Fabric.default_faults;
    }
  in
  let cl = Cluster.create ~tracer ccfg in
  (* [acked.(k)]: the prefix just after the last acknowledged write on
     [k] (0: never acked).  A read of [k] may see that state or any
     later attempt on [k]: the window [acked.(k), issued]. *)
  let acked = Array.make (cfg.keyspace + 1) 0 in
  let violations = ref [] in
  let crash_runs = ref 0 in
  let killed = ref (-1) in
  let acks = ref 0 in
  let hot = 0 in
  let add kind detail =
    violations :=
      {
        Sweep.kind;
        detail;
        counterexample =
          {
            Cx.family = "replica";
            index = name;
            config = cfg;
            kind = Sweep.kind_to_string kind;
            decisions = [| i |];
            crash = (if kill_at < 0 then None else Some crash);
            detail;
          };
      }
      :: !violations
  in
  let scen_tag =
    Printf.sprintf
      "[fault_seed=%d kill_at=%d recovery=%s partition=%b mode=%s]" fault_seed
      kill_at
      (recovery_to_string recovery)
      partition mode
  in
  let window ~issued k v =
    Spec.window script ~lo:acked.(k) ~hi:issued (Spec.Key (k, v))
  in
  (* The partition opens a few acks before the kill, so a primary
     that acks unreplicated writes (the mutant) has a window to do
     damage before it dies. *)
  let part_at =
    if partition && kill_at >= 0 then max 0 (kill_at - 6) else max_int
  in
  let partitioned = ref false in
  let maybe_partition () =
    if (not !partitioned) && !killed < 0 && !acks >= part_at then begin
      Cluster.partition cl
        ~a:(Cluster.primary_of cl ~shard:hot)
        ~b:(Cluster.backup_of cl ~shard:hot);
      partitioned := true
    end
  in
  let dead = ref (-1) in
  let promote_away victim =
    (* The detector's action, taken deterministically: promote the
       backup of every shard the victim led. *)
    for s = 0 to cfg.shards - 1 do
      if Cluster.primary_of cl ~shard:s = victim then
        ignore (Cluster.failover cl ~shard:s)
    done
  in
  let maybe_kill () =
    if !killed < 0 && kill_at >= 0 && !acks >= kill_at then begin
      let victim = Cluster.primary_of cl ~shard:hot in
      Cluster.kill_node ~mode:crash_mode cl victim;
      incr crash_runs;
      killed := victim;
      match recovery with
      | Failover ->
          dead := victim;
          promote_away victim
      | Restart | Restart_refail ->
          (* Crash-restart in place: the victim comes straight back
             while it is still the route primary, with no failover in
             between — the schedule that catches a reborn primary
             recycling seqnos its live backup already acked. *)
          Cluster.restart_node cl victim
    end
  in
  (* Second act of [Restart_refail]: once the restarted primary has
     taken more acked writes, kill it again and this time fail over,
     so the audit reads from the backup those acks had to reach. *)
  let rekill_at =
    if kill_at < 0 then max_int else kill_at + max 6 (cfg.ops / 6)
  in
  let maybe_rekill () =
    if
      recovery = Restart_refail
      && !killed >= 0
      && !dead < 0
      && !acks >= rekill_at
    then begin
      let victim = Cluster.primary_of cl ~shard:hot in
      Cluster.kill_node ~mode:crash_mode cl victim;
      incr crash_runs;
      dead := victim;
      promote_away victim
    end
  in
  let ack j k = function
    | Ok () ->
        acked.(k) <- j + 1;
        incr acks
    | Error _ -> ()
  in
  Array.iteri
    (fun j ->
      List.iter (fun op ->
          maybe_partition ();
          maybe_kill ();
          maybe_rekill ();
          match op with
          | Spec.Insert (k, v) -> ack j k (Cluster.put cl k v)
          | Spec.Delete k -> ack j k (Cluster.del cl k)
          | Spec.Search k -> (
              match Cluster.get cl k with
              | Error _ -> ()
              | Ok v -> (
                  match window ~issued:j k v with
                  | Ok _ -> ()
                  | Error why ->
                      add Sweep.Linearizability
                        (Printf.sprintf "stale read (during run): %s %s" why
                           scen_tag)))))
    (Spec.log script);
  maybe_kill ();
  maybe_rekill ();
  (* Settle: heal the fabric, bring any dead node back (segment
     resync) and audit the whole keyspace against the oracle. *)
  Cluster.heal cl;
  if !dead >= 0 then Cluster.restart_node cl !dead;
  for _ = 1 to 3 do
    Cluster.tick cl
  done;
  for k = 1 to cfg.keyspace do
    let rec read tries =
      match Cluster.get cl k with
      | Ok v -> Some v
      | Error _ ->
          if tries <= 0 then None
          else begin
            Cluster.tick cl;
            read (tries - 1)
          end
    in
    match read 10 with
    | None ->
        add Sweep.Tolerance
          (Printf.sprintf "audit read unavailable after recovery: key %d %s" k
             scen_tag)
    | Some v -> (
        match window ~issued:(Spec.length script) k v with
        | Ok _ -> ()
        | Error why ->
            add
              (if acked.(k) > 0 then Sweep.Durability else Sweep.Linearizability)
              (Printf.sprintf "lost acknowledged write after recovery: %s %s" why
                 scen_tag))
  done;
  Cluster.close cl;
  (List.rev !violations, !crash_runs, Spec.length script + cfg.keyspace)

let run ?(config = default) ?(tracer = Trace.null) name =
  let cfg = config in
  let d = Registry.find_exn name in
  match checkable d cfg with
  | Some reason -> { (Sweep.empty_report name) with skipped = Some reason }
  | None ->
      Sweep.with_mutant (Some Cluster.mutant_ack_before_replicate) cfg.mutant
      @@ fun () ->
      let scen_span = Trace.intern tracer "replcheck.scenario" in
      let crash_runs = ref 0 in
      let ops_checked = ref 0 in
      let violations = ref [] in
      for i = 0 to cfg.schedules - 1 do
        Trace.span_begin tracer scen_span i;
        let vs, cr, ops = run_scenario cfg ~tracer ~name i in
        Trace.span_end tracer scen_span;
        violations := !violations @ vs;
        crash_runs := !crash_runs + cr;
        ops_checked := !ops_checked + ops
      done;
      {
        (Sweep.empty_report name) with
        schedules_run = cfg.schedules;
        crash_runs = !crash_runs;
        ops_checked = !ops_checked;
        violations = !violations;
      }

let replay (cx : Cx.t) =
  let i =
    match cx.decisions with
    | [| i |] -> i
    | _ -> invalid_arg "Replcheck: a replica counterexample records one scenario index"
  in
  (* The crash record only shows the kill, but must name a known mode. *)
  Option.iter (fun c -> ignore (Sweep.mode_of_crash c)) cx.crash;
  Sweep.with_mutant (Some Cluster.mutant_ack_before_replicate) cx.config.mutant
  @@ fun () ->
  let vs, cr, ops = run_scenario cx.config ~tracer:Trace.null ~name:cx.index i in
  {
    (Sweep.empty_report cx.index) with
    schedules_run = 1;
    crash_runs = cr;
    ops_checked = ops;
    violations = vs;
  }
