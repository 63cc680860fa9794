module Arena = Ff_pmem.Arena
module Pconfig = Ff_pmem.Config
module Storelog = Ff_pmem.Storelog
module Mcsim = Ff_mcsim.Mcsim
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Locks = Ff_index.Locks
module Trace = Ff_trace.Trace
module Cx = Counterexample

type explorer = Dfs | Pct

type kind = Linearizability | Tolerance | Durability

let kind_to_string = function
  | Linearizability -> "linearizability"
  | Tolerance -> "tolerance"
  | Durability -> "durability"

type violation = { kind : kind; detail : string; counterexample : Cx.t }

type report = {
  index : string;
  schedules_run : int;
  exhausted : bool;
  crash_runs : int;
  ops_checked : int;
  violations : violation list;
  skipped : string option;
  crash_note : string option;
}

let empty_report index =
  {
    index;
    schedules_run = 0;
    exhausted = false;
    crash_runs = 0;
    ops_checked = 0;
    violations = [];
    skipped = None;
    crash_note = None;
  }

let report_summary r =
  match r.skipped with
  | Some reason -> Printf.sprintf "%s: skipped (%s)" r.index reason
  | None ->
      let count k = List.length (List.filter (fun v -> v.kind = k) r.violations) in
      Printf.sprintf
        "%s: %d schedules%s, %d ops checked, %d crash executions -> %d \
         linearizability, %d tolerance, %d durability violations%s"
        r.index r.schedules_run
        (if r.exhausted then " (exhaustive)" else "")
        r.ops_checked r.crash_runs (count Linearizability) (count Tolerance)
        (count Durability)
        (match r.crash_note with None -> "" | Some n -> " [" ^ n ^ "]")

let mode_of_crash (c : Cx.crash) =
  match c.Cx.mode with
  | "keep_none" -> Storelog.Keep_none
  | "keep_all" -> Storelog.Keep_all
  | "random_eviction" -> Storelog.Random_eviction (Prng.create c.Cx.crash_seed)
  | "non_tso_cutoff" ->
      let cutoff =
        match c.Cx.cutoff with
        | Some e -> e
        | None -> invalid_arg "counterexample: non_tso_cutoff without cutoff"
      in
      Storelog.Non_tso_cutoff (cutoff, Prng.create c.Cx.crash_seed)
  | s -> invalid_arg (Printf.sprintf "counterexample: unknown crash mode %S" s)

let with_mutant mutant f =
  match mutant with
  | None -> f ()
  | Some (flag, armed) ->
      let prev = !flag in
      flag := armed;
      Fun.protect ~finally:(fun () -> flag := prev) f

let counterexample ~index ~node_bytes ?(writers = 1) ?(readers = 0)
    ?(non_tso = false) ?(elide_flush = false) ~ops_per_thread ~keyspace
    ~prefill ~seed () =
  {
    Cx.index;
    node_bytes;
    kind = "";
    workload =
      { writers; readers; ops_per_thread; keyspace; prefill; seed; non_tso; elide_flush };
    tx = None;
    snap = None;
    rebal = None;
    repl = None;
    decisions = [||];
    crash = None;
    detail = "";
  }

(* ------------------------------------------------------------------ *)
(* Helpers shared by the families' setups and oracles                  *)
(* ------------------------------------------------------------------ *)

(* Every registered index at its default node size takes under 13
   words per written key (the snapshot index, which keeps a version per
   write); 64 per key leaves room to spare, and the floor holds the
   base nodes and shard roots of a tiny run several times over. *)
let arena ?(non_tso = false) ~keys () =
  let config =
    if non_tso then { Pconfig.default with Pconfig.memory_order = Pconfig.Non_tso }
    else Pconfig.default
  in
  Arena.create ~config ~words:(max (1 lsl 16) (64 * keys)) ()

let index_config d ~node_bytes =
  let lock_mode =
    if D.supports_lock_mode d Locks.Sim then Locks.Sim else Locks.Single
  in
  { D.default_config with D.node_bytes; lock_mode }

let in_sim arena f = ignore (Mcsim.run ~cores:1 ~arena [| (fun _ -> f ()) |])

let dump ~keyspace search =
  let acc = ref [] in
  for k = keyspace downto 1 do
    match search k with Some v -> acc := (k, v) :: !acc | None -> ()
  done;
  !acc

let pre_recovery_tolerance ~keyspace ~written open_ =
  let fabricated search =
    List.find_opt
      (fun (k, v) -> not (written k v))
      (List.filter_map
         (fun k -> Option.map (fun v -> (k, v)) (search k))
         (List.init keyspace succ))
  in
  match fabricated (open_ ()).Intf.search with
  | None -> []
  | Some (k, v) ->
      [
        ( Tolerance,
          Printf.sprintf "pre-recovery reader returned fabricated binding %d -> %d"
            k v );
      ]
  | exception e -> [ (Tolerance, "pre-recovery reader raised: " ^ Printexc.to_string e) ]

(* ------------------------------------------------------------------ *)
(* Family descriptions                                                 *)
(* ------------------------------------------------------------------ *)

type point = int * int

type 'x setup = {
  arenas : Arena.t array;
  threads : (int -> unit) array;
  finish : unit -> 'x;
}

type 'x run = {
  result : 'x;
  arenas : Arena.t array;
  crashed : bool;
  fences : point list;
}

type finding = kind * string

type budget = {
  explorer : explorer;
  schedules : int;
  seed : int;
  max_crash_points : int;
  crash_budget : int;
}

type 'x t = {
  index : string;
  gate : string option;
  crash_gate : string option;
  budget : budget;
  probe_cutoffs : bool;
  canonical_fifo : bool;
  crashed_only : bool;
  mutant : (bool ref * bool) option;
  setup : unit -> 'x setup;
  ops : 'x -> int;
  live : 'x run -> finding list;
  crash : 'x run -> Cx.crash -> finding list;
  counterexample : arena:int -> Cx.t;
}

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(* One controlled execution: the family's setup builds and prefills on
   fresh arenas, then the concurrent phase runs under [policy] at
   quantum 1 on one simulated core, so the policy's decision sequence
   is a total order over every PM access.  Flushes and fences on every
   arena are recorded as crash candidates; [crash_at] is an absolute
   store count on one arena, where the crash leaves in-flight
   operations pending. *)
let execute f ~policy ~crash_at =
  let s = f.setup () in
  let fences = ref [] in
  let nop = fun (_ : int) -> () and nop2 = fun (_ : int) (_ : int) -> () in
  Array.iteri
    (fun aid a ->
      (* Durability points: explicit fences and non-group flushes (a
         flush is clflush_with_mfence, so under TSO flushes are where
         epochs advance). *)
      let mark _ = fences := (aid, Arena.store_count a) :: !fences in
      Arena.set_event_sink a
        (Some
           {
             Arena.ev_store = nop;
             ev_flush = mark;
             ev_fence = (fun () -> mark 0);
             ev_alloc = nop2;
             ev_free = nop2;
             ev_crash = (fun () -> ());
           }))
    s.arenas;
  let run () =
    ignore (Mcsim.run ~cores:1 ~quantum_ns:1 ~policy ~arena:s.arenas.(0) s.threads)
  in
  let crashed =
    match crash_at with
    | Some (aid, k) when aid < Array.length s.arenas ->
        let a = s.arenas.(aid) in
        Arena.crash_after a (k - Arena.store_count a) run
    | Some _ | None -> run (); false
  in
  Array.iter (fun a -> Arena.set_event_sink a None) s.arenas;
  {
    result = s.finish ();
    arenas = s.arenas;
    crashed;
    fences = List.sort_uniq compare !fences;
  }

(* Re-execute along a recorded decision prefix (Fifo past its end). *)
let replay_to f decisions crash_at =
  let policy =
    Schedule.record_policy ~prefix:decisions ~fallback:Mcsim.Fifo
      (Schedule.recorder ())
  in
  execute f ~policy ~crash_at

let crash_findings f r crash =
  if f.crashed_only && not r.crashed then [] else f.crash r crash

let sample_evenly max_n lst =
  let n = List.length lst in
  if n <= max_n then lst
  else
    let arr = Array.of_list lst in
    List.init max_n (fun i -> arr.(i * n / max_n))

let stamp f ~arena ~decisions ~crash (kind, detail) =
  {
    kind;
    detail;
    counterexample =
      {
        (f.counterexample ~arena) with
        Cx.kind = kind_to_string kind;
        decisions;
        crash;
        detail;
      };
  }

let run ?(tracer = Trace.null) f =
  match f.gate with
  | Some reason -> { (empty_report f.index) with skipped = Some reason }
  | None ->
      with_mutant f.mutant @@ fun () ->
      let b = f.budget in
      let sched_span = Trace.intern tracer "check.schedule" in
      let crash_inst = Trace.intern tracer "check.crash_point" in
      let crash_enabled = f.crash_gate = None in
      let budget = ref b.crash_budget in
      let crash_runs = ref 0 in
      let ops_checked = ref 0 in
      let violations = ref [] in
      let add ~arena ~decisions ~crash finding =
        violations := stamp f ~arena ~decisions ~crash finding :: !violations
      in
      (* Replay the schedule up to the crash point and validate the
         given crash semantics on the result. *)
      let crash_run choices aid crash =
        incr crash_runs;
        decr budget;
        Trace.instant tracer crash_inst crash.Cx.store_count;
        let r = replay_to f choices (Some (aid, crash.Cx.store_count)) in
        List.iter
          (add ~arena:aid ~decisions:choices ~crash:(Some crash))
          (crash_findings f r crash)
      in
      (* Full product for one explored schedule: every (sampled) fence
         point x every crash mode, within the global budget. *)
      let crash_sweep choices fences =
        List.iter
          (fun (aid, k) ->
            if !budget > 0 then begin
              let crash mode cutoff =
                { Cx.store_count = k; mode; crash_seed = k; cutoff }
              in
              let cutoffs =
                if not f.probe_cutoffs then []
                else
                  (* Non-TSO probe: replay to the crash point to learn
                     which epochs still have pending stores, then sweep
                     every cutoff exhaustively. *)
                  let r = replay_to f choices (Some (aid, k)) in
                  List.map
                    (fun e -> crash "non_tso_cutoff" (Some e))
                    (Arena.pending_epochs r.arenas.(aid))
              in
              List.iter
                (fun c -> if !budget > 0 then crash_run choices aid c)
                (List.map
                   (fun m -> crash m None)
                   [ "keep_none"; "keep_all"; "random_eviction" ]
                @ cutoffs)
            end)
          (sample_evenly b.max_crash_points fences)
      in
      (* One explored schedule: execute, run the live oracle, then the
         crash product. *)
      let check_schedule policy rc =
        let r = execute f ~policy ~crash_at:None in
        let choices = Schedule.choices rc in
        Trace.span_begin tracer sched_span (Array.length choices);
        ops_checked := !ops_checked + f.ops r.result;
        List.iter (add ~arena:0 ~decisions:choices ~crash:None) (f.live r);
        if crash_enabled then crash_sweep choices r.fences;
        Trace.span_end tracer sched_span
      in
      if f.canonical_fifo then begin
        let rc = Schedule.recorder () in
        check_schedule (Schedule.record_policy ~fallback:Mcsim.Fifo rc) rc
      end;
      let exploration =
        match b.explorer with
        | Dfs ->
            Schedule.dfs ~max_schedules:b.schedules (fun ~prefix ->
                let rc = Schedule.recorder () in
                let policy = Schedule.record_policy ~prefix ~fallback:Mcsim.Fifo rc in
                check_schedule policy rc;
                (Schedule.decisions rc, ()))
        | Pct ->
            Schedule.pct ~schedules:b.schedules ~seed:b.seed (fun ~policy ->
                let rc = Schedule.recorder () in
                check_schedule (Schedule.record_policy ~fallback:policy rc) rc)
      in
      {
        index = f.index;
        schedules_run = exploration.Schedule.schedules;
        exhausted = exploration.Schedule.exhausted;
        crash_runs = !crash_runs;
        ops_checked = !ops_checked;
        violations = List.rev !violations;
        skipped = None;
        crash_note =
          (if crash_enabled && !budget <= 0 then
             Some
               (Printf.sprintf
                  "crash budget (%d executions) exhausted; sweep truncated"
                  b.crash_budget)
           else f.crash_gate);
      }

let replay ?(arena = 0) f (cx : Cx.t) =
  match f.gate with
  | Some reason -> { (empty_report f.index) with skipped = Some reason }
  | None ->
      with_mutant f.mutant @@ fun () ->
      let crash_at = Option.map (fun c -> (arena, c.Cx.store_count)) cx.Cx.crash in
      let r = replay_to f cx.Cx.decisions crash_at in
      let findings =
        match cx.Cx.crash with
        | None -> f.live r
        | Some crash -> crash_findings f r crash
      in
      {
        (empty_report f.index) with
        schedules_run = 1;
        crash_runs = (if crash_at = None then 0 else 1);
        ops_checked = f.ops r.result;
        violations =
          List.map
            (fun (kind, detail) ->
              { kind; detail; counterexample = { cx with Cx.detail = detail } })
            findings;
      }
