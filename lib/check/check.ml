module Arena = Ff_pmem.Arena
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Locks = Ff_index.Locks
module Cx = Counterexample
include Sweep

type config = {
  writers : int;
  readers : int;
  ops_per_thread : int;
  keyspace : int;
  prefill : int;
  seed : int;
  explorer : explorer;
  schedules : int;
  crashes : bool;
  max_crash_points : int;
  crash_budget : int;
  non_tso : bool;
  elide_flush : bool;
  node_bytes : int option;
}

let default =
  {
    writers = 2;
    readers = 1;
    ops_per_thread = 2;
    keyspace = 8;
    prefill = 4;
    seed = 1;
    explorer = Pct;
    schedules = 16;
    crashes = true;
    max_crash_points = 12;
    crash_budget = 256;
    non_tso = false;
    elide_flush = false;
    node_bytes = None;
  }

(* An index is schedule-checkable when concurrent threads are legal:
   either the structure drives Mcsim locks itself (Sim mode), or its
   readers are lock-free and at most one writer runs. *)
let checkable d cfg =
  if cfg.writers + cfg.readers < 2 then Some "need at least 2 threads"
  else if (cfg.writers + cfg.readers) * cfg.ops_per_thread > Linearize.max_ops then
    Some
      (Printf.sprintf "history would exceed %d ops (reduce threads/ops)"
         Linearize.max_ops)
  else if D.supports_lock_mode d Locks.Sim then None
  else if d.D.caps.D.lock_free_reads && cfg.writers <= 1 then None
  else
    Some
      "not concurrency-checkable: no Sim lock mode and readers are not \
       lock-free (or >1 writer without locks)"

let crash_checkable d =
  let c = d.D.caps in
  if c.D.is_persistent && c.D.has_recovery then None
  else Some "not crash-checkable: volatile or no recovery"

(* ------------------------------------------------------------------ *)
(* The linearizability family                                          *)
(* ------------------------------------------------------------------ *)

type workload = {
  scripts : (int * Spec.op) list array;  (* per thread: (opid, op) *)
  spec : Spec.t;  (* the prefill, then every op in opid order *)
}

(* Values come from one counter, so every insert (prefill included)
   writes a distinct value — the registry's uniqueness contract, and
   what lets the tolerance check recognize a fabricated binding. *)
let gen_workload cfg =
  let values = Spec.values () in
  let initial = Spec.prefill values ~prefill:cfg.prefill ~keyspace:cfg.keyspace in
  let master = Prng.create cfg.seed in
  let opid = ref 0 in
  let scripts =
    Array.init (cfg.writers + cfg.readers) (fun tid ->
        let rng = Prng.split master in
        List.init cfg.ops_per_thread (fun _ ->
            let op =
              if tid < cfg.writers then Spec.draw values rng ~keyspace:cfg.keyspace
              else Spec.Search (1 + Prng.int rng cfg.keyspace)
            in
            let id = !opid in
            incr opid;
            (id, op)))
  in
  let log = List.map (fun (_, op) -> [ op ]) (List.concat (Array.to_list scripts)) in
  { scripts; spec = Spec.make ~initial (Array.of_list log) }

type exec = {
  arena : Arena.t;
  ops : Intf.ops;
  calls : Linearize.call array;  (* only ops that were invoked *)
}

(* Every thread stamps invocation and response of each op into a
   shared history. *)
let setup cfg d w () =
  let arena =
    Sweep.arena ~non_tso:cfg.non_tso
      ~keys:(cfg.keyspace + cfg.prefill + (cfg.writers * cfg.ops_per_thread))
      ()
  in
  let dcfg = index_config d ~node_bytes:cfg.node_bytes in
  let ops = Registry.build ~config:dcfg d.D.name arena in
  Sweep.in_sim arena (fun () ->
      List.iter (fun (k, v) -> ops.Intf.insert k v) (Spec.initial w.spec));
  if cfg.elide_flush then Arena.set_flush_elision arena true;
  let total = Array.fold_left (fun a s -> a + List.length s) 0 w.scripts in
  let calls = Array.make total (Linearize.make_call ~opid:0 ~tid:0 (Spec.Search 0)) in
  Array.iteri
    (fun tid script ->
      List.iter
        (fun (opid, op) -> calls.(opid) <- Linearize.make_call ~opid ~tid op)
        script)
    w.scripts;
  let stamp = ref 0 in
  let tick () =
    incr stamp;
    !stamp
  in
  let body tid _ =
    List.iter
      (fun (opid, op) ->
        let c = calls.(opid) in
        c.Linearize.inv <- tick ();
        let resp =
          match op with
          | Spec.Insert (k, v) ->
              ops.Intf.insert k v;
              Spec.Done
          | Spec.Delete k -> Spec.Deleted (ops.Intf.delete k)
          | Spec.Search k -> Spec.Found (ops.Intf.search k)
        in
        c.Linearize.resp <- Some resp;
        c.Linearize.ret <- tick ())
      w.scripts.(tid)
  in
  {
    Sweep.arenas = [| arena |];
    threads = Array.init (Array.length w.scripts) body;
    finish =
      (fun () ->
        Arena.set_flush_elision arena false;
        {
          arena;
          ops;
          calls =
            Array.of_list
              (List.filter (fun c -> c.Linearize.inv >= 0) (Array.to_list calls));
        });
  }

(* Linearizability of the history against the final bindings, read
   through the live handle inside the simulator (it may hold Sim
   locks). *)
let validate_live cfg w (r : exec Sweep.run) =
  let x = r.result in
  let final = ref [] in
  Sweep.in_sim x.arena (fun () ->
      final := Sweep.dump ~keyspace:cfg.keyspace x.ops.Intf.search);
  match Linearize.check ~initial:(Spec.initial w.spec) ~final:!final x.calls with
  | Ok () -> []
  | Error detail -> [ (Linearizability, detail) ]

(* Apply the crash and validate: pre-recovery reader tolerance
   (lock-free readers only), then recovery and durable
   linearizability of the invoked history against the post-recovery
   dump. *)
let validate_crash cfg d w (r : exec Sweep.run) (crash : Cx.crash) =
  let x = r.result in
  Arena.power_fail x.arena (mode_of_crash crash);
  let sdcfg =
    { (index_config d ~node_bytes:cfg.node_bytes) with D.lock_mode = Locks.Single }
  in
  let tolerance =
    if d.D.caps.D.lock_free_reads then
      pre_recovery_tolerance ~keyspace:cfg.keyspace ~written:(Spec.written w.spec)
        (fun () -> d.D.open_existing sdcfg x.arena)
    else []
  in
  tolerance
  @
  match
    let o = d.D.open_existing sdcfg x.arena in
    o.Intf.recover ();
    Sweep.dump ~keyspace:cfg.keyspace o.Intf.search
  with
  | dump -> (
      match Linearize.check ~initial:(Spec.initial w.spec) ~final:dump x.calls with
      | Ok () -> []
      | Error msg -> [ (Durability, msg) ])
  | exception e -> [ (Durability, "recovery raised: " ^ Printexc.to_string e) ]

let family cfg name =
  let d = Registry.find_exn name in
  let w = lazy (gen_workload cfg) in
  {
    Sweep.index = name;
    gate = checkable d cfg;
    crash_gate =
      (if not cfg.crashes then Some "crash engine disabled" else crash_checkable d);
    budget =
      {
        explorer = cfg.explorer;
        schedules = cfg.schedules;
        seed = cfg.seed;
        max_crash_points = cfg.max_crash_points;
        crash_budget = cfg.crash_budget;
      };
    probe_cutoffs = cfg.non_tso;
    canonical_fifo = false;
    crashed_only = false;
    mutant = None;
    setup = (fun () -> setup cfg d (Lazy.force w) ());
    ops = (fun x -> Array.length x.calls);
    live = (fun r -> validate_live cfg (Lazy.force w) r);
    crash = (fun r c -> validate_crash cfg d (Lazy.force w) r c);
    counterexample =
      (fun ~arena:_ ->
        Sweep.counterexample ~index:name ~node_bytes:cfg.node_bytes
          ~writers:cfg.writers ~readers:cfg.readers ~non_tso:cfg.non_tso
          ~elide_flush:cfg.elide_flush ~ops_per_thread:cfg.ops_per_thread
          ~keyspace:cfg.keyspace ~prefill:cfg.prefill ~seed:cfg.seed ());
  }

let run ?config:(cfg = default) ?tracer name = Sweep.run ?tracer (family cfg name)

let config_of_counterexample (cx : Cx.t) =
  let w = cx.Cx.workload in
  {
    default with
    writers = w.Cx.writers;
    readers = w.Cx.readers;
    ops_per_thread = w.Cx.ops_per_thread;
    keyspace = w.Cx.keyspace;
    prefill = w.Cx.prefill;
    seed = w.Cx.seed;
    non_tso = w.Cx.non_tso;
    elide_flush = w.Cx.elide_flush;
    node_bytes = cx.Cx.node_bytes;
  }

(* ------------------------------------------------------------------ *)
(* Every family: the smoke sweep and replay dispatch                   *)
(* ------------------------------------------------------------------ *)

type family = {
  name : string;
  banner : string;
  owns : Cx.t -> bool;
  smoke : index:string -> seed:int -> report;
  replay : Cx.t -> report;
}

module TC = Txcheck
module SC = Snapcheck
module RC = Rebalcheck
module RepC = Replcheck

(* Smoke budgets size a quick sweep, not a deep audit; the deep sweeps
   run per family.  A counterexample belongs to the family whose
   extension it carries; one with none is a linearizability artifact. *)
let families =
  [
    {
      name = "linearizability";
      banner = "";
      owns =
        (fun cx ->
          cx.Cx.tx = None && cx.Cx.snap = None && cx.Cx.rebal = None
          && cx.Cx.repl = None);
      smoke =
        (fun ~index ~seed ->
          run ~config:{ default with seed; schedules = 6; crash_budget = 64 } index);
      replay =
        (fun cx -> Sweep.replay (family (config_of_counterexample cx) cx.Cx.index) cx);
    };
    {
      name = "tx";
      banner = "transaction ";
      owns = (fun cx -> cx.Cx.tx <> None);
      smoke =
        (fun ~index ~seed ->
          TC.run
            ~config:{ TC.default with TC.seed; schedules = 4; crash_budget = 64 }
            index);
      replay = TC.replay;
    };
    {
      name = "snapshot";
      banner = "snapshot ";
      owns = (fun cx -> cx.Cx.snap <> None);
      smoke =
        (fun ~index ~seed ->
          (* The snapshot family needs a snapshottable wrapper. *)
          let snap = "snap-" ^ index in
          let index = if Registry.find snap <> None then snap else index in
          SC.run
            ~config:{ SC.default with SC.seed; schedules = 4; crash_budget = 64 }
            index);
      replay = SC.replay;
    };
    {
      name = "rebalance";
      banner = "rebalance ";
      owns = (fun cx -> cx.Cx.rebal <> None);
      smoke =
        (fun ~index ~seed ->
          RC.run
            ~config:{ RC.default with RC.seed; schedules = 2; crash_budget = 24 }
            index);
      replay = RC.replay;
    };
    {
      name = "replica";
      banner = "replication ";
      owns = (fun cx -> cx.Cx.repl <> None);
      smoke =
        (fun ~index ~seed ->
          RepC.run ~config:{ RepC.default with RepC.seed; schedules = 4 } index);
      replay = RepC.replay;
    };
  ]

let family_of cx = List.find (fun f -> f.owns cx) families

let replay cx = (family_of cx).replay cx
