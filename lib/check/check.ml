module Arena = Ff_pmem.Arena
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Locks = Ff_index.Locks
module Cx = Counterexample
include Sweep

type config = Cx.config

(* One thread is always legal: the run is sequential, and the crash
   product sweeps its stores.  Concurrent threads are legal when either
   the structure drives Mcsim locks itself (Sim mode), or its readers
   are lock-free and at most one writer runs. *)
let checkable d (cfg : config) =
  let threads = cfg.writers + cfg.readers in
  if threads < 1 then Some "need at least 1 thread"
  else if threads * cfg.ops > Linearize.max_ops then
    Some
      (Printf.sprintf "history would exceed %d ops (reduce threads/ops)"
         Linearize.max_ops)
  else if threads = 1 || D.supports_lock_mode d Locks.Sim then None
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
let gen_workload (cfg : config) =
  let values = Spec.values () in
  let initial = Spec.prefill values ~prefill:cfg.prefill ~keyspace:cfg.keyspace in
  let master = Prng.create cfg.seed in
  let opid = ref 0 in
  let scripts =
    Array.init (cfg.writers + cfg.readers) (fun tid ->
        let rng = Prng.split master in
        List.init cfg.ops (fun _ ->
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
  ops : Intf.ops;
  calls : Linearize.call array;  (* only ops that were invoked *)
}

(* Every thread stamps invocation and response of each op into a
   shared history. *)
let setup (cfg : config) d w () =
  let arena =
    Sweep.arena ~non_tso:cfg.non_tso
      ~keys:(cfg.keyspace + cfg.prefill + (cfg.writers * cfg.ops))
      ()
  in
  let dcfg = index_config d ~node_bytes:cfg.node_bytes in
  let ops = Registry.build ~config:dcfg d.D.name arena in
  Sweep.in_sim arena (fun () ->
      List.iter (fun (k, v) -> ops.Intf.insert k v) (Spec.initial w.spec));
  if cfg.mutant then Arena.set_flush_elision arena true;
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
        {
          ops;
          calls =
            Array.of_list
              (List.filter (fun c -> c.Linearize.inv >= 0) (Array.to_list calls));
        });
  }

(* Linearizability of the history against the final bindings, read
   through the live handle inside the simulator (it may hold Sim
   locks). *)
let validate_live (cfg : config) w (r : exec Sweep.run) =
  let x = r.result in
  let final = ref [] in
  Sweep.in_sim r.arenas.(0) (fun () ->
      final := Sweep.dump ~keyspace:cfg.keyspace x.ops.Intf.search);
  match Linearize.check ~initial:(Spec.initial w.spec) ~final:!final x.calls with
  | Ok () -> []
  | Error detail -> [ (Linearizability, detail) ]

(* Durable linearizability of the invoked history against the
   post-recovery dump of the crashed image. *)
let judge w (r : exec Sweep.run) (i : Sweep.image) =
  i.before
  @
  match i.recovered with
  | Ok dump -> (
      match Linearize.check ~initial:(Spec.initial w.spec) ~final:dump r.result.calls with
      | Ok () -> []
      | Error msg -> [ (Durability, msg) ])
  | Error e -> [ (Durability, "recovery raised: " ^ e) ]

let family (cfg : config) name =
  let d = Registry.find_exn name in
  let w = lazy (gen_workload cfg) in
  {
    Sweep.family = "linearizability";
    index = name;
    (* A single thread has exactly one schedule. *)
    config =
      (if cfg.writers + cfg.readers = 1 then { cfg with schedules = 1 } else cfg);
    gate = checkable d cfg;
    crash_gate = crash_checkable d;
    canonical_fifo = false;
    mutant = None;
    setup = (fun () -> setup cfg d (Lazy.force w) ());
    ops = (fun x -> Array.length x.calls);
    live = (fun r -> validate_live cfg (Lazy.force w) r);
    read =
      (fun arenas ->
        read_index d ~node_bytes:cfg.node_bytes ~keyspace:cfg.keyspace
          ~written:(Spec.written (Lazy.force w).spec)
          ~recover:(fun o -> o.Intf.recover ())
          arenas.(0));
    judge = (fun r i -> judge (Lazy.force w) r i);
  }

let run ?config:(cfg = default) ?tracer name = Sweep.run ?tracer (family cfg name)

let replay_family cx = Sweep.replay (family cx.Cx.config cx.Cx.index) cx

(* ------------------------------------------------------------------ *)
(* Every family: the smoke sweep and replay dispatch                   *)
(* ------------------------------------------------------------------ *)

type family = {
  name : string;
  banner : string;
  default : config;
  run : ?config:config -> ?tracer:Ff_trace.Trace.t -> string -> report;
  smoke : index:string -> seed:int -> report;
  replay : Cx.t -> report;
}

module TC = Txcheck
module SC = Snapcheck
module RC = Rebalcheck
module RepC = Replcheck

(* A smoke sweep explores fewer schedules than a family's default; the
   deep sweeps run per family. *)
let families =
  [
    {
      name = "linearizability";
      banner = "";
      default;
      run;
      smoke =
        (fun ~index ~seed ->
          run ~config:{ default with seed; schedules = 6 } index);
      replay = replay_family;
    };
    {
      name = "tx";
      banner = "transaction ";
      default = TC.default;
      run = TC.run;
      smoke =
        (fun ~index ~seed ->
          TC.run ~config:{ TC.default with seed; schedules = 4 } index);
      replay = TC.replay;
    };
    {
      name = "snapshot";
      banner = "snapshot ";
      default = SC.default;
      run = SC.run;
      smoke =
        (fun ~index ~seed ->
          (* The snapshot family needs a snapshottable wrapper. *)
          let snap = "snap-" ^ index in
          let index = if Registry.find snap <> None then snap else index in
          SC.run ~config:{ SC.default with seed; schedules = 4 } index);
      replay = SC.replay;
    };
    {
      name = "rebalance";
      banner = "rebalance ";
      default = RC.default;
      run = RC.run;
      smoke =
        (fun ~index ~seed ->
          RC.run ~config:{ RC.default with seed; schedules = 2 } index);
      replay = RC.replay;
    };
    {
      name = "replica";
      banner = "replication ";
      default = RepC.default;
      run = RepC.run;
      smoke =
        (fun ~index ~seed -> RepC.run ~config:{ RepC.default with seed; schedules = 4 } index);
      replay = RepC.replay;
    };
  ]

let family_named name =
  match List.find_opt (fun f -> f.name = name) families with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "counterexample: unknown family %S" name)

let family_of cx = family_named cx.Cx.family

let replay cx = (family_of cx).replay cx
