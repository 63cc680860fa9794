module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Locks = Ff_index.Locks
module Tx = Ff_tx.Tx
module Cx = Counterexample

let default = { Sweep.default with Cx.schedules = 8 }

let checkable d (cfg : Cx.config) =
  if not d.D.caps.D.txnable then Some "not txnable"
  else if not (d.D.caps.D.is_persistent && d.D.caps.D.has_recovery) then
    Some "not crash-checkable: volatile or no recovery"
  else if cfg.rounds < 1 then Some "need at least 1 transaction"
  else if
    cfg.readers > 0
    && (not (D.supports_lock_mode d Locks.Sim))
    && not d.D.caps.D.lock_free_reads
  then Some "readers need Sim locks or lock-free reads"
  else None

(* The writer's script is one commit log with one entry per
   transaction, so prefix i is the state after i commits. *)
type workload = { spec : Spec.t; reader_scripts : int list array }

let gen_workload (cfg : Cx.config) =
  let master = Prng.create cfg.seed in
  let spec =
    Spec.create (Prng.split master) ~prefill:cfg.prefill ~keyspace:cfg.keyspace
      ~per_entry:cfg.ops cfg.rounds
  in
  let reader_scripts =
    Array.init cfg.readers (fun _ ->
        let rng = Prng.split master in
        List.init
          (cfg.rounds * cfg.ops)
          (fun _ -> 1 + Prng.int rng cfg.keyspace))
  in
  { spec; reader_scripts }

type exec = {
  ops : Intf.ops;
  committed : int;       (* commits that returned before the crash *)
  commit_started : int;  (* transactions whose commit call began *)
  tx_ops : int;          (* transactional ops executed *)
  fabricated : (int * int) option;
      (* a concurrent reader saw an out-of-universe binding *)
}

(* Build + prefill + transaction-manager creation happen in the setup;
   the writer's transaction script and the reader scripts are the
   concurrent phase. *)
let setup (cfg : Cx.config) d w () =
  let arena =
    Sweep.arena ~non_tso:cfg.non_tso
      ~keys:(cfg.keyspace + cfg.prefill + (cfg.rounds * cfg.ops))
      ()
  in
  let ops =
    Registry.build ~config:(Sweep.index_config d ~node_bytes:cfg.node_bytes) d.D.name arena
  in
  Sweep.in_sim arena (fun () ->
      List.iter (fun (k, v) -> ops.Intf.insert k v) (Spec.initial w.spec));
  let mgr = Tx.create ~path:cfg.tx_path arena ops in
  if cfg.mutant then Tx.set_torn_commit mgr true;
  let committed = ref 0 in
  let commit_started = ref 0 in
  let tx_ops = ref 0 in
  let fabricated = ref None in
  let writer _ =
    Array.iteri
      (fun i entry ->
        let tx = Tx.begin_tx mgr in
        List.iter
          (fun op ->
            incr tx_ops;
            match op with
            | Spec.Insert (k, v) -> Tx.put tx k v
            | Spec.Delete k -> ignore (Tx.del tx k)
            | Spec.Search _ -> ())
          entry;
        commit_started := i + 1;
        Tx.commit tx;
        committed := i + 1)
      (Spec.log w.spec)
  in
  let reader rid _ =
    List.iter
      (fun k ->
        match ops.Intf.search k with
        | Some v when not (Spec.written w.spec k v) ->
            if !fabricated = None then fabricated := Some (k, v)
        | _ -> ())
      w.reader_scripts.(rid)
  in
  {
    Sweep.arenas = [| arena |];
    threads = Array.append [| writer |] (Array.init cfg.readers reader);
    finish =
      (fun () ->
        {
          ops;
          committed = !committed;
          commit_started = !commit_started;
          tx_ops = !tx_ops;
          fabricated = !fabricated;
        });
  }

(* Live run: no concurrent reader fabricated a binding, and the final
   state is the whole committed schedule. *)
let validate_live (cfg : Cx.config) w (r : exec Sweep.run) =
  let x = r.Sweep.result in
  (match x.fabricated with
  | Some (k, v) ->
      [
        ( Sweep.Tolerance,
          Printf.sprintf "concurrent reader saw fabricated binding %d -> %d" k v );
      ]
  | None -> [])
  @
  let dump = ref [] in
  Sweep.in_sim r.Sweep.arenas.(0) (fun () ->
      dump := Sweep.dump ~keyspace:cfg.keyspace x.ops.Intf.search);
  match Spec.window w.spec ~lo:cfg.rounds ~hi:cfg.rounds (Spec.Map !dump) with
  | Ok _ -> []
  | Error why -> [ (Sweep.Durability, "serializability: final state " ^ why) ]

(* What the crashed image shows: a durable commit word covering an
   untrusted payload is direct evidence of inverted commit ordering,
   flagged before recovery truncates the log; then index recovery and
   transaction recovery over the persisted log. *)
let read (cfg : Cx.config) d w arenas =
  let arena = arenas.(0) in
  let torn =
    match Ff_pmem.Txlog.attach arena with
    | Some l when Ff_pmem.Txlog.commit_torn l ->
        [ (Sweep.Durability, "torn commit: commit record durable without its payload") ]
    | _ -> []
  in
  let i =
    Sweep.read_index d ~node_bytes:cfg.node_bytes ~keyspace:cfg.keyspace
      ~written:(Spec.written w.spec)
      ~recover:(fun o ->
        o.Intf.recover ();
        ignore (Tx.recover (Tx.create ~path:cfg.tx_path arena o)))
      arena
  in
  { i with Sweep.before = i.Sweep.before @ torn }

(* The durable-serializability oracle: a commit in flight at the crash
   may land atomically or not at all, so the recovered state lies in
   the window [committed, commit_started]. *)
let judge w (r : exec Sweep.run) (i : Sweep.image) =
  let x = r.Sweep.result in
  i.Sweep.before
  @
  match i.Sweep.recovered with
  | Ok dump -> (
      match Spec.window w.spec ~lo:x.committed ~hi:x.commit_started (Spec.Map dump) with
      | Ok _ -> []
      | Error why ->
          [
            ( Sweep.Durability,
              Printf.sprintf
                "durable serializability: %d transactions committed (commit \
                 started on %d) but the recovered state %s"
                x.committed x.commit_started why );
          ])
  | Error e -> [ (Sweep.Durability, "tx recovery raised: " ^ e) ]

let family cfg name =
  let d = Registry.find_exn name in
  let w = lazy (gen_workload cfg) in
  {
    Sweep.family = "tx";
    index = name;
    config = cfg;
    gate = checkable d cfg;
    crash_gate = None;
    canonical_fifo = false;
    mutant = None;
    setup = (fun () -> setup cfg d (Lazy.force w) ());
    ops = (fun x -> x.tx_ops);
    live = (fun r -> validate_live cfg (Lazy.force w) r);
    read = (fun arenas -> read cfg d (Lazy.force w) arenas);
    judge = (fun r i -> judge (Lazy.force w) r i);
  }

let run ?config:(cfg = default) ?tracer name = Sweep.run ?tracer (family cfg name)

let replay cx = Sweep.replay (family cx.Cx.config cx.Cx.index) cx
