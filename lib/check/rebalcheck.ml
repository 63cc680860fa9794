module Arena = Ff_pmem.Arena
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Shard = Ff_shard.Shard
module Rebalance = Ff_rebalance.Rebalance
module Mcsim = Ff_mcsim.Mcsim
module Cx = Counterexample

type rkind = Rb_split | Rb_merge | Rb_migrate

let rkind_to_string = function
  | Rb_split -> "split"
  | Rb_merge -> "merge"
  | Rb_migrate -> "migrate"

let rkind_of_string = function
  | "split" -> Rb_split
  | "merge" -> Rb_merge
  | "migrate" -> Rb_migrate
  | s -> invalid_arg (Printf.sprintf "Rebalcheck: unknown kind %S" s)

type config = {
  kind : rkind;
  ops : int;      (* writer commit-log length *)
  keyspace : int;
  prefill : int;
  seed : int;
  mutant : bool;  (* arm the drop-delta mutant *)
  explorer : Sweep.explorer;
  schedules : int;
  max_crash_points : int;
  crash_budget : int;
  node_bytes : int option;
}

let default =
  {
    kind = Rb_split;
    ops = 10;
    keyspace = 8;
    prefill = 4;
    seed = 1;
    mutant = false;
    explorer = Sweep.Pct;
    schedules = 4;
    max_crash_points = 8;
    crash_budget = 64;
    node_bytes = None;
  }

let checkable d cfg =
  let c = d.D.caps in
  if not (c.D.is_persistent && c.D.has_recovery) then
    Some "not crash-checkable: volatile or no recovery"
  else if not c.D.has_range then Some "no range scans (copy needs them)"
  else if
    (cfg.kind = Rb_split || cfg.kind = Rb_merge) && not c.D.relocatable_root
  then Some "root not relocatable (composite split/merge carves one arena)"
  else if cfg.ops < 1 || cfg.keyspace < 4 then
    Some "need at least 1 op and keyspace >= 4"
  else None

type exec = {
  arenas : Arena.t array; (* [src] or [src; dst] (migrate) *)
  dcfg : D.config;
  applied : int;          (* writer ops fully applied (acknowledged) *)
  rebalanced : bool;      (* the rebalancer thread ran to completion *)
  shards_after : int;
  dst_live : bool;        (* migrate: shard 0 now serves from dst *)
  read_live : int -> int option; (* routed search on the live ensemble *)
}

let pivot cfg = (cfg.keyspace / 2) + 1

(* The drop-delta mutant loses only what lands between the tap and
   the cutover, so the writer puts one change there on every schedule
   that lets it run before the cutover, the canonical Fifo one
   included: the first entry that makes the last change the log makes
   to a moved key.  Nothing later undoes that change, so losing its
   record leaves the key wrong for good.  The rebalancer starts one
   entry earlier (that entry races the plan publication and the tap
   quiesce) and the writer then waits for the tap.  Both waits block
   in the simulator: a spinning writer would starve the rebalancer
   under PCT.  [None] when the log changes no moved key. *)
let held_entry cfg w =
  let moved k = cfg.kind = Rb_migrate || k >= pivot cfg in
  let last = Hashtbl.create 8 in
  Array.iteri
    (fun i ->
      List.iter (function
        | Spec.Insert (k, _) when moved k -> Hashtbl.replace last k i
        | Spec.Delete k when moved k && List.mem_assoc k (Spec.state w i) ->
            Hashtbl.replace last k i
        | Spec.Insert _ | Spec.Delete _ | Spec.Search _ -> ()))
    (Spec.log w);
  Hashtbl.fold
    (fun _ i acc -> Some (match acc with Some j -> min i j | None -> i))
    last None

(* Writer applies the commit log through the routed serving layer
   while the rebalancer thread splits / merges / migrates underneath
   it.  Fence marks on every involved arena are the crash-sweep
   candidates, so the sweep covers plan publication, the background
   copy, dual-write application, cutover and the finish phase. *)
let setup cfg name w () =
  let dcfg = { D.default_config with D.node_bytes = cfg.node_bytes } in
  let t, arenas =
    match cfg.kind with
    | Rb_split | Rb_merge ->
        let src = Arena.create ~words:(1 lsl 20) () in
        let bounds = if cfg.kind = Rb_merge then [| pivot cfg |] else [||] in
        ( Shard.create_composite ~config:dcfg ~inner:name
            ~partition:(Shard.Partition.range ~bounds) src,
          [| src |] )
    | Rb_migrate ->
        (* Serving mode builds its own arena; we adopt it as [src]. *)
        let dst = Arena.create ~words:(1 lsl 20) () in
        let t =
          Shard.create ~inner_config:dcfg ~group:false ~inner:name ~shards:1 ()
        in
        (t, [| (Shard.arenas t).(0); dst |])
  in
  Sweep.in_sim arenas.(0) (fun () ->
      List.iter (fun (k, v) -> Shard.insert t ~key:k ~value:v) (Spec.initial w));
  let applied = ref 0 in
  let rebalanced = ref false in
  let tap = match cfg.kind with Rb_merge -> 1 | Rb_split | Rb_migrate -> 0 in
  (* Merge's cutover removes the tapped shard. *)
  let tapped () = Shard.shards t > tap && Shard.tapped t ~shard:tap in
  let held = held_entry cfg w in
  let start = max 0 (Option.value held ~default:0 - 1) in
  let go = Mcsim.create_gate () in
  let writer _ =
    Array.iteri
      (fun i ops ->
        if i = start then Mcsim.gate_open go;
        if Some i = held then Mcsim.await (fun () -> tapped () || !rebalanced);
        List.iter
          (fun op ->
            (match op with
            | Spec.Insert (k, v) -> Shard.insert t ~key:k ~value:v
            | Spec.Delete k -> ignore (Shard.delete t k)
            | Spec.Search _ -> ());
            incr applied)
          ops)
      (Spec.log w)
  in
  let rebalancer _ =
    (* A tight throttle (one pair per chunk) stretches the background
       copy across many writer ops, maximising the dual-write window
       the checker must protect. *)
    let throttle = { Rebalance.bytes_per_ms = 16; chunk_ops = 1 } in
    Mcsim.gate_wait go;
    (match cfg.kind with
    | Rb_split -> ignore (Rebalance.split ~throttle t ~shard:0 ~pivot:(pivot cfg))
    | Rb_merge -> ignore (Rebalance.merge ~throttle t ~left:0)
    | Rb_migrate -> ignore (Rebalance.migrate ~throttle t ~shard:0 ~dst:arenas.(1)));
    rebalanced := true
  in
  {
    Sweep.arenas;
    threads = [| writer; rebalancer |];
    finish =
      (fun () ->
        {
          arenas;
          dcfg;
          applied = !applied;
          rebalanced = !rebalanced;
          shards_after = (try Shard.shards t with _ -> 0);
          dst_live =
            cfg.kind = Rb_migrate
            && (try Shard.instance_arena t 0 == arenas.(1) with _ -> false);
          read_live = (fun k -> Shard.search t k);
        });
  }

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

(* Zero lost acknowledged writes: every key must read back as the
   model state after [applied] ops, or after the single in-flight op
   (index [applied]) landed. *)
let check_prefix cfg w ~applied ~ctx read =
  let hi = min (applied + 1) (Spec.length w) in
  let failures = ref [] in
  for k = 1 to cfg.keyspace do
    match Spec.window w ~lo:applied ~hi (Spec.Key (k, read k)) with
    | Ok _ -> ()
    | Error why ->
        if List.length !failures < 8 then
          failures :=
            (Sweep.Durability, Printf.sprintf "lost acknowledged write (%s): %s" ctx why)
            :: !failures
  done;
  List.rev !failures

(* Live run to completion: the rebalance finished, the topology
   changed shape, and the full commit log is visible. *)
let validate_live cfg w (r : exec Sweep.run) =
  let x = r.Sweep.result in
  let shape =
    if not x.rebalanced then
      [ (Sweep.Tolerance, "rebalance did not complete in a crash-free run") ]
    else
      let expected_shards = match cfg.kind with Rb_split -> 2 | _ -> 1 in
      (if x.shards_after <> expected_shards then
         [
           ( Sweep.Tolerance,
             Printf.sprintf "topology after %s: %d shards, expected %d"
               (rkind_to_string cfg.kind) x.shards_after expected_shards );
         ]
       else [])
      @
      if cfg.kind = Rb_migrate && not x.dst_live then
        [ (Sweep.Tolerance, "migrate completed but shard 0 still serves the old arena") ]
      else []
  in
  shape @ check_prefix cfg w ~applied:x.applied ~ctx:"live" x.read_live

(* Crash run: power-fail every involved arena, resolve the half-done
   rebalance from the decision word alone, reattach whatever authority
   survives, recover it, and hold it to the acknowledged prefix. *)
let validate_crash cfg name w (r : exec Sweep.run) (crash : Cx.crash) =
  let x = r.Sweep.result in
  Array.iter (fun a -> Arena.power_fail a (Sweep.mode_of_crash crash)) x.arenas;
  let src = x.arenas.(0) in
  let reopened =
    match cfg.kind with
    | Rb_split | Rb_merge -> (
        match
          ignore (Rebalance.resolve src);
          let t2 = Shard.attach ~config:x.dcfg ~inner:name src in
          Shard.recover t2;
          t2
        with
        | t2 -> Ok (fun k -> Shard.search t2 k)
        | exception ex -> Error ("post-crash reattach raised: " ^ Printexc.to_string ex))
    | Rb_migrate -> (
        let authority =
          match Rebalance.resolve src with
          | Rebalance.Resolved_migrated -> x.arenas.(1)
          | _ -> src
        in
        match
          let o = Registry.open_existing authority in
          o.Intf.recover ();
          o
        with
        | o -> Ok o.Intf.search
        | exception ex ->
            Error ("post-crash authority reopen raised: " ^ Printexc.to_string ex))
  in
  match reopened with
  | Ok read -> check_prefix cfg w ~applied:x.applied ~ctx:"post-crash" read
  | Error detail -> [ (Sweep.Durability, detail) ]

let family cfg name =
  let d = Registry.find_exn name in
  let w =
    lazy
      (Spec.create (Prng.create cfg.seed) ~prefill:cfg.prefill
         ~keyspace:cfg.keyspace ~per_entry:1 cfg.ops)
  in
  {
    Sweep.index = name;
    gate = checkable d cfg;
    crash_gate = None;
    budget =
      {
        Sweep.explorer = cfg.explorer;
        schedules = cfg.schedules;
        seed = cfg.seed;
        max_crash_points = cfg.max_crash_points;
        crash_budget = cfg.crash_budget;
      };
    probe_cutoffs = false;
    (* Schedule 0 is always the canonical round-robin interleaving:
       Fifo at quantum 1 drives the writer through the whole copy /
       dual-write window, the regime the dual-write protocol exists
       for.  PCT/DFS exploration then supplements it with biased and
       systematic orders (two-thread PCT often runs one thread to
       completion first, which never populates the delta). *)
    canonical_fifo = true;
    (* A crash point past the end of a shorter replay never fires;
       there is no wreck to validate. *)
    crashed_only = true;
    mutant = Some (Rebalance.mutant_drop_delta, cfg.mutant);
    setup = (fun () -> setup cfg name (Lazy.force w) ());
    ops = (fun x -> x.applied);
    live = (fun r -> validate_live cfg (Lazy.force w) r);
    crash = (fun r c -> validate_crash cfg name (Lazy.force w) r c);
    counterexample =
      (fun ~arena ->
        {
          (Sweep.counterexample ~index:name ~node_bytes:cfg.node_bytes
             ~ops_per_thread:cfg.ops ~keyspace:cfg.keyspace ~prefill:cfg.prefill
             ~seed:cfg.seed ())
          with
          Cx.rebal =
            Some
              {
                Cx.rb_kind = rkind_to_string cfg.kind;
                rb_mutant = cfg.mutant;
                rb_shards = (match cfg.kind with Rb_merge -> 2 | _ -> 1);
                rb_arena = arena;
              };
        });
  }

let run ?config:(cfg = default) ?tracer name = Sweep.run ?tracer (family cfg name)

let config_of_counterexample (cx : Cx.t) =
  match cx.Cx.rebal with
  | None -> invalid_arg "Rebalcheck: counterexample lacks the rebal extension"
  | Some r ->
      let w = cx.Cx.workload in
      {
        default with
        kind = rkind_of_string r.Cx.rb_kind;
        ops = w.Cx.ops_per_thread;
        keyspace = w.Cx.keyspace;
        prefill = w.Cx.prefill;
        seed = w.Cx.seed;
        mutant = r.Cx.rb_mutant;
        node_bytes = cx.Cx.node_bytes;
      }

let replay cx =
  let arena = match cx.Cx.rebal with Some r -> r.Cx.rb_arena | None -> 0 in
  Sweep.replay ~arena (family (config_of_counterexample cx) cx.Cx.index) cx
