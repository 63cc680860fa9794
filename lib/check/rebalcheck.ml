module Arena = Ff_pmem.Arena
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Shard = Ff_shard.Shard
module Rebalance = Ff_rebalance.Rebalance
module Mcsim = Ff_mcsim.Mcsim
module Cx = Counterexample

type rkind = Cx.rebal_kind = Rb_split | Rb_merge | Rb_migrate

let rkind_to_string = Cx.name_of Cx.rebal_kinds

let default = { Sweep.default with Cx.ops = 10; schedules = 4 }

let checkable d (cfg : Cx.config) =
  let c = d.D.caps in
  if not (c.D.is_persistent && c.D.has_recovery) then
    Some "not crash-checkable: volatile or no recovery"
  else if not c.D.has_range then Some "no range scans (copy needs them)"
  else if
    (cfg.rebal_kind = Rb_split || cfg.rebal_kind = Rb_merge) && not c.D.relocatable_root
  then Some "root not relocatable (composite split/merge carves one arena)"
  else if cfg.ops < 1 || cfg.keyspace < 4 then
    Some "need at least 1 op and keyspace >= 4"
  else None

type exec = {
  applied : int;          (* writer ops fully applied (acknowledged) *)
  rebalanced : bool;      (* the rebalancer thread ran to completion *)
  shards_after : int;
  dst_live : bool;        (* migrate: shard 0 now serves from dst *)
  read_live : int -> int option; (* routed search on the live ensemble *)
}

let pivot (cfg : Cx.config) = (cfg.keyspace / 2) + 1
let dcfg (cfg : Cx.config) = { D.default_config with D.node_bytes = cfg.node_bytes }

(* The drop-delta mutant loses only what lands between the tap and
   the cutover, and then only where the copy has already read the
   key, so the writer puts one change there on every schedule that
   lets it run before the cutover, the canonical Fifo one included:
   the last op the log applies to the lowest moved key whose last op
   changes it.  Nothing later touches the key, so losing its record
   leaves the key wrong for good; a later delete of a key the model
   already lacks would redo a lost delete, which is why the last op,
   not the last change, decides.  The copy reads the moved span in
   ascending key order, so the lowest key is the first it passes.
   The rebalancer starts one entry earlier (that entry races the plan
   publication and the tap quiesce) and the writer then waits until
   the copy has read past the key ([Rebalance]'s [scanned]), so the
   change lands there whatever the writer's ops cost.  Both waits
   block in the simulator: a spinning writer would starve the
   rebalancer under PCT.  [Some (key, entry)], or [None] when no moved
   key's last op changes it. *)
let held_entry (cfg : Cx.config) w =
  let moved k = cfg.rebal_kind = Rb_migrate || k >= pivot cfg in
  let last = Hashtbl.create 8 in
  Array.iteri
    (fun i ->
      List.iter (function
        | Spec.Insert (k, _) when moved k -> Hashtbl.replace last k (Some i)
        | Spec.Delete k when moved k ->
            Hashtbl.replace last k
              (if List.mem_assoc k (Spec.state w i) then Some i else None)
        | Spec.Insert _ | Spec.Delete _ | Spec.Search _ -> ()))
    (Spec.log w);
  Hashtbl.fold
    (fun k i acc ->
      match (i, acc) with
      | Some i, Some (k', _) when k < k' -> Some (k, i)
      | Some i, None -> Some (k, i)
      | _, acc -> acc)
    last None

(* Writer applies the commit log through the routed serving layer
   while the rebalancer thread splits / merges / migrates underneath
   it.  Fence marks on every involved arena are the crash-sweep
   candidates, so the sweep covers plan publication, the background
   copy, dual-write application, cutover and the finish phase. *)
let setup (cfg : Cx.config) name w () =
  let dcfg = dcfg cfg in
  let keys = cfg.keyspace + cfg.prefill + cfg.ops in
  let t, arenas =
    match cfg.rebal_kind with
    | Rb_split | Rb_merge ->
        let src = Sweep.arena ~non_tso:cfg.non_tso ~keys () in
        let bounds = if cfg.rebal_kind = Rb_merge then [| pivot cfg |] else [||] in
        ( Shard.create_composite ~config:dcfg ~inner:name
            ~partition:(Shard.Partition.range ~bounds) src,
          [| src |] )
    | Rb_migrate ->
        (* Serving mode builds its own arena, of the same size and
           memory order; we adopt it as [src]. *)
        let dst = Sweep.arena ~non_tso:cfg.non_tso ~keys () in
        let t =
          Shard.create ~pm_config:(Arena.config dst) ~words:(Arena.capacity dst)
            ~inner_config:dcfg ~group:false ~inner:name ~shards:1 ()
        in
        (t, [| (Shard.arenas t).(0); dst |])
  in
  Sweep.in_sim arenas.(0) (fun () ->
      List.iter (fun (k, v) -> Shard.insert t ~key:k ~value:v) (Spec.initial w));
  let applied = ref 0 in
  let rebalanced = ref false in
  let held = held_entry cfg w in
  let start = match held with Some (_, i) -> max 0 (i - 1) | None -> 0 in
  let started = ref false in
  let scanned = ref 0 in
  let writer _ =
    Array.iteri
      (fun i ops ->
        if i = start then started := true;
        (match held with
        | Some (k, h) when h = i -> Mcsim.await (fun () -> !scanned >= k || !rebalanced)
        | Some _ | None -> ());
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
    let scanned k = scanned := k in
    Mcsim.await (fun () -> !started);
    (match cfg.rebal_kind with
    | Rb_split -> ignore (Rebalance.split ~throttle ~scanned t ~shard:0 ~pivot:(pivot cfg))
    | Rb_merge -> ignore (Rebalance.merge ~throttle ~scanned t ~left:0)
    | Rb_migrate ->
        ignore (Rebalance.migrate ~throttle ~scanned t ~shard:0 ~dst:arenas.(1)));
    rebalanced := true
  in
  {
    Sweep.arenas;
    threads = [| writer; rebalancer |];
    finish =
      (fun () ->
        {
          applied = !applied;
          rebalanced = !rebalanced;
          shards_after = (try Shard.shards t with _ -> 0);
          dst_live =
            cfg.rebal_kind = Rb_migrate
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
let check_prefix (cfg : Cx.config) w ~applied ~ctx read =
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
let validate_live (cfg : Cx.config) w (r : exec Sweep.run) =
  let x = r.Sweep.result in
  let shape =
    if not x.rebalanced then
      [ (Sweep.Tolerance, "rebalance did not complete in a crash-free run") ]
    else
      let expected_shards = match cfg.rebal_kind with Rb_split -> 2 | _ -> 1 in
      (if x.shards_after <> expected_shards then
         [
           ( Sweep.Tolerance,
             Printf.sprintf "topology after %s: %d shards, expected %d"
               (rkind_to_string cfg.rebal_kind) x.shards_after expected_shards );
         ]
       else [])
      @
      if cfg.rebal_kind = Rb_migrate && not x.dst_live then
        [ (Sweep.Tolerance, "migrate completed but shard 0 still serves the old arena") ]
      else []
  in
  shape @ check_prefix cfg w ~applied:x.applied ~ctx:"live" x.read_live

(* What the crashed copies of every involved arena show: resolve the
   half-done rebalance from the decision word alone, reattach whatever
   authority survives, recover it and read every key. *)
let read (cfg : Cx.config) name (arenas : Arena.t array) =
  let src = arenas.(0) in
  let reopen () =
    match cfg.rebal_kind with
    | Rb_split | Rb_merge ->
        ignore (Rebalance.resolve src);
        let t2 = Shard.attach ~config:(dcfg cfg) ~inner:name src in
        Shard.recover t2;
        fun k -> Shard.search t2 k
    | Rb_migrate ->
        let authority =
          match Rebalance.resolve src with
          | Rebalance.Resolved_migrated -> arenas.(1)
          | _ -> src
        in
        let o = Registry.open_existing authority in
        o.Intf.recover ();
        o.Intf.search
  in
  match
    let search = reopen () in
    Array.init cfg.keyspace (fun k -> search (k + 1))
  with
  | keys -> Ok keys
  | exception ex ->
      let what = if cfg.rebal_kind = Rb_migrate then "authority reopen" else "reattach" in
      Error (Printf.sprintf "post-crash %s raised: %s" what (Printexc.to_string ex))

(* Crash run: the recovered state holds the acknowledged prefix.  An
   arena's last store count is crashed once the phase has ended: there
   is no wreck to validate. *)
let judge (cfg : Cx.config) w (r : exec Sweep.run) = function
  | _ when not r.Sweep.crashed -> []
  | Ok keys ->
      check_prefix cfg w ~applied:r.Sweep.result.applied ~ctx:"post-crash" (fun k ->
          keys.(k - 1))
  | Error detail -> [ (Sweep.Durability, detail) ]

let family (cfg : Cx.config) name =
  let d = Registry.find_exn name in
  let w =
    lazy
      (Spec.create (Prng.create cfg.seed) ~prefill:cfg.prefill
         ~keyspace:cfg.keyspace ~per_entry:1 cfg.ops)
  in
  {
    Sweep.family = "rebalance";
    index = name;
    config = cfg;
    gate = checkable d cfg;
    crash_gate = None;
    (* Schedule 0 is always the canonical round-robin interleaving:
       Fifo at quantum 1 drives the writer through the whole copy /
       dual-write window, the regime the dual-write protocol exists
       for.  PCT/DFS exploration then supplements it with biased and
       systematic orders (two-thread PCT often runs one thread to
       completion first, which never populates the delta). *)
    canonical_fifo = true;
    mutant = Some Rebalance.mutant_drop_delta;
    setup = (fun () -> setup cfg name (Lazy.force w) ());
    ops = (fun x -> x.applied);
    live = (fun r -> validate_live cfg (Lazy.force w) r);
    read = read cfg name;
    judge = (fun r -> judge cfg (Lazy.force w) r);
  }

let run ?config:(cfg = default) ?tracer name = Sweep.run ?tracer (family cfg name)

let replay cx = Sweep.replay (family cx.Cx.config cx.Cx.index) cx
