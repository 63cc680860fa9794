module Epoch = Ff_pmem.Epoch
module Mcsim = Ff_mcsim.Mcsim
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Snapshot = Ff_snapshot.Snapshot
module Cx = Counterexample

let default = { Sweep.default with Cx.ops = 4; schedules = 8 }

let checkable d (cfg : Cx.config) =
  if not d.D.caps.D.snapshottable then Some "not snapshottable"
  else if not (d.D.caps.D.is_persistent && d.D.caps.D.has_recovery) then
    Some "not crash-checkable: volatile or no recovery"
  else if cfg.rounds < 1 || cfg.ops < 1 then
    Some "need at least 1 write round"
  else None

type exec = {
  applied : int;                     (* log entries fully applied *)
  pinned : (int * int * int) option; (* (epoch, window lo, window hi) *)
  vec1 : (int * int option) list;    (* first pinned read pass, reversed *)
  vec2 : (int * int option) list;    (* second pass (stability probe) *)
}

let dcfg (cfg : Cx.config) = { D.default_config with D.node_bytes = cfg.node_bytes }

(* Writer applies the commit log through the wrapped ops while a
   snapshot reader pins an epoch, records the prefix window [lo, hi]
   of commits the pin could linearize against, then reads the whole
   keyspace at that epoch twice: once while the writer finishes the
   log, and again once the writer has applied all of it.  The second
   pass waits for the whole log so that every later write exists when
   it reads: a read that leaks one diverges from the first pass by
   construction, not by schedule luck.

   The pin lands mid-log and races the writer: the reader awaits
   [pin_after - 1] applied ops ([pin_after] is seed-drawn, in
   2 .. n-1), so its pin can overlap op [pin_after - 1] in flight —
   the snapshot layer's quiesce awaits it rather than spinning, so the
   writer finishes it under any schedule.  The writer awaits the
   published pin before op [pin_after], so at least one op always
   follows the pin: without that wait a schedule may pin at the end of
   the log, where a read-latest snapshot reads the same as a pinned
   one.  The [applied] counter moves only between wrapped ops (no
   yield point separates an op's return from the increment), so the
   window is exact. *)
let setup (cfg : Cx.config) d (w, pin_after) () =
  let arena =
    Sweep.arena ~non_tso:cfg.non_tso
      ~keys:(cfg.keyspace + cfg.prefill + (cfg.rounds * cfg.ops))
      ()
  in
  let ops = Registry.build ~config:(dcfg cfg) d.D.name arena in
  Sweep.in_sim arena (fun () ->
      List.iter (fun (k, v) -> ops.Intf.insert k v) (Spec.initial w));
  let applied = ref 0 in
  let pinned = ref None in
  let vec1 = ref [] in
  let vec2 = ref [] in
  let total = Array.fold_left (fun n ops -> n + List.length ops) 0 (Spec.log w) in
  let writer _ =
    Array.iteri
      (fun i ->
        if i = pin_after then Mcsim.await (fun () -> !pinned <> None);
        List.iter (fun op ->
            (match op with
            | Spec.Insert (k, v) -> ops.Intf.insert k v
            | Spec.Delete k -> ignore (ops.Intf.delete k)
            | Spec.Search _ -> ());
            incr applied))
      (Spec.log w)
  in
  let reader _ =
    Mcsim.await (fun () -> !applied >= pin_after - 1);
    let lo = !applied in
    let e = ops.Intf.snapshot_begin 0 in
    pinned := Some (e, lo, !applied);
    for k = 1 to cfg.keyspace do
      vec1 := (k, ops.Intf.read_at e k) :: !vec1
    done;
    Mcsim.await (fun () -> !applied = total);
    for k = 1 to cfg.keyspace do
      vec2 := (k, ops.Intf.read_at e k) :: !vec2
    done
  in
  {
    Sweep.arenas = [| arena |];
    threads = [| writer; reader |];
    finish =
      (fun () ->
        { applied = !applied; pinned = !pinned; vec1 = !vec1; vec2 = !vec2 });
  }

let observed_assoc vec =
  List.sort compare
    (List.filter_map (fun (k, o) -> Option.map (fun v -> (k, v)) o) vec)

(* Live run: the pinned read vector must equal the model state at some
   commit-log prefix within the pin window, and a second pass over the
   same epoch must be identical even though the writer has since
   applied the rest of the log. *)
let validate_live (cfg : Cx.config) w (r : exec Sweep.run) =
  let x = r.Sweep.result in
  match x.pinned with
  | None -> []
  | Some (e, lo, hi) ->
      let isolation =
        if List.length x.vec1 <> cfg.keyspace then []
        else
          match Spec.window w ~lo ~hi (Spec.Map (observed_assoc x.vec1)) with
          | Ok _ -> []
          | Error why ->
              [
                ( Sweep.Tolerance,
                  Printf.sprintf "snapshot isolation: epoch %d read vector %s" e why );
              ]
      in
      let stability =
        if
          List.length x.vec2 = cfg.keyspace
          && observed_assoc x.vec2 <> observed_assoc x.vec1
        then
          [
            ( Sweep.Tolerance,
              Printf.sprintf
                "snapshot stability: re-reading pinned epoch %d diverged from \
                 the first pass (%s vs %s)"
                e
                (Spec.show_state (observed_assoc x.vec2))
                (Spec.show_state (observed_assoc x.vec1)) );
          ]
        else []
      in
      isolation @ stability

(* What a recovered image shows: its published epoch and every key's
   binding at each epoch up to it, or what recovery raised. *)
let read (cfg : Cx.config) d arenas =
  let arena = arenas.(0) in
  match
    let o = d.D.open_existing (dcfg cfg) arena in
    o.Intf.recover ();
    Array.init (Epoch.current arena) (fun e ->
        Array.init cfg.keyspace (fun k -> o.Intf.read_at (e + 1) (k + 1)))
  with
  | pinned -> Ok pinned
  | exception ex -> Error (Printexc.to_string ex)

(* Crash run: re-pin the pre-crash epoch on the recovered image.  Every
   key the reader observed before the crash must read back identically
   — a published epoch is durable, so the crash cannot move it. *)
let judge (r : exec Sweep.run) image =
  let x = r.Sweep.result in
  match (x.pinned, image) with
  | None, _ -> []
  | Some _, Error ex -> [ (Sweep.Durability, "snapshot recovery raised: " ^ ex) ]
  | Some (e, _, _), Ok pinned when Array.length pinned < e ->
      let got = Array.length pinned in
      let why = Printf.sprintf "reader pinned %d but recovery reads %d" e got in
      [ (Sweep.Durability, "published epoch lost: " ^ why) ]
  | Some (e, _, _), Ok pinned ->
      List.filter_map
        (fun (k, seen) ->
          let got = pinned.(e - 1).(k - 1) in
          if got = seen then None
          else
            Some
              ( Sweep.Durability,
                Printf.sprintf
                  "post-crash re-pin diverged: epoch %d key %d was %s before the \
                   crash, %s after recovery"
                  e k (Spec.show_binding seen) (Spec.show_binding got) ))
        x.vec1

(* The commit log and the writer op the pin races, both drawn from the
   seed.  [pin_after] lies in 2 .. n-1, so the pin waits for op 0 and
   at least one op follows it (a shorter log takes [n - 1]). *)
let draw (cfg : Cx.config) =
  let rng = Prng.create cfg.seed in
  let n = cfg.rounds * cfg.ops in
  let spec = Spec.create rng ~prefill:cfg.prefill ~keyspace:cfg.keyspace ~per_entry:1 n in
  (spec, if n < 3 then max 0 (n - 1) else 2 + Prng.int rng (n - 2))

let pin_after cfg = snd (draw cfg)

let family (cfg : Cx.config) name =
  let d = Registry.find_exn name in
  let w = lazy (draw cfg) in
  {
    Sweep.family = "snapshot";
    index = name;
    config = cfg;
    gate = checkable d cfg;
    crash_gate = None;
    canonical_fifo = false;
    mutant = Some Snapshot.mutant_read_latest;
    setup = (fun () -> setup cfg d (Lazy.force w) ());
    ops = (fun x -> x.applied);
    live = (fun r -> validate_live cfg (fst (Lazy.force w)) r);
    read = read cfg d;
    judge;
  }

let run ?config:(cfg = default) ?tracer name = Sweep.run ?tracer (family cfg name)

let replay cx = Sweep.replay (family cx.Cx.config cx.Cx.index) cx
