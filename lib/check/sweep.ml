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

type explorer = Cx.explorer = Dfs | Pct

let default =
  {
    Cx.writers = 2;
    readers = 1;
    ops = 2;
    rounds = 3;
    keyspace = 8;
    prefill = 4;
    seed = 1;
    explorer = Pct;
    schedules = 16;
    crashes = true;
    non_tso = false;
    mutant = false;
    node_bytes = None;
    tx_path = Ff_tx.Tx.Logged;
    rebal_kind = Cx.Rb_split;
    nodes = 3;
    shards = 2;
  }

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
  crash_points : int;
  stores : int;
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
    crash_points = 0;
    stores = 0;
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

let with_mutant mutant armed f =
  match mutant with
  | None -> f ()
  | Some flag ->
      let prev = !flag in
      flag := armed;
      Fun.protect ~finally:(fun () -> flag := prev) f

(* ------------------------------------------------------------------ *)
(* Helpers shared by the families' setups and oracles                  *)
(* ------------------------------------------------------------------ *)

(* Every registered index at its default node size takes under 13
   words per written key (the snapshot index, which keeps a version per
   write); 64 per key leaves room to spare.  The 16 Ki-word floor holds
   the base nodes and shard roots of a tiny run; it stays small because
   every crash execution copies the whole image. *)
let arena ?(non_tso = false) ~keys () =
  let config =
    if non_tso then { Pconfig.default with Pconfig.memory_order = Pconfig.Non_tso }
    else Pconfig.default
  in
  Arena.create ~config ~words:(max (1 lsl 14) (64 * keys)) ()

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

type finding = kind * string

type image = {
  before : finding list;
  recovered : ((int * int) list, string) result;
}

let read_index d ~node_bytes ~keyspace ~written ~recover arena =
  let dcfg = { (index_config d ~node_bytes) with D.lock_mode = Locks.Single } in
  let caught f =
    try Ok (f (d.D.open_existing dcfg arena)) with e -> Error (Printexc.to_string e)
  in
  let fabricated o =
    List.init keyspace succ
    |> List.filter_map (fun k -> Option.map (fun v -> (k, v)) (o.Intf.search k))
    |> List.find_opt (fun (k, v) -> not (written k v))
  in
  let before =
    match if d.D.caps.D.lock_free_reads then caught fabricated else Ok None with
    | Ok None -> []
    | Ok (Some (k, v)) ->
        let why = "pre-recovery reader returned fabricated binding" in
        [ (Tolerance, Printf.sprintf "%s %d -> %d" why k v) ]
    | Error e -> [ (Tolerance, "pre-recovery reader raised: " ^ e) ]
  in
  { before; recovered = caught (fun o -> recover o; dump ~keyspace o.Intf.search) }

(* ------------------------------------------------------------------ *)
(* Family descriptions                                                 *)
(* ------------------------------------------------------------------ *)

type 'x setup = {
  arenas : Arena.t array;
  threads : (int -> unit) array;
  finish : unit -> 'x;
}

type 'x run = {
  result : 'x;
  arenas : Arena.t array;
  crashed : bool;
}

type ('x, 'o) t = {
  family : string;
  index : string;
  config : Cx.config;
  gate : string option;
  crash_gate : string option;
  canonical_fifo : bool;
  mutant : bool ref option;
  setup : unit -> 'x setup;
  ops : 'x -> int;
  live : 'x run -> finding list;
  read : Arena.t array -> 'o;
  judge : 'x run -> 'o -> finding list;
}

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(* One controlled execution: the family's setup builds and prefills on
   fresh arenas, then the concurrent phase runs under [policy] at
   quantum 1 on one simulated core, so the policy's decision sequence
   is a total order over every PM access.  Every store count the phase
   passes through, on every arena it stores to, is a crash point, and
   [visit aid k run] sees each as the phase reaches it
   ({!Arena.crash_each}): just before the store that makes arena
   [aid]'s absolute count [k + 1], where [run ()] snapshots the run
   with its in-flight operations pending, and at each arena's last
   count once the phase ends.  Returns the run and the number of
   stores its phase performed. *)
let execute f ~policy ~visit =
  let s = f.setup () in
  let starts = Array.map Arena.store_count s.arenas in
  let snapshot crashed () = { result = s.finish (); arenas = s.arenas; crashed } in
  let ended = ref None in
  let phase () =
    ignore (Mcsim.run ~cores:1 ~quantum_ns:1 ~policy ~arena:s.arenas.(0) s.threads);
    let r = snapshot false () in
    ended := Some r;
    r
  in
  let r =
    Arena.crash_each s.arenas phase (fun aid k _ ->
        let run = match !ended with Some r -> fun () -> r | None -> snapshot true in
        visit aid (starts.(aid) + k) run)
  in
  (r, Array.fold_left ( + ) 0 (Array.mapi (fun aid a -> Arena.store_count a - starts.(aid)) s.arenas))

module Images = Hashtbl.Make (struct
  type t = int array array

  let equal = ( = )
  let hash = Array.fold_left (Array.fold_left (fun h w -> (h * 31) + w)) 0
end)

(* The crash oracle of one family run.  It sees a crashed copy of every
   arena of the run, each under its own instance of the crash's mode (a
   randomized mode draws from a fresh PRNG per arena); the run's own
   arenas stay as they are, for the next mode and the rest of the
   phase.  The copies take over the images of the previous copies.
   [f.read] runs once per distinct image, across all the run's
   schedules.  The memo key is exact: {!Arena.image_key} of each copy
   against [base], a copy of the run's first crashed image of that
   arena, taken before [read], whose recovery writes to the copies.
   Distinct images mostly show the same thing, and the memo keeps one
   copy of each observation. *)
let crash_oracle f =
  let spares = ref [||] and base = ref [||] and seen = Images.create 64 in
  let shown = Hashtbl.create 64 in
  fun r crash ->
    let into i = if i < Array.length !spares then Some !spares.(i) else None in
    spares :=
      Array.mapi (fun i a -> Arena.crashed_copy ?into:(into i) a (mode_of_crash crash)) r.arenas;
    if Array.length !base = 0 then
      base := Array.map (fun a -> Arena.crashed_copy a Storelog.Keep_all) !spares;
    let key = Array.map2 (fun reference -> Arena.image_key ~reference) !base !spares in
    if not (Images.mem seen key) then begin
      let o = f.read !spares in
      if not (Hashtbl.mem shown o) then Hashtbl.add shown o o;
      Images.add seen key (Hashtbl.find shown o)
    end;
    f.judge r (Images.find seen key)

let stamp f ~decisions ~crash (kind, detail) =
  {
    kind;
    detail;
    counterexample =
      {
        Cx.family = f.family;
        index = f.index;
        config = f.config;
        kind = kind_to_string kind;
        decisions;
        crash;
        detail;
      };
  }

let run ?(tracer = Trace.null) f =
  match f.gate with
  | Some reason -> { (empty_report f.index) with skipped = Some reason }
  | None ->
      let c = f.config in
      with_mutant f.mutant c.mutant @@ fun () ->
      let sched_span = Trace.intern tracer "check.schedule" in
      let crash_inst = Trace.intern tracer "check.crash_point" in
      let crash_note = if c.crashes then f.crash_gate else Some "crash engine disabled" in
      let crash_runs = ref 0 in
      let crash_points = ref 0 in
      let stores = ref 0 in
      let ops_checked = ref 0 in
      let violations = ref [] in
      let crash_oracle = crash_oracle f in
      let add ~decisions ~crash finding =
        violations := stamp f ~decisions ~crash finding :: !violations
      in
      (* Every crash point of the live execution, under every mode
         plus every epoch cutoff still pending there under [non_tso]:
         the oracle's findings are buffered, to be reported after the
         live ones in (arena, count, mode) order. *)
      let visit crashes aid k run =
        if crash_note = None then begin
          incr crash_points;
          let r = run () in
          let cutoffs = if c.non_tso then Arena.pending_epochs r.arenas.(aid) else [] in
          List.iter
            (fun (mode, cutoff) ->
              let crash = { Cx.arena = aid; store_count = k; mode; crash_seed = k; cutoff } in
              crashes := (crash, crash_oracle r crash) :: !crashes)
            (List.map (fun m -> (m, None)) [ "keep_none"; "keep_all"; "random_eviction" ]
            @ List.map (fun e -> ("non_tso_cutoff", Some e)) cutoffs)
        end
      in
      (* One explored schedule: execute it once, crashing every point
         on the way, then report the live oracle and the crash product. *)
      let check_schedule policy rc =
        let crashes = ref [] in
        let r, stored = execute f ~policy ~visit:(visit crashes) in
        let choices = Schedule.choices rc in
        Trace.span_begin tracer sched_span (Array.length choices);
        ops_checked := !ops_checked + f.ops r.result;
        stores := !stores + stored;
        List.iter (add ~decisions:choices ~crash:None) (f.live r);
        List.iter
          (fun (crash, findings) ->
            incr crash_runs;
            Trace.instant tracer crash_inst crash.Cx.store_count;
            List.iter (add ~decisions:choices ~crash:(Some crash)) findings)
          (List.stable_sort
             (fun (a, _) (b, _) -> compare a.Cx.arena b.Cx.arena)
             (List.rev !crashes));
        Trace.span_end tracer sched_span
      in
      if f.canonical_fifo then begin
        let rc = Schedule.recorder () in
        check_schedule (Schedule.record_policy ~fallback:Mcsim.Fifo rc) rc
      end;
      let exploration =
        match c.explorer with
        | Dfs ->
            Schedule.dfs ~max_schedules:c.schedules (fun ~prefix ->
                let rc = Schedule.recorder () in
                let policy = Schedule.record_policy ~prefix ~fallback:Mcsim.Fifo rc in
                check_schedule policy rc;
                (Schedule.decisions rc, ()))
        | Pct ->
            Schedule.pct ~schedules:c.schedules ~seed:c.seed (fun ~policy ->
                let rc = Schedule.recorder () in
                check_schedule (Schedule.record_policy ~fallback:policy rc) rc)
      in
      {
        index = f.index;
        schedules_run = exploration.Schedule.schedules;
        exhausted = exploration.Schedule.exhausted;
        crash_runs = !crash_runs;
        crash_points = !crash_points;
        stores = !stores;
        ops_checked = !ops_checked;
        violations = List.rev !violations;
        skipped = None;
        crash_note;
      }

let replay f (cx : Cx.t) =
  match f.gate with
  | Some reason -> { (empty_report f.index) with skipped = Some reason }
  | None ->
      with_mutant f.mutant f.config.mutant @@ fun () ->
      let policy =
        Schedule.record_policy ~prefix:cx.Cx.decisions ~fallback:Mcsim.Fifo
          (Schedule.recorder ())
      in
      let found = ref [] in
      let visit aid k run =
        match cx.Cx.crash with
        | Some c when c.Cx.arena = aid && c.Cx.store_count = k ->
            found := crash_oracle f (run ()) c
        | Some _ | None -> ()
      in
      let r, _ = execute f ~policy ~visit in
      let crashes = if cx.Cx.crash = None then 0 else 1 in
      {
        (empty_report f.index) with
        schedules_run = 1;
        crash_runs = crashes;
        crash_points = crashes;
        ops_checked = f.ops r.result;
        violations =
          List.map
            (fun (kind, detail) ->
              { kind; detail; counterexample = { cx with Cx.detail = detail } })
            (if cx.Cx.crash = None then f.live r else !found);
      }
