(* ffcli: exercise the persistent indexes from the command line.

   Every structure-facing subcommand resolves its index through
   Ff_index.Registry, so each registered structure (including blink and
   the KV layer) is reachable here with no per-binary builder table.

   Subcommands:
     list        registered indexes and their capability matrix
     fuzz        random ops cross-checked against a model
     crash-test  one-thread model check: crash a batch at every store
     stats       PM event statistics for a load (text or --json;
                 --shards adds per-shard fault/degradation blocks)
     dump        print the structure of a small FAST+FAIR tree
     persist     save a persisted PM image to a file and reload it
     trace       record a multithreaded run as a Perfetto JSON trace
     top         SLO/profiler dashboard from a live mini-run
     check       model-check schedules and crash states (--tx switches
                 to whole-transaction durable serializability,
                 --snapshot to snapshot serializability, --rebalance
                 to lost-write freedom under live resharding, --replica
                 to no-lost-acks replication; --all smoke-sweeps every
                 family with one verdict line each)
     tx          failure-atomic multi-key transfers: crash one transfer
                 mid-commit at every store, audit the balances
     snapshot    MVCC time travel: pin epochs, crash, read the old
                 world back, reclaim with epoch GC
     backup      online backup of a pinned snapshot into a second
                 arena while the source keeps serving writes
     rebalance   live shard split / merge / migrate under a concurrent
                 writer, auditing zero lost acknowledged writes
     cluster     replicated serving over a lossy fabric: partition and
                 power-fail the hot shard's primary under a concurrent
                 writer, fail over, resync, audit zero lost acks *)

module Arena = Ff_pmem.Arena
module Config = Ff_pmem.Config
module Stats = Ff_pmem.Stats
module Storelog = Ff_pmem.Storelog
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module Descriptor = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Locks = Ff_index.Locks
module W = Ff_workload.Workload
module Shard = Ff_shard.Shard
module Rebalance = Ff_rebalance.Rebalance
module Scrub = Ff_scrub.Scrub
module Tree = Ff_fastfair.Tree
open Cmdliner

let mk_arena ?(read_ns = 300) ?(write_ns = 300) words =
  Arena.create ~config:(Config.pm ~read_ns ~write_ns ()) ~words ()

(* Node size used by the crash sweep: small nodes maximize structural
   events (splits, merges) per store. *)
let small_nodes d =
  {
    Descriptor.default_config with
    Descriptor.node_bytes =
      (if d.Descriptor.caps.Descriptor.tunable_node_bytes then Some 256 else None);
  }

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_indexes names_only persistent_only =
  let ds =
    List.filter
      (fun d ->
        (not persistent_only) || d.Descriptor.caps.Descriptor.is_persistent)
      (Registry.all ())
  in
  if names_only then List.iter (fun d -> print_endline d.Descriptor.name) ds
  else begin
    (* Aligned capability matrix: one row per index, one column per
       capability, so "which indexes can migrate" (reloc) is a single
       glance down a column. *)
    let b v = if v then "yes" else "-" in
    let row name range del recov pers locks node reloc scrub tx snap =
      Printf.printf "%-18s %-5s %-4s %-4s %-5s %-10s %-8s %-6s %-6s %-4s %-4s\n"
        name range del recov pers locks node reloc scrub tx snap
    in
    row "name" "range" "del" "rec" "pers" "locks" "node" "reloc" "scrub" "tx"
      "snap";
    List.iter
      (fun d ->
        let c = d.Descriptor.caps in
        row d.Descriptor.name (b c.Descriptor.has_range)
          (b c.Descriptor.has_delete)
          (b c.Descriptor.has_recovery)
          (b c.Descriptor.is_persistent)
          (String.concat "/"
             (List.map
                (function Locks.Single -> "single" | Locks.Sim -> "sim")
                c.Descriptor.lock_modes))
          (if c.Descriptor.tunable_node_bytes then "tunable" else "fixed")
          (b c.Descriptor.relocatable_root)
          (b c.Descriptor.scrubbable) (b c.Descriptor.txnable)
          (b c.Descriptor.snapshottable))
      ds;
    print_newline ();
    List.iter
      (fun d ->
        Printf.printf "%-18s %s\n" d.Descriptor.name d.Descriptor.summary;
        match d.Descriptor.composite with
        | Some (inner, n) ->
            Printf.printf "%-18s   composite: %d shards over %s\n" "" n inner
        | None -> ())
      ds
  end;
  0

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

(* With --shards N, the named index becomes the inner structure of an
   on-the-fly sharded composite; the capability gate's rejection (e.g.
   a volatile inner) is surfaced verbatim.

   With --faults, the run is punctuated by power failures that fire a
   seeded poison plan, followed by a full scrub-and-recover cycle.
   Poisoned leaf-record lines are quarantined with loss, so the model
   oracle accepts a key silently disappearing only while the scrub
   reports accounted record loss — a wrong surviving value or an
   unaccounted disappearance still fails the run. *)
let fuzz index_name ops_count seed shards faults =
  match
    if shards = 0 then
      Ok (Registry.find_exn index_name, fun arena -> Registry.build index_name arena)
    else
      match Shard.descriptor ~inner:index_name ~shards () with
      | d -> Ok (d, d.Descriptor.build Descriptor.default_config)
      | exception Invalid_argument msg -> Error msg
  with
  | Error msg ->
      Printf.printf "fuzz: %s\n" msg;
      1
  | Ok (d, build) ->
  if faults && not (Scrub.scrubbable d) then begin
    Printf.printf
      "fuzz: --faults needs a scrubbable index and %s is not (caps: %s)\n"
      d.Descriptor.name (Descriptor.caps_line d);
    1
  end
  else begin
  let rng = Prng.create seed in
  let arena = mk_arena (max (ops_count * 64) (1 lsl 16)) in
  let t = ref (build arena) in
  let model = Hashtbl.create 1024 in
  let space = max 64 (ops_count / 2) in
  let mismatches = ref 0 in
  let fault_cycles = ref 0 and lost_total = ref 0 in
  let fault_interval = max 500 (ops_count / 8) in
  let fault_cycle step =
    incr fault_cycles;
    (!t).Intf.close ();
    Arena.set_fault_plan arena
      (Some
         {
           Arena.fault_seed = seed + step;
           poison_lines = 2;
           flip_words = 0;
           stuck_words = 0;
         });
    Arena.power_fail arena (Storelog.Random_eviction (Prng.create step));
    let r =
      Scrub.run ~config:Descriptor.default_config d arena
        ~recover:(fun () ->
          t := d.Descriptor.open_existing Descriptor.default_config arena;
          (!t).Intf.recover ())
    in
    if not (Scrub.clean r) then begin
      incr mismatches;
      Printf.printf "step %d: scrub NOT clean after faults:\n%s\n" step
        (Scrub.to_string r)
    end;
    (* Reconcile the model with accounted media loss. *)
    let lost = ref [] in
    Hashtbl.iter
      (fun k v ->
        match (!t).Intf.search k with
        | Some v' when v' = v -> ()
        | Some v' ->
            incr mismatches;
            Printf.printf "step %d: post-fault key %d -> %d, expected %d\n" step
              k v' v
        | None -> lost := k :: !lost)
      model;
    let n_lost = List.length !lost in
    lost_total := !lost_total + n_lost;
    if n_lost > 0 && r.Scrub.lost_records = 0 then begin
      incr mismatches;
      Printf.printf
        "step %d: %d keys disappeared but the scrub reported no record loss\n"
        step n_lost
    end;
    List.iter (Hashtbl.remove model) !lost
  in
  for step = 1 to ops_count do
    if faults && step mod fault_interval = 0 then fault_cycle step;
    let t = !t in
    let k = 1 + Prng.int rng space in
    (match Prng.int rng 12 with
    | 0 | 1 ->
        let expected = Hashtbl.mem model k in
        let got = t.Intf.delete k in
        if got <> expected then begin
          incr mismatches;
          Printf.printf "step %d: delete %d -> %b, expected %b\n" step k got expected
        end;
        Hashtbl.remove model k
    | 2 | 3 -> (
        let expected = Hashtbl.find_opt model k in
        match (t.Intf.search k, expected) with
        | Some v, Some v' when v = v' -> ()
        | None, None -> ()
        | got, _ ->
            incr mismatches;
            Printf.printf "step %d: search %d -> %s, expected %s\n" step k
              (match got with Some v -> string_of_int v | None -> "none")
              (match expected with Some v -> string_of_int v | None -> "none"))
    | 4 ->
        let expected = Hashtbl.mem model k in
        let got = t.Intf.update k (W.value_of k) in
        if got <> expected then begin
          incr mismatches;
          Printf.printf "step %d: update %d -> %b, expected %b\n" step k got expected
        end
    | _ ->
        t.Intf.insert k (W.value_of k);
        Hashtbl.replace model k (W.value_of k))
  done;
  Hashtbl.iter
    (fun k v ->
      if (!t).Intf.search k <> Some v then begin
        incr mismatches;
        Printf.printf "final: key %d wrong\n" k
      end)
    model;
  (!t).Intf.close ();
  if !mismatches = 0 then begin
    Printf.printf "fuzz ok: %d ops on %s, %d live keys" ops_count (!t).Intf.name
      (Hashtbl.length model);
    if faults then
      Printf.printf " (%d fault cycles, %d records lost to quarantine)"
        !fault_cycles !lost_total;
    print_newline ();
    0
  end
  else begin
    Printf.printf "fuzz FAILED: %d mismatches\n" !mismatches;
    1
  end
  end

(* ------------------------------------------------------------------ *)
(* crash-test: a one-thread model check of any recoverable index       *)
(* ------------------------------------------------------------------ *)

(* One writer runs a two-op batch over [keys] prefilled keys, drawn
   from a keyspace twice as large; the checker crashes it at every
   store count under its three crash modes and judges each image by
   durable linearizability.  The pre-recovery oracle
   runs only on indexes that claim lock-free reads (the paper's
   transient-inconsistency guarantee) — lock-based designs never
   promised it, so their tolerance is reported as unchecked and a
   failure of either oracle exits 1. *)
let crash_test index_name keys seed =
  let module C = Ff_check.Check in
  let d = Registry.find_exn index_name in
  if not d.Descriptor.caps.Descriptor.has_recovery then begin
    Printf.printf "crash-test: %s has no recovery capability (volatile); nothing to test\n"
      index_name;
    0
  end
  else begin
    let r =
      C.run
        ~config:
          {
            C.default with
            Ff_check.Counterexample.writers = 1;
            readers = 0;
            ops = 2;
            keyspace = 2 * keys;
            prefill = keys;
            seed;
            node_bytes = (small_nodes d).Descriptor.node_bytes;
          }
        index_name
    in
    let failed kind =
      List.sort_uniq compare
        (List.filter_map
           (fun (v : C.violation) ->
             match v.C.counterexample.Ff_check.Counterexample.crash with
             | Some c when v.C.kind = kind -> Some c.Ff_check.Counterexample.store_count
             | _ -> None)
           r.C.violations)
    in
    let intolerant = failed C.Tolerance and lost = failed C.Durability in
    Printf.printf
      "crash-test %s: %d points over %d stores, tolerated pre-recovery %s, recovered %d\n"
      index_name r.C.crash_points r.C.stores
      (if d.Descriptor.caps.Descriptor.lock_free_reads then
         string_of_int (r.C.crash_points - List.length intolerant)
       else "unchecked (no lock-free reads)")
      (r.C.crash_points - List.length lost);
    let show label = function
      | [] -> ()
      | pts ->
          Printf.printf "  %s at stores: %s\n" label
            (String.concat ", " (List.map string_of_int pts))
    in
    show "intolerant" intolerant;
    show "recovery FAILED" lost;
    List.iter
      (fun (v : C.violation) ->
        if v.C.kind = C.Linearizability then
          Printf.printf "  FAIL: uncrashed run: %s\n" v.C.detail)
      r.C.violations;
    if r.C.violations = [] then 0 else 1
  end

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

module J = Ff_trace.Json

let fault_stats_json (fs : Arena.fault_stats) =
  J.Obj
    [
      ("poisoned", J.Int fs.Arena.poisoned);
      ("flipped", J.Int fs.Arena.flipped);
      ("stuck", J.Int fs.Arena.stuck);
      ("media_error_reads", J.Int fs.Arena.media_error_reads);
    ]

let pm_stats_json s = J.of_string (Stats.to_json s)

let print_pm_text keys s =
  Printf.printf "  stores   %10d (%.2f/op)\n" s.Stats.stores
    (float_of_int s.Stats.stores /. float_of_int keys);
  Printf.printf "  flushes  %10d (%.2f/op)\n" s.Stats.flushes
    (float_of_int s.Stats.flushes /. float_of_int keys);
  Printf.printf "  fences   %10d (%.2f/op)\n" s.Stats.fences
    (float_of_int s.Stats.fences /. float_of_int keys);
  Printf.printf "  LLC miss %10d (%.2f/op)\n" s.Stats.line_misses
    (float_of_int s.Stats.line_misses /. float_of_int keys);
  Printf.printf "  sim time %10.3f ms (%.3f us/op)\n"
    (float_of_int (Stats.total_ns s) /. 1e6)
    (float_of_int (Stats.total_ns s) /. float_of_int keys /. 1000.)

(* With --shards N, the load runs through the serving layer and the
   report gains per-shard blocks: PM counters, media-fault statistics
   and the degradation guard's counters.  --degrade K then poisons the
   root-node line of the first K shards and probes each with one
   routed search, so the degraded/fault blocks show live values (the
   siblings keep serving; a scrubbed recover would re-admit). *)
let stats index_name keys seed json shards degrade =
  if shards = 0 then begin
    let arena = mk_arena (max (keys * 64) (1 lsl 16)) in
    let t = Registry.build index_name arena in
    let rng = Prng.create seed in
    let ks = W.distinct_uniform rng ~n:keys ~space:(8 * keys) in
    Arena.reset_stats arena;
    W.load_keys t ks;
    let s = Arena.total_stats arena in
    if json then
      print_endline
        (J.to_string
           (J.Obj
              [
                ("index", J.Str index_name);
                ("keys", J.Int keys);
                ("pm", pm_stats_json s);
                ("fault_stats", fault_stats_json (Arena.fault_stats arena));
              ]))
    else begin
      Printf.printf "index: %s, %d inserts\n" index_name keys;
      print_pm_text keys s
    end;
    0
  end
  else begin
    match
      Shard.create ~words:(max (keys * 64 / shards) (1 lsl 16))
        ~inner:index_name ~shards ()
    with
    | exception Invalid_argument msg ->
        Printf.printf "stats: %s\n" msg;
        1
    | t ->
        let rng = Prng.create seed in
        let space = 8 * keys in
        let ks = W.distinct_uniform rng ~n:keys ~space in
        let ops = Array.map (fun k -> W.Insert k) ks in
        ignore (Shard.submit t ops);
        ignore (Shard.drain_queues t);
        let degrade = max 0 (min degrade shards) in
        for s = 0 to degrade - 1 do
          let a = Shard.arenas t |> fun ar -> ar.(s) in
          Arena.poison_line a (Arena.root_get a 0 / Arena.words_per_line);
          (try
             for k = 1 to space do
               if Shard.shard_of_key t k = s then begin
                 ignore (Shard.search t k);
                 raise Exit
               end
             done
           with
          | Exit -> ()
          | Shard.Degraded _ -> ())
        done;
        let arenas = Shard.arenas t in
        let healthy = Shard.healthy t in
        let dstats = Shard.degraded_stats t in
        let merged = Stats.create () in
        Array.iter (fun a -> Stats.add merged (Arena.total_stats a)) arenas;
        let merged_faults =
          Array.fold_left
            (fun (acc : Arena.fault_stats) a ->
              let fs = Arena.fault_stats a in
              {
                Arena.poisoned = acc.Arena.poisoned + fs.Arena.poisoned;
                flipped = acc.Arena.flipped + fs.Arena.flipped;
                stuck = acc.Arena.stuck + fs.Arena.stuck;
                media_error_reads =
                  acc.Arena.media_error_reads + fs.Arena.media_error_reads;
              })
            { Arena.poisoned = 0; flipped = 0; stuck = 0; media_error_reads = 0 }
            arenas
        in
        if json then begin
          let shard_block i =
            let me, retries, rejected = dstats.(i) in
            J.Obj
              [
                ("shard", J.Int i);
                ("healthy", J.Bool healthy.(i));
                ("media_errors", J.Int me);
                ("retries", J.Int retries);
                ("rejected", J.Int rejected);
                ("fault_stats", fault_stats_json (Arena.fault_stats arenas.(i)));
                ("pm", pm_stats_json (Arena.total_stats arenas.(i)));
              ]
          in
          print_endline
            (J.to_string
               (J.Obj
                  [
                    ("index", J.Str index_name);
                    ("keys", J.Int keys);
                    ("shards", J.Int shards);
                    ("pm", pm_stats_json merged);
                    ("fault_stats", fault_stats_json merged_faults);
                    ( "degraded_stats",
                      J.Arr (List.init shards shard_block) );
                  ]))
        end
        else begin
          Printf.printf "index: %s x %d shards, %d inserts\n" index_name shards
            keys;
          print_pm_text keys merged;
          Printf.printf "  faults: %d poisoned, %d media-error reads\n"
            merged_faults.Arena.poisoned merged_faults.Arena.media_error_reads;
          Array.iteri
            (fun i (me, retries, rejected) ->
              Printf.printf
                "  shard %d: %s, %d media errors, %d retries, %d rejected\n" i
                (if healthy.(i) then "healthy" else "DEGRADED")
                me retries rejected)
            dstats
        end;
        0
  end

(* ------------------------------------------------------------------ *)
(* dump                                                                *)
(* ------------------------------------------------------------------ *)

let dump keys =
  let module L = Ff_fastfair.Layout in
  let module Node = Ff_fastfair.Node in
  let arena = Arena.create ~words:(1 lsl 16) () in
  let t = Tree.create ~node_bytes:128 arena in
  for k = 1 to keys do
    Tree.insert t ~key:(k * 10) ~value:(W.value_of k)
  done;
  let l = Tree.layout t in
  let rt = Tree.root t in
  let top = Arena.peek arena (rt + L.off_level) in
  Printf.printf "height %d, root @%d\n" (top + 1) rt;
  for level = top downto 0 do
    Printf.printf "level %d:\n" level;
    let rec leftmost n =
      if Arena.peek arena (n + L.off_level) > level then
        leftmost (Arena.peek arena (n + L.off_leftmost))
      else n
    in
    let rec walk n =
      if n <> 0 then begin
        let entries = Node.entries_debug arena l n in
        Printf.printf "  @%-6d low=%-6d [%s]\n" n
          (Arena.peek arena (n + L.off_low))
          (String.concat "; "
             (List.map (fun (k, p) -> Printf.sprintf "%d->%d" k p) entries));
        walk (Arena.peek arena (n + L.off_sibling))
      end
    in
    walk (leftmost rt)
  done;
  0

(* ------------------------------------------------------------------ *)
(* persist: save any index's image to disk and reload it               *)
(* ------------------------------------------------------------------ *)

let persist index_name keys path =
  let d = Registry.find_exn index_name in
  if not d.Descriptor.caps.Descriptor.is_persistent then begin
    Printf.printf "persist: %s is volatile; there is no image to save\n" index_name;
    0
  end
  else begin
    let arena = mk_arena (max (keys * 64) (1 lsl 16)) in
    let t = Registry.build index_name arena in
    let rng = Prng.create 1 in
    let ks = W.distinct_uniform rng ~n:keys ~space:(8 * keys) in
    W.load_keys t ks;
    t.Intf.close ();
    Arena.save_to_file arena path;
    Printf.printf "saved %d keys of %s to %s (%d KiB persisted image)\n" keys
      index_name path
      (Arena.capacity arena * 8 / 1024);
    (* Reload as if after a reboot; the root-slot manifest names the
       index, so no out-of-band knowledge is needed. *)
    let arena2 = Arena.load_from_file path in
    let t2 = Registry.open_existing arena2 in
    t2.Intf.recover ();
    Printf.printf "manifest: %s\n" t2.Intf.name;
    let missing = ref 0 in
    Array.iter
      (fun k -> if t2.Intf.search k <> Some (W.value_of k) then incr missing)
      ks;
    Sys.remove path;
    if !missing = 0 then begin
      Printf.printf "reloaded image: all %d keys present\n" keys;
      0
    end
    else begin
      Printf.printf "reloaded image: %d keys MISSING\n" !missing;
      1
    end
  end

(* ------------------------------------------------------------------ *)
(* scrub: deterministic mid-split leak demo and repair exercise        *)
(* ------------------------------------------------------------------ *)

(* Crash a split-heavy insert batch at ascending store points until the
   post-crash image leaks at least one allocated-but-unreachable block,
   then scrub it: the report must show the leak reclaimed and the next
   allocation must actually reuse the reclaimed block.  Every step
   derives from (--seed, store index) alone, so one seed produces the
   byte-identical report on every run.  --mutate-skip-scrub recovers
   without scrubbing and runs detection only: the leak oracle must then
   fail (exit 1), proving the oracle catches a recovery path that
   forgot to scrub. *)
let scrub_run index_name keys seed poison json out mutate_skip =
  let d = Registry.find_exn index_name in
  if not (Scrub.scrubbable d) then begin
    Printf.printf "scrub: %s is not scrubbable (caps: %s)\n" index_name
      (Descriptor.caps_line d);
    1
  end
  else begin
    let config = small_nodes d in
    let base = mk_arena (max (keys * 100) (1 lsl 16)) in
    let t = d.Descriptor.build config base in
    let rng = Prng.create seed in
    let ks = W.distinct_uniform rng ~n:keys ~space:(8 * keys) in
    W.load_keys t ks;
    t.Intf.close ();
    Arena.drain base;
    let fresh = Array.init ((keys / 4) + 8) (fun i -> (8 * keys) + 1 + i) in
    let run_batch (t : Intf.ops) =
      Array.iter (fun k -> t.Intf.insert k (W.value_of k)) fresh
    in
    let reopen = d.Descriptor.open_existing config in
    (* Crash one run of the batch before every store from the first on
       until the crashed copy leaks.  That point is crashed once more
       for the scrub, with the fault plan armed on the live arena, which
       the copy inherits between the crash and the power failure; no
       later point is crashed, so the copy stays valid. *)
    let a = Arena.clone base in
    let t = reopen a in
    let found = ref None in
    let visit _ k crash =
      let mode () = Storelog.Random_eviction (Prng.create k) in
      if k >= 1 && Option.is_none !found then begin
        let audit = Scrub.audit ~config d (crash (mode ())) in
        if audit.Scrub.leaked_blocks <> [] then begin
          if poison > 0 && not mutate_skip then
            Arena.set_fault_plan a
              (Some
                 {
                   Arena.fault_seed = seed + k;
                   poison_lines = poison;
                   flip_words = 0;
                   stuck_words = 0;
                 });
          found := Some (k, audit, crash (mode ()))
        end
      end
    in
    let before = Arena.store_count a in
    Arena.crash_each [| a |] (fun () -> run_batch t) visit;
    let span = Arena.store_count a - before in
    match !found with
    | None ->
        Printf.printf "scrub: no leaking crash point in %d stores of %s\n" span
          index_name;
        1
    | Some (k, audit, a) ->
        Printf.printf
          "crash at store %d/%d leaks %d words in %d blocks (found by audit)\n" k
          span audit.Scrub.leaked_words
          (List.length audit.Scrub.leaked_blocks);
        if mutate_skip then begin
          (* Mutant: plain recovery with the scrub pass disabled. *)
          let t = d.Descriptor.open_existing config a in
          t.Intf.recover ();
          let r = Scrub.audit ~config d a in
          if r.Scrub.leaked_blocks <> [] then begin
            Printf.printf
              "mutant (scrub skipped): leak oracle FAILED as required — %d words \
               still leaked after recovery\n"
              r.Scrub.leaked_words;
            1
          end
          else begin
            print_endline "mutant (scrub skipped): leak oracle unexpectedly clean";
            0
          end
        end
        else begin
          let r =
            Scrub.run ~config d a ~recover:(fun () ->
                let t = d.Descriptor.open_existing config a in
                t.Intf.recover ())
          in
          if json then print_endline (Scrub.to_string r)
          else Format.printf "%a@." Scrub.pp r;
          (match out with
          | None -> ()
          | Some path ->
              let oc = open_out path in
              output_string oc (Scrub.to_string r);
              output_char oc '\n';
              close_out oc;
              Printf.printf "report saved to %s\n" path);
          (* The leak must be gone (composite indexes reclaim inside
             their own recover, so re-audit rather than trusting this
             report's reclaimed count) and genuinely reusable: the
             next allocation of the leaked block's own size must land
             inside a gap that was leaked at detection time or
             reclaimed by this run. *)
          let post = Scrub.audit ~config d a in
          let leak_gone = post.Scrub.leaked_blocks = [] in
          Printf.printf "post-scrub audit: %s\n"
            (if leak_gone then "no leaks remain" else "LEAKS REMAIN");
          let grain =
            match audit.Scrub.leaked_blocks @ r.Scrub.leaked_blocks with
            | (_, w) :: _ -> w
            | [] -> Arena.words_per_line
          in
          let na = Arena.alloc_raw a grain in
          let reused =
            List.exists
              (fun (addr, w) -> na >= addr && na + grain <= addr + w)
              (audit.Scrub.leaked_blocks @ r.Scrub.leaked_blocks)
          in
          Printf.printf "next alloc of %d words -> @%d (%s)\n" grain na
            (if reused then "reuses the reclaimed leak" else "fresh memory");
          if Scrub.clean r && leak_gone && reused then 0
          else begin
            Printf.printf "scrub FAILED: clean=%b leak_gone=%b reused=%b\n"
              (Scrub.clean r) leak_gone reused;
            1
          end
        end
  end

(* ------------------------------------------------------------------ *)
(* trace: record a multithreaded mixed run as a Perfetto JSON file     *)
(* ------------------------------------------------------------------ *)

let trace keys ops threads seed out =
  let module Mcsim = Ff_mcsim.Mcsim in
  let module Locks = Ff_index.Locks in
  let module Trace = Ff_trace.Trace in
  let threads = max 1 (min 64 threads) in
  (* Fail on an unwritable output path now, not after the simulation. *)
  close_out (open_out out);
  let config = { Config.default with Config.write_latency_ns = 300; max_threads = 64 } in
  let arena = Arena.create ~config ~words:(max ((keys + ops) * 80) (1 lsl 16)) () in
  let t = Tree.create ~lock_mode:Locks.Sim arena in
  let rng = Prng.create seed in
  let ks = W.distinct_uniform rng ~n:(keys + ops) ~space:(16 * (keys + ops)) in
  ignore
    (Mcsim.run ~cores:16 ~arena
       [|
         (fun _ ->
           Array.iteri
             (fun i k -> if i < keys then Tree.insert t ~key:k ~value:(W.value_of k))
             ks);
       |]);
  (* Attach the tracer after the untraced preload: each Mcsim.run
     restarts the simulated clock at zero. *)
  let tr = Trace.for_arena arena in
  Tree.set_tracer t tr;
  let per = max 1 (ops / threads) in
  let body tid =
    let r = Prng.create (seed + 100 + tid) in
    let base = keys + (tid * per) in
    let inserted = ref 0 in
    for i = 0 to per - 1 do
      match i mod 4 with
      | 0 | 1 -> ignore (Tree.search t ks.(Prng.int r keys))
      | 2 ->
          if base + !inserted < keys + ops then begin
            let k = ks.(base + !inserted) in
            Tree.insert t ~key:k ~value:(W.value_of k);
            incr inserted
          end
      | _ -> ignore (Tree.delete t ks.(Prng.int r keys))
    done
  in
  ignore
    (Mcsim.run ~cores:16 ~quantum_ns:150 ~lock_ns:20 ~contention_ns:100 ~arena
       (Array.init threads (fun _ -> body)));
  Arena.set_event_sink arena None;
  Ff_trace.Perfetto.write_file tr out;
  Printf.printf
    "wrote %s: %d events (%d dropped), %d duplicate-pointer skips observed\n" out
    (Trace.event_count tr) (Trace.dropped_count tr) (Trace.dup_skips tr);
  Format.printf "%a@." Ff_trace.Metrics.pp_text (Trace.metrics tr);
  0

(* ------------------------------------------------------------------ *)
(* top: text dashboard from a live mini-run                            *)
(* ------------------------------------------------------------------ *)

module FTrace = Ff_trace.Trace
module Obs_snapshot = Ff_obs.Snapshot
module Obs_slo = Ff_obs.Slo
module Obs_profile = Ff_obs.Profile

let top index_name ops shards seed p99_bound =
  let clock_ref = ref (fun () -> 0) in
  let tr = FTrace.create ~capacity:(1 lsl 15) ~clock:(fun () -> !clock_ref ()) () in
  match
    Shard.create
      ~words:(max (ops * 64 / shards) (1 lsl 16))
      ~batch_cap:64 ~tracer:tr ~inner:index_name ~shards ()
  with
  | exception Invalid_argument msg ->
      Printf.printf "top: %s\n" msg;
      2
  | t ->
      let arenas = Shard.arenas t in
      clock_ref :=
        (fun () ->
          Array.fold_left
            (fun acc a -> max acc (Arena.elapsed_ns a))
            0 arenas);
      Array.iter (fun a -> FTrace.attach_arena tr a) arenas;
      let keys = W.zipfian (Prng.create seed) ~n:ops ~space:(8 * ops) ~theta:0.99 in
      let oprng = Prng.create (W.shard_seed ~base:seed ~shard:1) in
      let trace_ops =
        Array.map
          (fun k ->
            let r = Prng.int oprng 100 in
            if r < 60 then W.Insert k
            else if r < 90 then W.Search k
            else if r < 95 then W.Delete k
            else W.Range (k, 8))
          keys
      in
      let rules =
        [
          Obs_slo.Latency
            {
              rule = "insert-p99";
              metric = "shard.latency_ns.insert";
              percentile = 99.;
              bound_ns = p99_bound;
            };
          Obs_slo.Latency
            {
              rule = "search-p99";
              metric = "shard.latency_ns.search";
              percentile = 99.;
              bound_ns = p99_bound;
            };
          Obs_slo.Burn_rate
            {
              rule = "degraded-budget";
              events = "shard.degraded";
              ops = "shard.ops";
              max_per_1k = 5.;
            };
        ]
      in
      let mon = Obs_slo.Monitor.create ~window_ns:200_000 ~tracer:tr rules in
      let chunk = max 1 (Array.length trace_ops / 16) in
      let off = ref 0 in
      while !off < Array.length trace_ops do
        let c = min chunk (Array.length trace_ops - !off) in
        ignore (Shard.submit t (Array.sub trace_ops !off c));
        Obs_slo.Monitor.tick mon ~now:(FTrace.now tr);
        off := !off + c
      done;
      ignore (Shard.drain_queues t);
      let now = FTrace.now tr in
      Obs_slo.Monitor.check mon ~now;
      let report = Obs_slo.Monitor.report mon ~now in
      let snap =
        Obs_snapshot.make
          ~label:(index_name ^ " live")
          ~scale:0. ~seed ~ops:(Array.length trace_ops) ~elapsed_ns:now
          ~latency:(Shard.merged_latency t) ~slo:report
          ~profile:(Obs_profile.of_trace ~ops:(Array.length trace_ops) tr)
          ()
      in
      Format.printf "%a" Obs_snapshot.pp snap;
      Format.printf "shard health: %s@."
        (String.concat " "
           (Array.to_list
              (Array.mapi
                 (fun i h -> Printf.sprintf "%d:%s" i (if h then "ok" else "DEGRADED"))
                 (Shard.healthy t))));
      (* The exit code mirrors the SLO verdict so `ffcli top` doubles as
         a gate: 0 when every evaluated rule held, 1 on any violation. *)
      if Obs_slo.ok report then 0 else 1

(* ------------------------------------------------------------------ *)
(* tx: failure-atomic multi-key transfers with a mid-commit crash      *)
(* ------------------------------------------------------------------ *)

module Tx = Ff_tx.Tx

(* Balances live in the index odd-encoded with the account id folded
   into the low bits: values stay globally unique (two accounts holding
   the same balance must not produce equal values — the tree reads
   duplicate values as in-flight-insert markers and skips them),
   nonzero per the index contract, and never line-aligned. *)
let bal_enc ~accounts a b = (2 * ((b * accounts) + (a - 1))) + 1
let bal_dec ~accounts v = (v - 1) / 2 / accounts

let tx_path_of_string = function
  | "logged" -> Tx.Logged
  | "shadow" -> Tx.Shadow
  | s -> invalid_arg (Printf.sprintf "unknown commit path %S (logged, shadow)" s)

(* The demo: load N accounts, run a history of committed transfers,
   then run one further transfer, crashed at every store offset on
   the way.  After each power failure + recovery the balance sheet
   must sit exactly on a transaction boundary (all-pre or all-post) —
   which also conserves the total.  A torn half-transfer is a
   violation and a nonzero exit. *)
let tx_demo index_name path_name accounts transfers seed json =
  let path = tx_path_of_string path_name in
  let d = Registry.find_exn index_name in
  if not d.Descriptor.caps.Descriptor.txnable then begin
    Printf.printf "tx: %s is not txnable (caps: %s)\n" index_name
      (Descriptor.caps_line d);
    1
  end
  else begin
    let config = small_nodes d in
    let init = 1_000 in
    let base = mk_arena (max (accounts * 400) (1 lsl 16)) in
    let t = d.Descriptor.build config base in
    let balances = Array.make (accounts + 1) 0 in
    let bal_enc = bal_enc ~accounts and bal_dec = bal_dec ~accounts in
    for a = 1 to accounts do
      balances.(a) <- init;
      t.Intf.insert a (bal_enc a init)
    done;
    let transfer mgr src dst amt =
      Tx.run mgr (fun tx ->
          match (Tx.get tx src, Tx.get tx dst) with
          | Some sv, Some dv ->
              let sb = bal_dec sv in
              if sb < amt then Tx.abort ~reason:"insufficient funds" tx
              else begin
                Tx.put tx src (bal_enc src (sb - amt));
                Tx.put tx dst (bal_enc dst (bal_dec dv + amt))
              end
          | _ -> Tx.abort ~reason:"missing account" tx)
    in
    let rng = Prng.create seed in
    let pick () =
      let s = 1 + Prng.int rng accounts in
      let d0 = 1 + Prng.int rng accounts in
      let d' = if d0 = s then (s mod accounts) + 1 else d0 in
      (s, d', 1 + Prng.int rng 50)
    in
    let mgr = Tx.create ~path base t in
    let committed = ref 0 and aborted = ref 0 in
    for _ = 1 to transfers do
      let s, dsta, amt = pick () in
      match transfer mgr s dsta amt with
      | Ok () ->
          incr committed;
          balances.(s) <- balances.(s) - amt;
          balances.(dsta) <- balances.(dsta) + amt
      | Error _ -> incr aborted
    done;
    t.Intf.close ();
    Arena.drain base;
    (* The crash victim: guaranteed not to abort on funds. *)
    let src = ref 1 in
    for a = 2 to accounts do
      if balances.(a) > balances.(!src) then src := a
    done;
    let src = !src in
    let dst = (src mod accounts) + 1 in
    let amt = 1 + Prng.int rng (min 50 balances.(src)) in
    let reopen a =
      let t = d.Descriptor.open_existing config a in
      t.Intf.recover ();
      (t, Tx.create ~path a t)
    in
    let pre = Array.init accounts (fun i -> balances.(i + 1)) in
    let post =
      Array.init accounts (fun i ->
          let a1 = i + 1 in
          let delta =
            (if a1 = dst then amt else 0) - (if a1 = src then amt else 0)
          in
          balances.(a1) + delta)
    in
    let redone = ref 0 and undone = ref 0 and points = ref 0 in
    let violations = ref [] in
    let visit _ k crash =
      incr points;
      let t3, m3 = reopen (crash (Storelog.Random_eviction (Prng.create (seed + k)))) in
      (match Tx.recover m3 with
      | `Redone _ -> incr redone
      | `Undone _ -> incr undone
      | `Clean | `Aborted _ -> ());
      let got =
        Array.init accounts (fun i ->
            match t3.Intf.search (i + 1) with
            | Some v -> bal_dec v
            | None -> min_int)
      in
      if got <> pre && got <> post then begin
        let total = Array.fold_left ( + ) 0 got in
        violations :=
          ( k,
            Printf.sprintf
              "balances match neither side of the transfer (total %d, expected %d)"
              total (accounts * init) )
          :: !violations
      end
    in
    (* One transfer on a copy of the device, crashed before each of its
       stores and once it has returned. *)
    let live = Arena.clone base in
    let _, m = reopen live in
    let span =
      Arena.crash_each [| live |]
        (fun () ->
          let before = Arena.store_count live in
          ignore (transfer m src dst amt);
          Arena.store_count live - before)
        visit
    in
    let violations = List.rev !violations in
    let ok = violations = [] in
    if json then
      print_endline
        (J.to_string
           (J.Obj
              [
                ("index", J.Str index_name);
                ("path", J.Str path_name);
                ("accounts", J.Int accounts);
                ( "history",
                  J.Obj
                    [ ("committed", J.Int !committed); ("aborted", J.Int !aborted) ]
                );
                ( "crash_sweep",
                  J.Obj
                    [
                      ("transfer", J.Obj [ ("from", J.Int src); ("to", J.Int dst); ("amount", J.Int amt) ]);
                      ("store_span", J.Int span);
                      ("points", J.Int !points);
                      ("redone", J.Int !redone);
                      ("undone", J.Int !undone);
                      ( "violations",
                        J.Arr
                          (List.map
                             (fun (k, msg) ->
                               J.Obj [ ("store", J.Int k); ("detail", J.Str msg) ])
                             violations) );
                    ] );
                ("ok", J.Bool ok);
              ]))
    else begin
      Printf.printf "tx %s (%s path): %d accounts, %d transfers committed, %d aborted\n"
        index_name path_name accounts !committed !aborted;
      Printf.printf
        "crash sweep: transfer %d->%d amount %d, %d points over %d stores\n" src
        dst amt !points span;
      Printf.printf "  recovery: %d redone, %d rolled back\n" !redone !undone;
      List.iter
        (fun (k, msg) -> Printf.printf "  VIOLATION at store %d: %s\n" k msg)
        violations;
      Printf.printf "balance audit: %s\n"
        (if ok then "every crash lands on a transaction boundary"
         else "ATOMICITY BROKEN")
    end;
    if ok then 0 else 1
  end

(* ------------------------------------------------------------------ *)
(* snapshot: MVCC time travel over a snapshottable index               *)
(* ------------------------------------------------------------------ *)

module Snapshot = Ff_snapshot.Snapshot

let dump_at ops epoch hi =
  let acc = ref [] in
  ops.Intf.range_at epoch 1 hi (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

(* Load, pin, mutate, pin again: show that the first epoch still reads
   the old world, then power-fail and prove the pinned epoch survives
   recovery byte-for-byte before GC reclaims it. *)
let snapshot_demo index_name keys seed =
  let d = Registry.find_exn index_name in
  if not d.Descriptor.caps.Descriptor.snapshottable then begin
    Printf.printf "snapshot: %s is not snapshottable (caps: %s)\n" index_name
      (Descriptor.caps_line d);
    2
  end
  else begin
    let space = 2 * keys in
    let arena = mk_arena (max (1 lsl 20) (keys * 96)) in
    let ops = Registry.build index_name arena in
    let rng = Prng.create seed in
    let ks = W.distinct_uniform rng ~n:keys ~space in
    W.load_keys ops ks;
    let s1 = ops.Intf.snapshot_begin 0 in
    Array.iteri
      (fun i k ->
        (* fresh values from a disjoint part of the odd space (values
           must stay unique across keys) *)
        if i mod 2 = 0 then ops.Intf.insert k (W.value_of (space + k))
        else if i mod 9 = 0 then ignore (ops.Intf.delete k))
      ks;
    let s2 = ops.Intf.snapshot_begin 0 in
    let v1 = dump_at ops s1 space in
    let v2 = dump_at ops s2 space in
    Printf.printf "%s: %d keys loaded, epochs %d and %d pinned\n" index_name
      keys s1 s2;
    Printf.printf "  as-of %d: %d keys   as-of %d: %d keys\n" s1
      (List.length v1) s2 (List.length v2);
    Arena.power_fail arena Storelog.Keep_all;
    let o = Registry.open_existing arena in
    o.Intf.recover ();
    let r1 = dump_at o s1 space in
    let survived = r1 = v1 in
    Printf.printf "  power_fail + recovery: epoch %d re-pin %s\n" s1
      (if survived then "byte-identical" else "DIVERGED");
    let freed = o.Intf.gc_before s2 in
    Printf.printf "  gc_before %d: %d lines freed\n" s2 freed;
    let refused =
      match o.Intf.read_at s1 ks.(0) with
      | exception Invalid_argument _ -> true
      | _ -> false
    in
    Printf.printf "  epoch %d below the GC floor: reads %s\n" s1
      (if refused then "refused" else "STILL SERVED");
    let intact = dump_at o s2 space = v2 in
    Printf.printf "  epoch %d after GC: %s\n" s2
      (if intact then "intact" else "DAMAGED");
    if survived && refused && intact then 0 else 1
  end

(* Online backup: stream a pinned epoch into a second arena at a
   non-default root slot while the source keeps absorbing writes
   between chunks. *)
let backup_demo keys seed root_slot chunk =
  let space = 2 * keys in
  let src = mk_arena (max (1 lsl 20) (keys * 96)) in
  let inner = Registry.build "fastfair" src in
  let st = Snapshot.create src inner in
  let sops = Snapshot.ops_of st "snap-fastfair" in
  let rng = Prng.create seed in
  let ks = W.distinct_uniform rng ~n:keys ~space in
  W.load_keys sops ks;
  let snap = Snapshot.take st in
  let e = Snapshot.epoch snap in
  let expected = ref [] in
  Snapshot.range snap ~lo:1 ~hi:space (fun k v ->
      expected := (k, v) :: !expected);
  let expected = List.rev !expected in
  let dcfg = { Descriptor.default_config with Descriptor.root_slot } in
  let dest = mk_arena (max (1 lsl 20) (keys * 64)) in
  let d = Registry.find_exn "fastfair" in
  let dest_ops = d.Descriptor.build dcfg dest in
  let writes = ref 0 in
  let total =
    Snapshot.backup st ~epoch:e ~dest:dest_ops ~chunk
      ~between:(fun () ->
        (* the source stays online: mutate a few keys per chunk *)
        for _ = 1 to 4 do
          let k = ks.(Prng.int rng keys) in
          sops.Intf.insert k (W.value_of (space + k));
          incr writes
        done)
      ()
  in
  let dump ops =
    let acc = ref [] in
    ops.Intf.range 1 space (fun k v -> acc := (k, v) :: !acc);
    List.rev !acc
  in
  let live_ok = dump dest_ops = expected in
  Printf.printf
    "backup: %d pairs streamed at epoch %d (chunk %d, root slot %d), %d \
     concurrent writes on the source\n"
    total e chunk root_slot !writes;
  Printf.printf "  destination matches the pinned epoch: %s\n"
    (if live_ok then "yes" else "NO");
  Arena.power_fail dest Storelog.Keep_all;
  (* the manifest does not record the root slot, so reopening at a
     non-default slot takes an explicit config — the relocatable_root
     contract *)
  let reopened = d.Descriptor.open_existing dcfg dest in
  reopened.Intf.recover ();
  let crash_ok = dump reopened = expected in
  Printf.printf "  after power_fail + recovery at slot %d: %s\n" root_slot
    (if crash_ok then "byte-identical" else "DIVERGED");
  if live_ok && crash_ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* rebalance: live split / merge / migrate under a concurrent writer   *)
(* ------------------------------------------------------------------ *)

(* One rebalance runs while a simulated writer keeps inserting; the
   audit is the rebalancer's whole contract: every acknowledged write
   (prefill and concurrent) reads back afterwards, live and again
   after a power failure resolved from the decision word alone.
   --mutate-drop-delta arms the cutover mutant, so the audit must
   fail — the lost writes are exactly the dual-written delta. *)
let rebalance_demo kind keys seed bytes_per_ms chunk_ops mutate =
  let module Mcsim = Ff_mcsim.Mcsim in
  let value_of k = (k * 7919) + 13 in
  let throttle = { Rebalance.bytes_per_ms; chunk_ops } in
  let prefill = List.init keys (fun i -> (2 * i) + 1) in
  let writer_keys =
    (* even keys, inserted in a seed-shuffled order so the dual-write
       window sees an unpredictable mix of both spans *)
    let a = Array.init keys (fun i -> (2 * i) + 2) in
    let rng = Prng.create seed in
    for i = keys - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let run t arena rebalance =
    let pairs = List.map (fun k -> (k, value_of k)) writer_keys in
    let writer _ =
      List.iter (fun (k, v) -> Shard.insert t ~key:k ~value:v) pairs
    in
    let report = ref None in
    ignore
      (Mcsim.run ~cores:1 ~quantum_ns:1 ~arena
         [| writer; (fun _ -> report := Some (rebalance ())) |]);
    (List.map (fun k -> (k, value_of k)) prefill @ pairs, Option.get !report)
  in
  let audit what read expected =
    let missing =
      List.filter (fun (k, v) -> read k <> Some v) expected
    in
    Printf.printf "  %s: %d/%d acknowledged writes visible%s\n" what
      (List.length expected - List.length missing)
      (List.length expected)
      (if missing = [] then ""
       else
         Printf.sprintf " — LOST %s"
           (String.concat ", "
              (List.map (fun (k, _) -> string_of_int k) missing)));
    missing = []
  in
  let print_report (r : Rebalance.report) =
    Printf.printf
      "%s: generation %d at shard %d — %d keys copied, %d delta records \
       replayed, %d stale keys cleaned\n"
      kind r.Rebalance.r_generation r.Rebalance.r_shard
      r.Rebalance.r_moved_keys r.Rebalance.r_delta_replayed
      r.Rebalance.r_cleaned_keys;
    Printf.printf
      "  background copy %d ns, cutover window %d ns (simulated)\n"
      r.Rebalance.r_copy_ns r.Rebalance.r_cutover_ns
  in
  Rebalance.mutant_drop_delta := mutate;
  Fun.protect
    ~finally:(fun () -> Rebalance.mutant_drop_delta := false)
    (fun () ->
      match kind with
      | "split" | "merge" ->
          let bounds = if kind = "merge" then [| keys |] else [||] in
          let a = mk_arena (max (1 lsl 20) (keys * 160)) in
          let t =
            Shard.create_composite ~inner:"fastfair"
              ~partition:(Shard.Partition.range ~bounds)
              a
          in
          List.iter
            (fun k -> Shard.insert t ~key:k ~value:(value_of k))
            prefill;
          let expected, r =
            run t a (fun () ->
                if kind = "split" then
                  Rebalance.split ~throttle t ~shard:0 ~pivot:keys
                else Rebalance.merge ~throttle t ~left:0)
          in
          print_report r;
          Printf.printf "  topology: %d shard%s\n" (Shard.shards t)
            (if Shard.shards t = 1 then "" else "s");
          let live_ok = audit "live audit" (Shard.search t) expected in
          Arena.power_fail a Storelog.Keep_all;
          let res = Rebalance.resolve a in
          Printf.printf "  power_fail + resolve: %s\n"
            (match res with
            | Rebalance.Resolved_idle -> "idle (finish already durable)"
            | Rebalance.Resolved_aborted _ -> "ABORTED"
            | Rebalance.Resolved_completed _ -> "rolled forward"
            | Rebalance.Resolved_migrated -> "MIGRATED?");
          let t2 = Shard.attach ~inner:"fastfair" a in
          Shard.recover t2;
          let crash_ok = audit "post-crash audit" (Shard.search t2) expected in
          if live_ok && crash_ok then 0 else 1
      | "migrate" ->
          let t = Shard.create ~group:false ~inner:"fastfair" ~shards:1 () in
          let src = (Shard.arenas t).(0) in
          let dst = mk_arena (max (1 lsl 20) (keys * 160)) in
          List.iter
            (fun k -> Shard.insert t ~key:k ~value:(value_of k))
            prefill;
          let expected, r =
            run t src (fun () -> Rebalance.migrate ~throttle t ~shard:0 ~dst)
          in
          print_report r;
          Printf.printf "  %d arena words shipped; source tombstone: %s\n"
            r.Rebalance.r_moved_words
            (match Rebalance.phase src with
            | Rebalance.Committed _ -> "committed"
            | _ -> "MISSING");
          let live_ok = audit "live audit" (Shard.search t) expected in
          Arena.power_fail dst Storelog.Keep_all;
          let res = Rebalance.resolve src in
          Printf.printf "  power_fail(dst) + resolve(src): %s\n"
            (match res with
            | Rebalance.Resolved_migrated -> "mount the destination"
            | _ -> "UNEXPECTED");
          let o = Registry.open_existing dst in
          o.Intf.recover ();
          let crash_ok =
            audit "post-crash audit" (fun k -> o.Intf.search k) expected
          in
          if live_ok && crash_ok && res = Rebalance.Resolved_migrated then 0
          else 1
      | s ->
          Printf.printf
            "rebalance: unknown kind %S (split, merge, migrate)\n" s;
          2)

(* ------------------------------------------------------------------ *)
(* cluster: replicated serving over a lossy fabric                     *)
(* ------------------------------------------------------------------ *)

module Cluster = Ff_cluster.Cluster

(* A concurrent writer keeps acking while shard 0's primary is first
   partitioned from its backup, then power-failed; the backup is
   promoted, the fabric heals, the dead node restarts and resyncs, and
   the audit requires every acknowledged write to read back.  The
   ack-before-replicate mutant makes the same run lose acks. *)
let cluster_demo nodes shards ops keyspace seed mutate =
  let prev = !Cluster.mutant_ack_before_replicate in
  Cluster.mutant_ack_before_replicate := mutate;
  Fun.protect
    ~finally:(fun () -> Cluster.mutant_ack_before_replicate := prev)
  @@ fun () ->
  let cfg =
    { Cluster.default with Cluster.nodes; shards; seed; words = 1 lsl 15 }
  in
  let cl = Cluster.create cfg in
  Printf.printf
    "cluster: %d nodes, %d shards, lossy fabric (seed %d)%s\n" nodes shards
    seed
    (if mutate then " [MUTANT: ack before replicate]" else "");
  (* Last acked value and indeterminate (errored) attempts per key. *)
  let acked = Hashtbl.create 97 in
  let pending = Hashtbl.create 97 in
  let part_at = max 1 (ops / 3) in
  let kill_at = max 2 (ops / 2) in
  let victim = ref (-1) in
  for j = 1 to ops do
    if j = part_at then begin
      let p = Cluster.primary_of cl ~shard:0 in
      let b = Cluster.backup_of cl ~shard:0 in
      Printf.printf "  t=%dns: partition node %d <-/-> node %d (shard 0)\n"
        (Cluster.now_ns cl) p b;
      Cluster.partition cl ~a:p ~b
    end;
    if j = kill_at then begin
      let v = Cluster.primary_of cl ~shard:0 in
      Printf.printf "  t=%dns: power-fail node %d (shard 0 primary)\n"
        (Cluster.now_ns cl) v;
      Cluster.kill_node cl v;
      victim := v;
      for s = 0 to shards - 1 do
        if Cluster.primary_of cl ~shard:s = v then
          if Cluster.failover cl ~shard:s then
            Printf.printf
              "  t=%dns: shard %d failed over to node %d (term %d)\n"
              (Cluster.now_ns cl) s
              (Cluster.primary_of cl ~shard:s)
              (Cluster.term_of cl ~shard:s)
      done
    end;
    let k = (j mod keyspace) + 1 in
    match Cluster.put cl k j with
    | Ok () ->
        Hashtbl.replace acked k j;
        Hashtbl.remove pending k
    | Error _ ->
        Hashtbl.replace pending k
          (j :: Option.value ~default:[] (Hashtbl.find_opt pending k))
  done;
  Cluster.heal cl;
  if !victim >= 0 then begin
    Cluster.restart_node cl !victim;
    Printf.printf "  t=%dns: node %d restarted and resynced\n"
      (Cluster.now_ns cl) !victim
  end;
  for _ = 1 to 3 do
    Cluster.tick cl
  done;
  let lost = ref 0 in
  let checked = ref 0 in
  Hashtbl.iter
    (fun k v ->
      incr checked;
      let rec read tries =
        match Cluster.get cl k with
        | Ok r -> Some r
        | Error _ ->
            if tries <= 0 then None
            else begin
              Cluster.tick cl;
              read (tries - 1)
            end
      in
      let pend = Option.value ~default:[] (Hashtbl.find_opt pending k) in
      match read 10 with
      | None ->
          incr lost;
          Printf.printf "  LOST: key %d unreadable (last acked %d)\n" k v
      | Some r ->
          let ok =
            match r with Some x -> x = v || List.mem x pend | None -> false
          in
          if not ok then begin
            incr lost;
            Printf.printf "  LOST: key %d reads %s, last acked %d\n" k
              (match r with None -> "absent" | Some x -> string_of_int x)
              v
          end)
    acked;
  let st = Cluster.stats cl in
  Printf.printf
    "  acks=%d read_only_refusals=%d unavailable=%d failovers=%d resyncs=%d\n"
    st.Cluster.s_acks st.Cluster.s_read_only st.Cluster.s_unavailable
    st.Cluster.s_failovers st.Cluster.s_resyncs;
  Printf.printf
    "  repl_records=%d resent=%d rpc_sent=%d dropped=%d dup=%d blackout=%s\n"
    st.Cluster.s_repl_records st.Cluster.s_repl_resent st.Cluster.s_rpc_sent
    st.Cluster.s_rpc_dropped st.Cluster.s_rpc_dup
    (if st.Cluster.s_last_blackout_ns < 0 then "none"
     else Printf.sprintf "%dns" st.Cluster.s_last_blackout_ns);
  Cluster.close cl;
  if !lost = 0 then begin
    Printf.printf "  audit: %d acknowledged keys, zero lost\n" !checked;
    0
  end
  else begin
    Printf.printf "  audit: %d acknowledged keys, %d LOST\n" !checked !lost;
    1
  end

(* ------------------------------------------------------------------ *)
(* check: model-check schedules and crash states                       *)
(* ------------------------------------------------------------------ *)

(* Save a counterexample as [dir/name], creating [dir] and any missing
   parents first. *)
let save_counterexample dir name (v : Ff_check.Check.violation) =
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p dir;
  let path = Filename.concat dir name in
  Ff_check.Counterexample.save v.Ff_check.Check.counterexample path;
  path

let print_check_report ~out (r : Ff_check.Check.report) =
  print_endline (Ff_check.Check.report_summary r);
  List.iteri
    (fun i (v : Ff_check.Check.violation) ->
      Printf.printf "\nviolation %d (%s):\n%s\n" (i + 1)
        (Ff_check.Check.kind_to_string v.Ff_check.Check.kind)
        v.Ff_check.Check.detail;
      Option.iter
        (fun dir ->
          let path = save_counterexample dir (Printf.sprintf "cx-%d.json" (i + 1)) v in
          Printf.printf
            "counterexample saved to %s (replay with: ffcli check --replay %s)\n" path
            path)
        out)
    r.Ff_check.Check.violations;
  if r.Ff_check.Check.violations = [] then 0 else 1

(* check --all: one bounded sweep per checker family with a one-line
   verdict each; the exit code is the OR across families.  Budgets are
   sized for a smoke sweep, not a deep audit — CI runs the deep sweeps
   per family. *)
let check_all index_name seed out =
  let module C = Ff_check.Check in
  List.fold_left
    (fun acc (fam : C.family) ->
      let r = fam.C.smoke ~index:index_name ~seed in
      match r.C.skipped with
      | Some reason ->
          Printf.printf "%-16s skipped: %s\n" fam.C.name reason;
          acc
      | None ->
          Printf.printf "%-16s %s\n" fam.C.name (C.report_summary r);
          List.iteri
            (fun i v ->
              Option.iter
                (fun dir ->
                  let name = Printf.sprintf "%s-cx-%d.json" fam.C.name (i + 1) in
                  Printf.printf "  counterexample saved to %s\n"
                    (save_counterexample dir name v))
                out)
            r.C.violations;
          if r.C.violations <> [] then 1 else acc)
    0 C.families

let check index_name writers readers ops keyspace prefill seed explorer schedules
    no_crashes non_tso elide tx txns tx_path torn snapshot rounds
    snap_mutant rebalance rebal_kind rebal_mutant replica repl_mutant all out
    replay =
  let module C = Ff_check.Check in
  let module Cx = Ff_check.Counterexample in
  match replay with
  | Some path -> (
      match Cx.load path with
      | Error msg ->
          Printf.printf "check --replay: %s\n" msg;
          2
      | Ok cx -> (
          match
            Printf.printf "replaying %s%s counterexample for %s (crash: %s)\n"
              (C.family_of cx).C.banner cx.Cx.kind cx.Cx.index
              (match cx.Cx.crash with
              | None -> "none"
              | Some c -> Printf.sprintf "%s at store %d" c.Cx.mode c.Cx.store_count);
            C.replay cx
          with
          | exception Invalid_argument msg ->
              Printf.printf "check --replay: %s\n" msg;
              2
          | r ->
              if print_check_report ~out:None r = 1 then begin
                print_endline "counterexample REPRODUCED";
                1
              end
              else begin
                print_endline "counterexample did NOT reproduce";
                2
              end))
  | None when all -> check_all index_name seed out
  | None -> (
      (* Each family arms only its own mutant flag. *)
      let name, mutant =
        if replica then ("replica", repl_mutant)
        else if rebalance then ("rebalance", rebal_mutant)
        else if snapshot then ("snapshot", snap_mutant)
        else if tx then ("tx", torn)
        else ("linearizability", elide)
      in
      let fam = C.family_named name in
      let config =
        {
          fam.C.default with
          Cx.writers;
          readers;
          (* A replica script of two ops or fewer runs the default length. *)
          ops = (if replica && ops <= 2 then fam.C.default.Cx.ops else ops);
          rounds = (if tx then txns else rounds);
          keyspace;
          prefill;
          seed;
          explorer;
          schedules;
          crashes = not no_crashes;
          non_tso;
          mutant;
          tx_path;
          rebal_kind;
        }
      in
      (* One gate: an index the family cannot check exits 2 with the
         reason. *)
      let r = fam.C.run ~config index_name in
      match r.C.skipped with
      | Some reason ->
          Printf.printf "check%s: %s\n"
            (if name = "linearizability" then "" else " --" ^ name)
            reason;
          2
      | None -> print_check_report ~out r)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

(* Unknown names fail with the registry's own name list, which is the
   single source of truth (no per-binary table to fall out of date). *)
let index_conv =
  let parse s =
    match Registry.find s with
    | Some _ -> Ok s
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown index %S (registered: %s)" s
               (String.concat ", " (Registry.names ()))))
  in
  Arg.conv (parse, Format.pp_print_string)

let index_arg =
  let doc = "Index structure: " ^ String.concat ", " (Registry.names ()) ^ "." in
  Arg.(value & opt index_conv "fastfair" & info [ "index"; "i" ] ~docv:"INDEX" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"PRNG seed.")

let list_cmd =
  let names_only =
    Arg.(value & flag & info [ "names" ] ~doc:"Print bare names, one per line.")
  in
  let persistent_only =
    Arg.(
      value & flag
      & info [ "persistent" ] ~doc:"Only indexes whose contents survive a power failure.")
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List registered indexes and their capabilities")
    Term.(const list_indexes $ names_only $ persistent_only)

let fuzz_cmd =
  let ops =
    Arg.(value & opt int 50_000 & info [ "ops"; "n" ] ~docv:"N" ~doc:"Operation count.")
  in
  let shards =
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N"
         ~doc:"Fuzz an N-way sharded composite over the chosen index (0 = unsharded).")
  in
  let faults =
    Arg.(value & flag & info [ "faults" ]
         ~doc:"Punctuate the run with power failures that poison cache lines \
               (seeded, deterministic), then scrub-and-recover; the model \
               tolerates only media loss the scrub accounted for.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Random operations cross-checked against a hash-table model")
    Term.(const fuzz $ index_arg $ ops $ seed_arg $ shards $ faults)

let crash_cmd =
  let keys =
    Arg.(value & opt int 2000 & info [ "keys"; "k" ] ~docv:"N" ~doc:"Preloaded keys.")
  in
  Cmd.v
    (Cmd.info "crash-test"
       ~doc:"Crash one writer's two-op batch at every store count (a one-thread \
             model check) and judge every image by durable linearizability")
    Term.(const crash_test $ index_arg $ keys $ seed_arg)

let stats_cmd =
  let keys =
    Arg.(value & opt int 100_000 & info [ "keys"; "k" ] ~docv:"N" ~doc:"Keys to insert.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the counters as a JSON object.")
  in
  let shards =
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N"
         ~doc:"Load through an N-way sharded serving layer and report \
               per-shard PM, fault and degradation statistics (0 = unsharded).")
  in
  let degrade =
    Arg.(value & opt int 0 & info [ "degrade" ] ~docv:"K"
         ~doc:"After the load, poison the root-node line of the first K \
               shards and probe each once, so the fault and degradation \
               blocks report live values (needs --shards).")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"PM event statistics for a bulk load")
    Term.(const stats $ index_arg $ keys $ seed_arg $ json $ shards $ degrade)

let dump_cmd =
  let keys =
    Arg.(value & opt int 30 & info [ "keys"; "k" ] ~docv:"N" ~doc:"Keys to insert.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print the node structure of a small FAST+FAIR tree")
    Term.(const dump $ keys)

let persist_cmd =
  let keys =
    Arg.(value & opt int 50_000 & info [ "keys"; "k" ] ~docv:"N" ~doc:"Keys to insert.")
  in
  let path =
    Arg.(value & opt string "/tmp/fastfair.img" & info [ "file"; "f" ] ~docv:"PATH"
         ~doc:"Image file path.")
  in
  Cmd.v
    (Cmd.info "persist"
       ~doc:"Save any index's persisted PM image to a file and reload it via the manifest")
    Term.(const persist $ index_arg $ keys $ path)

let scrub_cmd =
  let keys =
    Arg.(value & opt int 300 & info [ "keys"; "k" ] ~docv:"N" ~doc:"Preloaded keys.")
  in
  let poison =
    Arg.(value & opt int 0 & info [ "poison" ] ~docv:"N"
         ~doc:"Also poison N cache lines at the crash (media-fault repair exercise).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the scrub report as JSON.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"PATH"
         ~doc:"Also save the JSON report to this file.")
  in
  let mutate_skip =
    Arg.(value & flag & info [ "mutate-skip-scrub" ]
         ~doc:"Fault injection: recover without scrubbing and run the leak \
               oracle only — it must fail (exit 1), proving the oracle catches \
               a recovery path that forgot to scrub.")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:"Leak a node with a seeded mid-split crash, then scrub: detect, \
             repair, reclaim, and prove the next allocation reuses the leak")
    Term.(const scrub_run $ index_arg $ keys $ seed_arg $ poison $ json $ out
          $ mutate_skip)

let trace_cmd =
  let keys =
    Arg.(value & opt int 20_000 & info [ "keys"; "k" ] ~docv:"N" ~doc:"Preloaded keys.")
  in
  let ops =
    Arg.(value & opt int 8_000 & info [ "ops"; "n" ] ~docv:"N"
         ~doc:"Traced operations (2:1:1 search/insert/delete mix).")
  in
  let threads =
    Arg.(value & opt int 8 & info [ "threads"; "t" ] ~docv:"T"
         ~doc:"Simulated threads on the 16-core machine.")
  in
  let out =
    Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~docv:"PATH"
         ~doc:"Output Perfetto/chrome://tracing JSON file.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Record a multithreaded FAST+FAIR run as a Perfetto JSON trace and print metrics")
    Term.(const trace $ keys $ ops $ threads $ seed_arg $ out)

let top_cmd =
  let ops =
    Arg.(value & opt int 4_000 & info [ "ops"; "n" ] ~docv:"N"
         ~doc:"Operations in the zipfian mixed load.")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
         ~doc:"Shard count of the serving layer.")
  in
  let p99 =
    Arg.(value & opt int 20_000_000 & info [ "p99-ns" ] ~docv:"NS"
         ~doc:"P99 latency bound for the insert/search SLO rules.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Text dashboard: throughput, latency tail, fence attribution and \
             SLO verdict, from a live mini-run")
    Term.(const top $ index_arg $ ops $ shards $ seed_arg $ p99)

let check_cmd =
  let writers =
    Arg.(value & opt int 2 & info [ "writers"; "w" ] ~docv:"N" ~doc:"Concurrent writer threads.")
  in
  let readers =
    Arg.(value & opt int 1 & info [ "readers"; "r" ] ~docv:"N" ~doc:"Concurrent reader threads.")
  in
  let ops =
    Arg.(value & opt int 2 & info [ "ops"; "n" ] ~docv:"N" ~doc:"Operations per thread.")
  in
  let keyspace =
    Arg.(value & opt int 8 & info [ "keyspace" ] ~docv:"K" ~doc:"Keys drawn from 1..K.")
  in
  let prefill =
    Arg.(value & opt int 4 & info [ "prefill" ] ~docv:"N" ~doc:"Keys inserted before the concurrent phase.")
  in
  let explorer =
    Arg.(value & opt (enum Ff_check.Counterexample.explorers) Ff_check.Check.Pct
         & info [ "explorer"; "e" ] ~docv:"MODE"
         ~doc:"Schedule exploration: $(b,pct) (randomized priorities) or $(b,dfs) (bounded exhaustive).")
  in
  let schedules =
    Arg.(value & opt int 16 & info [ "schedules" ] ~docv:"N" ~doc:"Exploration budget (schedules).")
  in
  let no_crashes =
    Arg.(value & flag & info [ "no-crashes" ]
         ~doc:"Skip the crash x schedule product engine, which otherwise crashes \
               every store count of every explored schedule.")
  in
  let non_tso =
    Arg.(value & flag & info [ "non-tso" ]
         ~doc:"Run under non-TSO memory order and sweep every fence-epoch cutoff exhaustively.")
  in
  let elide =
    Arg.(value & flag & info [ "mutate-elide-flush" ]
         ~doc:"Fault injection: drop every flush during the concurrent phase (demonstrates \
               counterexample generation; a correct structure then fails durability).")
  in
  let tx =
    Arg.(value & flag & info [ "tx" ]
         ~doc:"Check whole transactions for durable serializability instead of \
               individual operations: every crash point replays through \
               transaction recovery and must land on a transaction boundary. \
               $(b,--ops) becomes operations per transaction.")
  in
  let txns =
    Arg.(value & opt int 3 & info [ "txns" ] ~docv:"N"
         ~doc:"With --tx: transactions in the writer script.")
  in
  let tx_path =
    Arg.(value & opt (enum Ff_check.Counterexample.tx_paths) Tx.Logged
         & info [ "tx-path" ] ~docv:"PATH"
         ~doc:"With --tx: commit path under test, $(b,logged) or $(b,shadow).")
  in
  let torn =
    Arg.(value & flag & info [ "mutate-torn-commit" ]
         ~doc:"Fault injection (with --tx): persist the commit record without \
               ordering the payload behind it — the sweep must fail and emit a \
               replayable counterexample.")
  in
  let snapshot =
    Arg.(value & flag & info [ "snapshot" ]
         ~doc:"Check snapshot serializability instead of individual operations: \
               a reader pins an epoch mid-schedule, its read vector must match \
               a commit-log prefix inside the pin window, stay stable under \
               concurrent writes, and survive every crash point byte-for-byte. \
               Needs a snapshottable index (e.g. $(b,snap-fastfair)); \
               $(b,--ops) becomes operations per round.")
  in
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"N"
         ~doc:"With --snapshot: write rounds in the commit log.")
  in
  let snap_mutant =
    Arg.(value & flag & info [ "mutate-read-latest" ]
         ~doc:"Fault injection (with --snapshot): pinned reads silently resolve \
               against the live tree — the sweep must fail and emit a \
               replayable counterexample.")
  in
  let rebalance =
    Arg.(value & flag & info [ "rebalance" ]
         ~doc:"Check live resharding instead of individual operations: a \
               writer applies a deterministic commit log while a rebalancer \
               splits, merges or migrates a shard underneath it; after every \
               explored schedule and crash point, zero acknowledged writes \
               may be lost. $(b,--ops) becomes the writer commit-log length.")
  in
  let rebal_kind =
    Arg.(value & opt (enum Ff_check.Counterexample.rebal_kinds)
           Ff_check.Counterexample.Rb_split
         & info [ "rebal-kind" ] ~docv:"KIND"
         ~doc:"With --rebalance: $(b,split), $(b,merge) or $(b,migrate).")
  in
  let rebal_mutant =
    Arg.(value & flag & info [ "mutate-drop-delta" ]
         ~doc:"Fault injection (with --rebalance): cutover silently discards \
               the dual-written delta records — the sweep must fail and emit \
               a replayable counterexample.")
  in
  let replica =
    Arg.(value & flag & info [ "replica" ]
         ~doc:"Check multi-node replication instead of individual operations: \
               a client script runs against a simulated cluster over a lossy \
               fabric while the hot shard's primary is partitioned and \
               power-failed; after failover and resync, every acknowledged \
               write must read back. $(b,--ops) becomes the client script \
               length.")
  in
  let repl_mutant =
    Arg.(value & flag & info [ "mutate-ack-before-replicate" ]
         ~doc:"Fault injection (with --replica): the primary acks client \
               writes before the backup is durable — the sweep must fail and \
               emit a replayable counterexample.")
  in
  let all =
    Arg.(value & flag & info [ "all" ]
         ~doc:"Run every checker family (linearizability, tx, snapshot, \
               rebalance, replica) as one bounded smoke sweep with a one-line \
               verdict per family; the exit code is the OR across families.")
  in
  let out =
    Arg.(value & opt (some string) (Some "counterexamples") & info [ "out"; "o" ] ~docv:"DIR"
         ~doc:"Directory for counterexample artifacts.")
  in
  let replay =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
         ~doc:"Re-execute a recorded counterexample deterministically instead of exploring.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Model-check an index: explore schedules, verify linearizability, and crash \
             every explored schedule at every store count; one thread (-w 1 -r 0) \
             checks any index sequentially; --tx checks whole transactions \
             for durable serializability, --rebalance checks lost-write freedom \
             under live resharding, --replica checks no-lost-acks replication, \
             --all runs every family as one smoke sweep")
    Term.(const check $ index_arg $ writers $ readers $ ops $ keyspace $ prefill $ seed_arg
          $ explorer $ schedules $ no_crashes $ non_tso $ elide
          $ tx $ txns $ tx_path $ torn $ snapshot $ rounds $ snap_mutant
          $ rebalance $ rebal_kind $ rebal_mutant $ replica $ repl_mutant $ all
          $ out $ replay)

let tx_cmd =
  let path =
    Arg.(value & opt string "logged" & info [ "path"; "p" ] ~docv:"PATH"
         ~doc:"Commit path: $(b,logged) (undo/redo) or $(b,shadow) (MOD-style).")
  in
  let accounts =
    Arg.(value & opt int 16 & info [ "accounts"; "a" ] ~docv:"N"
         ~doc:"Accounts on the balance sheet.")
  in
  let transfers =
    Arg.(value & opt int 200 & info [ "transfers"; "n" ] ~docv:"N"
         ~doc:"Committed transfer history before the crash sweep.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the audit as a JSON object.")
  in
  Cmd.v
    (Cmd.info "tx"
       ~doc:"Failure-atomic multi-key transfers: crash one transfer mid-commit \
             at every store, recover, and audit that the balances land \
             on a transaction boundary")
    Term.(const tx_demo $ index_arg $ path $ accounts $ transfers $ seed_arg
          $ json)

let snapshot_cmd =
  let index =
    let doc =
      "Snapshottable index (snap column in $(b,ffcli list))."
    in
    Arg.(value & opt index_conv "snap-fastfair"
         & info [ "index"; "i" ] ~docv:"INDEX" ~doc)
  in
  let keys =
    Arg.(value & opt int 2000 & info [ "keys"; "k" ] ~docv:"N"
         ~doc:"Keys loaded before the first pin.")
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"MVCC time travel: pin an epoch, keep writing, read the old world \
             back — including after a power failure — then reclaim it with \
             epoch GC")
    Term.(const snapshot_demo $ index $ keys $ seed_arg)

let backup_cmd =
  let keys =
    Arg.(value & opt int 2000 & info [ "keys"; "k" ] ~docv:"N"
         ~doc:"Keys loaded before the backup epoch is pinned.")
  in
  let root_slot =
    Arg.(value & opt int 4 & info [ "root-slot" ] ~docv:"SLOT"
         ~doc:"Destination root slot (exercises relocatable_root).")
  in
  let chunk =
    Arg.(value & opt int 256 & info [ "chunk" ] ~docv:"N"
         ~doc:"Pairs streamed per batch between source write bursts.")
  in
  Cmd.v
    (Cmd.info "backup"
       ~doc:"Online backup: stream a pinned snapshot into a second arena at a \
             non-default root slot while the source keeps serving writes, \
             then crash the copy and verify it recovers byte-identical")
    Term.(const backup_demo $ keys $ seed_arg $ root_slot $ chunk)

let rebalance_cmd =
  let kind =
    Arg.(value & opt string "split" & info [ "kind" ] ~docv:"KIND"
         ~doc:"$(b,split), $(b,merge) or $(b,migrate).")
  in
  let keys =
    Arg.(value & opt int 400 & info [ "keys"; "k" ] ~docv:"N"
         ~doc:"Prefilled keys; the concurrent writer inserts as many again.")
  in
  let bytes_per_ms =
    Arg.(value & opt int 65536 & info [ "bytes-per-ms" ] ~docv:"B"
         ~doc:"Background-copy budget per simulated millisecond (0 = unthrottled).")
  in
  let chunk_ops =
    Arg.(value & opt int 64 & info [ "chunk-ops" ] ~docv:"N"
         ~doc:"Keys moved per throttle charge.")
  in
  let mutate =
    Arg.(value & flag & info [ "mutate-drop-delta" ]
         ~doc:"Fault injection: cutover silently discards the dual-written \
               delta records — the audit must then report lost acknowledged \
               writes and exit 1.")
  in
  Cmd.v
    (Cmd.info "rebalance"
       ~doc:"Live resharding: split, merge or migrate a shard while a \
             concurrent writer keeps inserting, audit that no acknowledged \
             write is lost — live and again after a power failure resolved \
             from the decision word alone")
    Term.(const rebalance_demo $ kind $ keys $ seed_arg $ bytes_per_ms
          $ chunk_ops $ mutate)

let cluster_cmd =
  let nodes =
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"N"
         ~doc:"Simulated nodes (each hosts a full shard ensemble).")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
         ~doc:"Logical shards, each with one primary and one backup replica.")
  in
  let ops =
    Arg.(value & opt int 400 & info [ "ops"; "n" ] ~docv:"N"
         ~doc:"Client writes issued by the concurrent writer.")
  in
  let keyspace =
    Arg.(value & opt int 64 & info [ "keyspace" ] ~docv:"K"
         ~doc:"Keys drawn from 1..K.")
  in
  let mutate =
    Arg.(value & flag & info [ "mutate-ack-before-replicate" ]
         ~doc:"Fault injection: the primary acks client writes before the \
               backup is durable — the audit must then report lost \
               acknowledged writes and exit 1.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Replicated serving over a lossy fabric: partition and power-fail \
             the hot shard's primary under a concurrent writer, promote the \
             backup, resync the rejoining node, and audit that no \
             acknowledged write is lost")
    Term.(const cluster_demo $ nodes $ shards $ ops $ keyspace $ seed_arg
          $ mutate)

let () =
  let info = Cmd.info "ffcli" ~doc:"FAST+FAIR persistent B+-tree playground" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; fuzz_cmd; crash_cmd; check_cmd; scrub_cmd; stats_cmd; dump_cmd;
            persist_cmd; trace_cmd; top_cmd; tx_cmd; snapshot_cmd; backup_cmd;
            rebalance_cmd; cluster_cmd ]))
