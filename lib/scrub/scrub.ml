(* Post-crash scrubber: reachability scan, leak reclamation, media
   repair — the generic orchestrator over the structure-specific hooks
   registered through [Registry.register_scrub].

   Order of operations is conservative, structure-first:

   1. repair poisoned lines (the structure's hook re-derives or
      quarantines them) — never reclaim from a damaged structure;
   2. re-run recovery (the caller's [ops.recover], now safe to take
      charged reads);
   3. validate against the structure's invariant checker;
   4. only if the structure is sound, sweep [reserved_words, bump) for
      allocated-but-unreachable gaps and return them to the allocator
      through the hardened [Arena.free].

   All scan work is charged to the arena as sequential media reads, so
   scrub cost shows up in simulated nanoseconds like any other phase. *)

module Arena = Ff_pmem.Arena
module Config = Ff_pmem.Config
module Stats = Ff_pmem.Stats
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Trace = Ff_trace.Trace
module Metrics = Ff_trace.Metrics
module Json = Ff_trace.Json

let wpl = Arena.words_per_line

type report = {
  index : string;
  used_words_before : int;
  used_words_after : int;
  reachable_words : int;
  free_words : int;
  leaked_blocks : (int * int) list;
  leaked_words : int;
  reclaimed_words : int;
  repaired_lines : int list;
  quarantined_lines : int list;
  lost_records : int;
  remaining_poison : int list;
  violations : string list;
  duration_ns : int;
}

let clean r = r.violations = [] && r.remaining_poison = []

let scrubbable (d : D.t) =
  d.D.caps.D.scrubbable && Registry.scrub_provider d.D.name <> None

(* Allocated-but-unreachable gaps: the complement of reachable blocks
   and free-listed blocks within [reserved_words, bump).  Overlapping
   coverage is a structural bug (the tree references a freed block) and
   is reported as a violation rather than silently merged. *)
let find_gaps ~reachable ~free ~bump =
  let blocks = List.sort compare (reachable @ free) in
  let gaps = ref [] and overlaps = ref [] in
  let pos = ref Arena.reserved_words in
  List.iter
    (fun (a, w) ->
      if a < !pos then
        overlaps := Printf.sprintf "block [%d,%d) overlaps coverage up to %d" a (a + w) !pos :: !overlaps
      else begin
        if a > !pos then gaps := (!pos, a - !pos) :: !gaps;
        pos := a + w
      end)
    blocks;
  if bump > !pos then gaps := (!pos, bump - !pos) :: !gaps;
  (List.rev !gaps, List.rev !overlaps)

(* Carve a gap into grain-sized blocks (so reclaimed leaks come back
   in node-sized units the structure can actually reuse), with a
   single remainder block for any tail. *)
let split_gap grain (addr, words) =
  if grain <= 0 || words <= grain then [ (addr, words) ]
  else begin
    let rec go a w acc =
      if w = 0 then List.rev acc
      else if w >= grain then go (a + grain) (w - grain) ((a, grain) :: acc)
      else List.rev ((a, w) :: acc)
    in
    go addr words []
  end

let zero_line a line =
  let base = line * wpl in
  for w = base to base + wpl - 1 do
    Arena.write a w 0
  done;
  Arena.flush a base

let empty_repair = { D.repaired_lines = []; quarantined_lines = []; lost_records = 0 }

let run ?(tracer = Trace.null) ?(repair = true) ?(reclaim = true) ?recover
    ~config (d : D.t) arena =
  if not d.D.caps.D.scrubbable then
    invalid_arg (Printf.sprintf "Scrub.run: %s is not scrubbable" d.D.name);
  let provider =
    match Registry.scrub_provider d.D.name with
    | Some p -> p
    | None ->
        invalid_arg
          (Printf.sprintf "Scrub.run: %s claims scrubbable but registered no provider"
             d.D.name)
  in
  Trace.span_begin tracer Trace.id_scrub 0;
  let ns0 = Arena.elapsed_ns arena in
  let used_before = Arena.used_words arena in
  let sops = provider config arena in
  (* 1. Media repair. *)
  let poisoned = Arena.poisoned_lines arena in
  let rep =
    if repair && poisoned <> [] then sops.D.scrub_repair poisoned
    else empty_repair
  in
  (* 2. Recovery, now that charged reads are safe again. *)
  let recover_violation =
    match recover with
    | None -> []
    | Some f -> (
        try
          f ();
          []
        with
        | Arena.Media_error addr ->
            [ Printf.sprintf "recovery raised Media_error at %d" addr ]
        | e -> [ "recovery raised " ^ Printexc.to_string e ])
  in
  (* 3. Validation. *)
  let violations = recover_violation @ sops.D.scrub_validate () in
  (* 4. Reachability scan and leak reclamation.  Charge the sweep as a
     sequential media read of the whole allocated region. *)
  let reachable = sops.D.scrub_reachable () in
  (* The arena's transaction-log region is root-anchored arena
     metadata, reachable by definition — without this the reclamation
     pass would misread it as a leak and free it out from under root
     slot 56. *)
  let reachable =
    let addr = Arena.root_get arena Ff_pmem.Txlog.slot_addr in
    if addr = 0 then reachable
    else (addr, Arena.root_get arena Ff_pmem.Txlog.slot_words) :: reachable
  in
  let reachable_words = List.fold_left (fun acc (_, w) -> acc + w) 0 reachable in
  let cfg = Arena.config arena in
  let scan_lines = (Arena.used_words arena + wpl - 1) / wpl in
  Arena.cpu_work arena
    (scan_lines * (cfg.Config.read_latency_ns / cfg.Config.mlp_factor));
  let free = Arena.free_blocks arena in
  let free_total = List.fold_left (fun acc (_, w) -> acc + w) 0 free in
  let gaps, overlaps =
    find_gaps ~reachable ~free ~bump:(Arena.reserved_words + Arena.used_words arena)
  in
  let violations = violations @ overlaps in
  let leaked_words = List.fold_left (fun acc (_, w) -> acc + w) 0 gaps in
  let extra_repaired = ref [] in
  let reclaimed =
    if reclaim && violations = [] && gaps <> [] then begin
      List.iter
        (fun (addr, words) ->
          (* Clear any poison stranded in the leaked area before the
             block can be recycled through the (non-zeroing) raw
             allocation path. *)
          for line = addr / wpl to (addr + words - 1) / wpl do
            if Arena.is_poisoned arena (line * wpl) then begin
              zero_line arena line;
              extra_repaired := line :: !extra_repaired
            end
          done;
          List.iter
            (fun (a, w) -> Arena.free arena a w)
            (split_gap sops.D.scrub_grain (addr, words)))
        gaps;
      leaked_words
    end
    else 0
  in
  let remaining_poison =
    List.map (fun l -> l * wpl) (Arena.poisoned_lines arena)
  in
  let ns1 = Arena.elapsed_ns arena in
  let report =
    {
      index = d.D.name;
      used_words_before = used_before;
      used_words_after = Arena.used_words arena;
      reachable_words;
      free_words = free_total;
      leaked_blocks = gaps;
      leaked_words;
      reclaimed_words = reclaimed;
      repaired_lines =
        List.sort_uniq compare (rep.D.repaired_lines @ !extra_repaired);
      quarantined_lines = rep.D.quarantined_lines;
      lost_records = rep.D.lost_records;
      remaining_poison;
      violations;
      duration_ns = ns1 - ns0;
    }
  in
  if Trace.enabled tracer then begin
    let m = Trace.metrics tracer in
    Metrics.add m "scrub.leaked_words" report.leaked_words;
    Metrics.add m "scrub.reclaimed_words" report.reclaimed_words;
    Metrics.add m "scrub.quarantined_lines" (List.length report.quarantined_lines);
    Metrics.add m "scrub.repaired_lines" (List.length report.repaired_lines);
    Metrics.observe m "scrub.duration_ns" report.duration_ns
  end;
  Trace.span_end tracer Trace.id_scrub;
  report

let audit ~config d arena = run ~repair:false ~reclaim:false ~config d arena

let to_json r =
  let blocks bs =
    Json.Arr
      (List.map (fun (a, w) -> Json.Obj [ ("addr", Json.Int a); ("words", Json.Int w) ]) bs)
  in
  let ints is = Json.Arr (List.map (fun i -> Json.Int i) is) in
  Json.Obj
    [
      ("index", Json.Str r.index);
      ("used_words_before", Json.Int r.used_words_before);
      ("used_words_after", Json.Int r.used_words_after);
      ("reachable_words", Json.Int r.reachable_words);
      ("free_words", Json.Int r.free_words);
      ("leaked_blocks", blocks r.leaked_blocks);
      ("leaked_words", Json.Int r.leaked_words);
      ("reclaimed_words", Json.Int r.reclaimed_words);
      ("repaired_lines", ints r.repaired_lines);
      ("quarantined_lines", ints r.quarantined_lines);
      ("lost_records", Json.Int r.lost_records);
      ("remaining_poison", ints r.remaining_poison);
      ("violations", Json.Arr (List.map (fun v -> Json.Str v) r.violations));
      ("duration_ns", Json.Int r.duration_ns);
      ("clean", Json.Bool (clean r));
    ]

let to_string r = Json.to_string (to_json r)

let pp fmt r =
  Format.fprintf fmt
    "@[<v>scrub %s: %s@,\
     used %d -> %d words, reachable %d, free-listed %d@,\
     leaked %d words in %d blocks, reclaimed %d@,\
     repaired %d lines, quarantined %d lines, lost %d records@,\
     duration %d simulated ns%a@]"
    r.index
    (if clean r then "clean" else "NOT CLEAN")
    r.used_words_before r.used_words_after r.reachable_words r.free_words
    r.leaked_words
    (List.length r.leaked_blocks)
    r.reclaimed_words
    (List.length r.repaired_lines)
    (List.length r.quarantined_lines)
    r.lost_records r.duration_ns
    (fun fmt vs ->
      List.iter (fun v -> Format.fprintf fmt "@,violation: %s" v) vs)
    r.violations
