(* Elastic resharding: live split / merge / migrate over a serving
   Shard ensemble.

   Every rebalance is the same three-act protocol, run by one driver
   ([run]); a kind contributes only a [recipe]:

     1. PREPARE   persist a plan block, bump the generation, set the
                  decision word to Preparing(g); run the kind's
                  pre-copy step; install the dual-write tap inside a
                  brief quiesce so no applied write can slip between
                  "scanned" and "tapped".
     2. COPY      ship the moved data while the source keeps serving —
                  key chunks (split, merge) or the whole image
                  (migrate) — throttled; writes to the moved span are
                  dual-applied (source now + delta buffer for later).
     3. CUTOVER   inside Shard.quiesce: replay the delta, fence the
                  target, flip the decision word to Committed(g) — a
                  single failure-atomic root store is the whole
                  commit — then splice the volatile topology (and
                  persist the new shard manifest).
   and finally the kind's post-cutover step, then retire the decision
   word (migrate keeps it as a tombstone).

   Crash resolution ([resolve]) needs nothing but the decision word
   and the plan block: Preparing rolls back (the source never stopped
   being authoritative), Committed rolls forward (promote the
   manifest the live finish would have persisted, through the same
   topology edit the live splice uses).  The Rebalcheck family sweeps
   crash points through all three acts and asserts no acknowledged
   write is ever lost. *)

module Arena = Ff_pmem.Arena
module Segment = Ff_pmem.Segment
module Stats = Ff_pmem.Stats
module Intf = Ff_index.Intf
module Registry = Ff_index.Registry
module D = Ff_index.Descriptor
module Shard = Ff_shard.Shard
module Trace = Ff_trace.Trace
module Mcsim = Ff_mcsim.Mcsim

(* ------------------------------------------------------------------ *)
(* Root slots and the decision word                                    *)
(* ------------------------------------------------------------------ *)

let slot_generation = 68
let slot_decision = 69
let slot_plan = 70
let reserved_slots = [ slot_generation; slot_decision; slot_plan ]

type kind = Split | Merge | Migrate
type phase = Idle | Preparing of int | Committed of int

let kind_tag = function Split -> 1 | Merge -> 2 | Migrate -> 3

let kind_of_tag = function
  | 1 -> Split
  | 2 -> Merge
  | 3 -> Migrate
  | t -> invalid_arg (Printf.sprintf "Rebalance: unknown plan kind %d" t)

let phase arena =
  match Arena.root_get arena slot_decision with
  | 0 -> Idle
  | w when w land 3 = 1 -> Preparing (w lsr 2)
  | w when w land 3 = 2 -> Committed (w lsr 2)
  | w ->
      invalid_arg (Printf.sprintf "Rebalance: corrupt decision word %d" w)

let generation arena = Arena.root_get arena slot_generation

(* The decision word is published Epoch-style: an explicit fence
   orders everything the decision depends on (plan block, copied
   payload, replayed delta) ahead of the one root store that makes it
   visible.  root_set is itself store + flush + fence. *)
let publish_decision arena w =
  Arena.fence arena;
  Arena.root_set arena slot_decision w

(* ------------------------------------------------------------------ *)
(* Plan block                                                          *)
(* ------------------------------------------------------------------ *)

(* [kind; shard; pivot; slot; span_lo; span_hi; new_count] — enough to
   finish or abort any rebalance after a crash.  Persisted and
   published (slot 70) before the decision word reaches Preparing. *)

let plan_words = 7

type plan = {
  p_kind : kind;
  p_shard : int;   (* split source / merge left / migrate source *)
  p_pivot : int;   (* split pivot; 0 otherwise *)
  p_slot : int;    (* split: new shard's slot; merge: retiring right slot *)
  p_span_lo : int; (* moved key span *)
  p_span_hi : int;
  p_new_count : int;
}

let write_plan arena p =
  let blk = Arena.alloc arena plan_words in
  Arena.write arena blk (kind_tag p.p_kind);
  Arena.write arena (blk + 1) p.p_shard;
  Arena.write arena (blk + 2) p.p_pivot;
  Arena.write arena (blk + 3) p.p_slot;
  Arena.write arena (blk + 4) p.p_span_lo;
  Arena.write arena (blk + 5) p.p_span_hi;
  Arena.write arena (blk + 6) p.p_new_count;
  Arena.flush_range arena blk plan_words;
  Arena.fence arena;
  Arena.root_set arena slot_plan blk

let read_plan arena =
  let blk = Arena.root_get arena slot_plan in
  if blk = 0 then invalid_arg "Rebalance: decision set but no plan block";
  {
    p_kind = kind_of_tag (Arena.peek arena blk);
    p_shard = Arena.peek arena (blk + 1);
    p_pivot = Arena.peek arena (blk + 2);
    p_slot = Arena.peek arena (blk + 3);
    p_span_lo = Arena.peek arena (blk + 4);
    p_span_hi = Arena.peek arena (blk + 5);
    p_new_count = Arena.peek arena (blk + 6);
  }

let drop_plan arena =
  let blk = Arena.root_get arena slot_plan in
  if blk <> 0 then begin
    Arena.free arena blk plan_words;
    Arena.root_set arena slot_plan 0
  end

(* ------------------------------------------------------------------ *)
(* Crash resolution                                                    *)
(* ------------------------------------------------------------------ *)

type resolution =
  | Resolved_idle
  | Resolved_aborted of kind
  | Resolved_completed of kind
  | Resolved_migrated

let clear_inner_roots arena slot =
  Arena.root_set arena (2 * slot) 0;
  Arena.root_set arena (2 * slot + 1) 0

(* Serving arenas carry no shard manifest; composite promotion is
   detected by whether one decodes. *)
let composite_manifest arena =
  match Shard.read_manifest arena with
  | m -> Some m
  | exception Invalid_argument _ -> None

let resolve arena =
  match phase arena with
  | Idle ->
      (* A crash between "decision := 0" and the plan drop leaves a
         benign plan residue; sweep it so the block is not leaked. *)
      drop_plan arena;
      Resolved_idle
  | Preparing _ ->
      let p = read_plan arena in
      (* The source never stopped being authoritative: unpublish the
         partial target and forget the attempt.  A half-built split
         target becomes an unreachable leak the next scrub reclaims;
         keys a merge already copied into the left tree sit outside
         its span (invisible) and the next merge attempt cleans the
         landing span before copying. *)
      (match p.p_kind with
      | Split ->
          if composite_manifest arena <> None then
            clear_inner_roots arena p.p_slot
      | Merge | Migrate -> ());
      publish_decision arena 0;
      drop_plan arena;
      Resolved_aborted p.p_kind
  | Committed _ -> (
      let p = read_plan arena in
      match p.p_kind with
      | Migrate ->
          (* Permanent tombstone: the image was migrated away.  The
             decision word and plan survive so any later mount of this
             arena knows the destination is authoritative. *)
          Resolved_migrated
      | (Split | Merge) as k ->
          let edit partition map =
            if k = Split then
              Shard.split_topology partition map ~shard:p.p_shard
                ~pivot:p.p_pivot p.p_slot
            else Shard.merge_topology partition map ~left:p.p_shard
          in
          (* A serving arena has no manifest: its topology is the
             harness's to rebuild. *)
          if Shard.roll_forward_manifest arena ~count:p.p_new_count edit
             && k = Merge
          then clear_inner_roots arena p.p_slot;
          publish_decision arena 0;
          drop_plan arena;
          Resolved_completed k)

(* ------------------------------------------------------------------ *)
(* Throttling                                                          *)
(* ------------------------------------------------------------------ *)

type throttle = { bytes_per_ms : int; chunk_ops : int }

let default_throttle = { bytes_per_ms = 64 * 1024; chunk_ops = 64 }

(* One key-value pair moves two 8-byte words. *)
let pair_bytes = 16

let charge_throttle arena th bytes =
  if th.bytes_per_ms > 0 && bytes > 0 then
    Arena.cpu_work arena (bytes * 1_000_000 / th.bytes_per_ms)

let now_ns arena =
  match Mcsim.sim_now () with
  | Some ns -> ns
  | None -> Arena.elapsed_ns arena

(* ------------------------------------------------------------------ *)
(* Reports and fault injection                                         *)
(* ------------------------------------------------------------------ *)

type report = {
  r_kind : kind;
  r_generation : int;
  r_shard : int;
  r_moved_keys : int;
  r_moved_words : int;
  r_delta_replayed : int;
  r_cleaned_keys : int;
  r_copy_ns : int;
  r_cutover_ns : int;
}

let mutant_drop_delta = ref false

(* ------------------------------------------------------------------ *)
(* Shared machinery                                                    *)
(* ------------------------------------------------------------------ *)

let kind_name = function
  | Split -> "split"
  | Merge -> "merge"
  | Migrate -> "migrate"

(* Begin the protocol: plan published, generation bumped, decision to
   Preparing.  Returns the generation. *)
let begin_rebalance coord p =
  let g = generation coord + 1 in
  write_plan coord p;
  Arena.root_set coord slot_generation g;
  publish_decision coord ((g lsl 2) lor 1);
  g

(* Replay the delta buffer (chronological order) onto [ops] through
   the idempotent transactional install hook.  The drop-delta mutant
   loses every dual-written record here — exactly the bug class the
   Rebalcheck sweep must catch. *)
let replay_delta tr ops delta =
  let records = if !mutant_drop_delta then [] else List.rev !delta in
  let n = List.length records in
  if Trace.enabled tr then Trace.span_begin tr Trace.id_rebal_replay n;
  List.iter (fun (k, vo) -> ops.Intf.install k vo) records;
  if Trace.enabled tr then Trace.span_end tr Trace.id_rebal_replay;
  n

(* The one throttled chunk loop: apply [step] to [items], [chunk_ops]
   at a time, charging each chunk's pairs to the copy budget on
   [coord].  Returns how many steps reported [true].  With an enabled
   [tr] every chunk is one [id_rebal_copy] span.

   [serialize] wraps each chunk's mutations.  Inner trees run at
   [Locks.Single] (one writer; lock-free readers endure transient
   states), so a background mutation of a tree that is concurrently
   {e served for writes} must be serialized against the foreground —
   callers pass [Shard.quiesce], which stalls the write gate for one
   chunk while leaving reads untouched.  Mutating an unserved tree (a
   split target before its splice) needs no wrapper. *)
let chunked tr ~serialize coord th step items =
  let chunk = max 1 th.chunk_ops in
  let rec take hits n = function
    | x :: tl when n < chunk ->
        take (if step x then hits + 1 else hits) (n + 1) tl
    | rest -> (hits, n, rest)
  in
  let rec go hits = function
    | [] -> hits
    | items ->
        if Trace.enabled tr then Trace.span_begin tr Trace.id_rebal_copy hits;
        let hits, n, rest = serialize (fun () -> take hits 0 items) in
        if Trace.enabled tr then Trace.span_end tr Trace.id_rebal_copy;
        charge_throttle coord th (n * pair_bytes);
        go hits rest
  in
  go 0 items

(* Delete whatever the served tree [ops] holds in [lo, hi], a brief
   quiesce per chunk.  Returns keys deleted. *)
let clean_span t coord th (ops : Intf.ops) lo hi =
  let stale = List.map fst (Intf.range_list ops lo hi) in
  chunked Trace.null ~serialize:(Shard.quiesce t) coord th ops.Intf.delete
    stale

let require_range t =
  if Shard.Partition.tag (Shard.partition t) <> 1 then
    invalid_arg "Rebalance: hash-partitioned ensembles cannot be resharded \
                 by key span (range partitions only)"

let check_position t i what =
  if i < 0 || i >= Shard.shards t then
    invalid_arg (Printf.sprintf "Rebalance.%s: no shard at position %d" what i)

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(* How the moved data reaches the target before cutover. *)
type copy =
  | Keys of { target : unit -> Intf.ops * Arena.t; served : bool }
      (** install the tap shard's [p_span_lo, p_span_hi] pairs into
          [target ()], key by key; [served]: the target takes
          foreground writes meanwhile, so chunks are serialized *)
  | Image of Arena.t
      (** ship the tap shard's whole image to this fresh arena *)

(* What one rebalance kind contributes to {!run}. *)
type recipe = {
  block : plan;  (* persisted plan block; [p_shard]'s arena coordinates *)
  tap : int;  (* shard whose writes are dual-applied *)
  accept : int -> bool;  (* which tapped keys the delta buffer keeps *)
  before : unit -> int;  (* pre-copy step; returns keys cleaned *)
  copy : copy;
  splice : Intf.ops -> Arena.t -> unit;  (* topology change at cutover *)
  after : unit -> int;  (* post-cutover step; returns keys cleaned *)
  retire : bool;  (* clear the decision word (migrate keeps its tombstone) *)
}

let no_step () = 0

let run ~scanned th t r =
  let p = r.block in
  let coord = Shard.instance_arena t p.p_shard in
  let tr = Shard.tracer t in
  (* PREPARE *)
  let g = begin_rebalance coord p in
  if Trace.enabled tr then Trace.incr tr ("rebalance." ^ kind_name p.p_kind);
  let cleaned = r.before () in
  let delta = ref [] in
  let record k vo = if r.accept k then delta := (k, vo) :: !delta in
  (* COPY *)
  let t0, moved, words, target_ops, target_arena =
    match r.copy with
    | Keys { target; served } ->
        let ops, arena = target () in
        (* A mutation already past the write gate is fully applied
           (and thus visible to the scan below) before the tap takes
           over; every later change is in the delta buffer. *)
        Shard.quiesce t (fun () -> Shard.tap_writes t ~shard:r.tap record);
        let t0 = now_ns coord in
        let pairs = ref [] in
        (Shard.instance_ops t r.tap).Intf.range p.p_span_lo p.p_span_hi
          (fun k v ->
            pairs := (k, v) :: !pairs;
            scanned k);
        scanned max_int;
        let pairs = List.rev !pairs in
        let serialize = if served then Shard.quiesce t else fun f -> f () in
        let moved =
          chunked tr ~serialize coord th
            (fun (k, v) ->
              ops.Intf.install k (Some v);
              true)
            pairs
        in
        (t0, moved, 0, ops, arena)
    | Image dst ->
        (* Tap, then freeze, in one quiesce: every write after the tap
           is in the delta buffer, and the image holds everything
           before it.  The copy clock starts at the freeze. *)
        let last = ref 0 in
        let t0, ops, words =
          Shard.ship_image t ~shard:r.tap ~dst
            ~freeze:(fun () ->
              Shard.tap_writes t ~shard:r.tap record;
              scanned max_int;
              now_ns coord)
            ~between:(fun copied ->
              if Trace.enabled tr then
                Trace.instant tr Trace.id_rebal_copy copied;
              charge_throttle coord th ((copied - !last) * 8);
              last := copied)
        in
        (t0, 0, words, ops, dst)
  in
  let copy_ns = now_ns coord - t0 in
  (* CUTOVER *)
  let t1 = now_ns coord in
  let replayed =
    Shard.quiesce t (fun () ->
        if Trace.enabled tr then Trace.span_begin tr Trace.id_rebal_cutover 0;
        let n = replay_delta tr target_ops delta in
        Shard.untap_writes t ~shard:r.tap;
        Arena.fence target_arena;
        publish_decision coord ((g lsl 2) lor 2);
        r.splice target_ops target_arena;
        if Trace.enabled tr then Trace.span_end tr Trace.id_rebal_cutover;
        n)
  in
  let cutover_ns = now_ns coord - t1 in
  let cleaned = cleaned + r.after () in
  (* Retire the decision first: a crash after this line resolves to
     Idle (plan residue swept there); a crash before it still finds
     the plan and rolls the commit forward. *)
  if r.retire then begin
    publish_decision coord 0;
    drop_plan coord
  end;
  if Trace.enabled tr then begin
    Trace.observe tr "rebalance.copy_ns" copy_ns;
    Trace.observe tr "rebalance.cutover_ns" cutover_ns
  end;
  {
    r_kind = p.p_kind;
    r_generation = g;
    r_shard = p.p_shard;
    r_moved_keys = moved;
    r_moved_words = words;
    r_delta_replayed = replayed;
    r_cleaned_keys = cleaned;
    r_copy_ns = copy_ns;
    r_cutover_ns = cutover_ns;
  }

(* ------------------------------------------------------------------ *)
(* The three plans                                                     *)
(* ------------------------------------------------------------------ *)

let split ?(throttle = default_throttle) ?(scanned = ignore) ?dst t ~shard ~pivot =
  require_range t;
  check_position t shard "split";
  let lo, hi = Shard.shard_span t shard in
  if pivot <= lo || pivot > hi then
    invalid_arg
      (Printf.sprintf
         "Rebalance.split: pivot %d outside shard %d's span [%d, %d]" pivot
         shard lo hi);
  (match (Shard.multi t, dst) with
  | true, None ->
      invalid_arg "Rebalance.split: serving mode needs a fresh ~dst arena"
  | false, Some _ ->
      invalid_arg "Rebalance.split: composite mode splits in-arena (no ~dst)"
  | _ -> ());
  let coord = Shard.instance_arena t shard in
  let d = Shard.inner_descriptor t in
  let cfg = Shard.inner_config t in
  let slot = Shard.free_slot t in
  (* The target inner: same arena at the free root-slot pair
     (composite), or a registry-stamped image on the fresh arena
     (serving). *)
  let target () =
    match dst with
    | None -> (d.D.build { cfg with D.root_slot = 2 * slot } coord, coord)
    | Some a -> (Registry.build ~config:cfg d.D.name a, a)
  in
  run ~scanned throttle t
    {
      block =
        {
          p_kind = Split;
          p_shard = shard;
          p_pivot = pivot;
          p_slot = slot;
          p_span_lo = pivot;
          p_span_hi = hi;
          p_new_count = Shard.shards t + 1;
        };
      tap = shard;
      accept = (fun k -> k >= pivot);
      before = no_step;
      copy = Keys { target; served = false };
      splice =
        (fun ops arena ->
          Shard.splice_split t ~shard ~slot ~pivot ~ops ~arena;
          Shard.persist_topology t);
      (* The source tree still holds the moved span; the span clamp
         hides it, this reclaims it through the untapped source ops. *)
      after =
        (fun () ->
          clean_span t coord throttle (Shard.instance_ops t shard) pivot hi);
      retire = true;
    }

let merge ?(throttle = default_throttle) ?(scanned = ignore) t ~left =
  require_range t;
  check_position t left "merge";
  check_position t (left + 1) "merge";
  let right = left + 1 in
  let rlo, rhi = Shard.shard_span t right in
  let coord = Shard.instance_arena t left in
  let left_ops = Shard.instance_ops t left in
  let rslot = Shard.instance_slot t right in
  run ~scanned throttle t
    {
      block =
        {
          p_kind = Merge;
          p_shard = left;
          p_pivot = 0;
          p_slot = rslot;
          p_span_lo = rlo;
          p_span_hi = rhi;
          p_new_count = Shard.shards t - 1;
        };
      tap = right;
      accept = (fun _ -> true);
      (* Clean the landing span first: an aborted earlier merge may
         have left a partial copy in the left tree (invisible under the
         span clamp, but a commit would expose whatever subset it
         left). *)
      before = (fun () -> clean_span t coord throttle left_ops rlo rhi);
      (* The left tree is still served for writes while the right span
         lands in it. *)
      copy = Keys { target = (fun () -> (left_ops, coord)); served = true };
      splice =
        (fun _ _ ->
          Shard.splice_merge t ~left;
          Shard.persist_topology t);
      (* Retire the right inner: composite mode clears its root-slot
         pair so the orphaned tree is an unambiguous leak for the
         scrubber; serving mode abandons the whole arena. *)
      after =
        (fun () ->
          if not (Shard.multi t) then clear_inner_roots coord rslot;
          0);
      retire = true;
    }

let migrate ?(throttle = default_throttle) ?(scanned = ignore) t ~shard ~dst =
  if not (Shard.multi t) then
    invalid_arg
      "Rebalance.migrate: composite shards share one arena (serving mode \
       only)";
  check_position t shard "migrate";
  let lo, hi = Shard.shard_span t shard in
  run ~scanned throttle t
    {
      block =
        {
          p_kind = Migrate;
          p_shard = shard;
          p_pivot = 0;
          p_slot = 0;
          p_span_lo = lo;
          p_span_hi = hi;
          p_new_count = Shard.shards t;
        };
      tap = shard;
      accept = (fun _ -> true);
      before = no_step;
      copy = Image dst;
      splice = (fun ops arena -> Shard.splice_replace t ~shard ~ops ~arena);
      after = no_step;
      (* No finish on the source: the committed decision word stays as
         the tombstone that names this image superseded. *)
      retire = false;
    }
