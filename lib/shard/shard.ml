module Arena = Ff_pmem.Arena
module Config = Ff_pmem.Config
module Stats = Ff_pmem.Stats
module Segment = Ff_pmem.Segment
module Histogram = Ff_util.Histogram
module Heap = Ff_util.Heap
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Trace = Ff_trace.Trace
module Metrics = Ff_trace.Metrics
module Mcsim = Ff_mcsim.Mcsim
module Workload = Ff_workload.Workload
module Scrub = Ff_scrub.Scrub
module Tx = Ff_tx.Tx
module Txlog = Ff_pmem.Txlog
module Epoch = Ff_pmem.Epoch

exception Degraded of { shard : int; addr : int; attempts : int }

(* ------------------------------------------------------------------ *)
(* Partitioning                                                        *)
(* ------------------------------------------------------------------ *)

let key_space_hi = (1 lsl 60) - 1

module Partition = struct
  type t = Hash of int | Range of int array

  let hash ~shards =
    if shards < 1 then invalid_arg "Partition.hash: shards must be >= 1";
    Hash shards

  let range ~bounds =
    let n = Array.length bounds in
    for i = 1 to n - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Partition.range: bounds must be strictly ascending"
    done;
    Range (Array.copy bounds)

  let even_range ~shards ~space =
    if shards < 1 then invalid_arg "Partition.even_range: shards must be >= 1";
    range ~bounds:(Array.init (shards - 1) (fun i -> ((space / shards) * (i + 1)) + 1))

  let shards = function Hash n -> n | Range b -> Array.length b + 1

  (* Multiplicative scramble (low 62 bits of a SplitMix64 constant, so
     the literal fits OCaml's boxed-free int). *)
  let shard_of t key =
    match t with
    | Hash n -> key * 0x2545F4914F6CDD1D land max_int mod n
    | Range b ->
        (* Smallest i with key < b.(i); the last shard owns the tail. *)
        let lo = ref 0 and hi = ref (Array.length b) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if key < b.(mid) then hi := mid else lo := mid + 1
        done;
        !lo

  (* Inclusive shard-index interval a [lo, hi] scan must visit.  Hash
     scatters the key space, so every shard overlaps every range. *)
  let overlapping t ~lo ~hi =
    match t with
    | Hash n -> (0, n - 1)
    | Range _ -> (shard_of t lo, shard_of t hi)

  let tag = function Hash _ -> 0 | Range _ -> 1
  let bounds = function Hash _ -> [||] | Range b -> Array.copy b

  (* Inclusive key interval shard [i] owns.  Hash scatters the key
     space, so every hash shard nominally owns all of it. *)
  let span t i =
    match t with
    | Hash _ -> (1, key_space_hi)
    | Range b ->
        ( (if i = 0 then 1 else b.(i - 1)),
          if i = Array.length b then key_space_hi else b.(i) - 1 )

  (* Elastic topology edits (volatile; callers persist separately). *)

  let split t ~shard ~pivot =
    match t with
    | Hash _ -> invalid_arg "Partition.split: hash partitions cannot split"
    | Range b ->
        let lo, hi = span t shard in
        if pivot <= lo || pivot > hi then
          invalid_arg
            (Printf.sprintf
               "Partition.split: pivot %d outside shard %d's span (%d, %d]"
               pivot shard lo hi);
        let n = Array.length b in
        let nb = Array.make (n + 1) 0 in
        Array.blit b 0 nb 0 shard;
        nb.(shard) <- pivot;
        Array.blit b shard nb (shard + 1) (n - shard);
        Range nb

  let merge t ~left =
    match t with
    | Hash _ -> invalid_arg "Partition.merge: hash partitions cannot merge"
    | Range b ->
        if left < 0 || left >= Array.length b then
          invalid_arg "Partition.merge: no right neighbour to merge";
        let n = Array.length b in
        let nb = Array.make (n - 1) 0 in
        Array.blit b 0 nb 0 left;
        Array.blit b (left + 1) nb left (n - left - 1);
        Range nb
end

(* ------------------------------------------------------------------ *)
(* Capability gating and persisted metadata                            *)
(* ------------------------------------------------------------------ *)

(* Shard i confines its inner instance to root slots 2i and 2i+1; the
   top of the reserved window holds the shard manifest (58-60) and the
   registry manifest (61-63). *)
let slot_shards = 60
let slot_policy = 59
let slot_bounds = 58
let max_shards = 28

let check_shards n =
  if n < 1 || n > max_shards then
    invalid_arg
      (Printf.sprintf
         "Shard: shard count must be in [1, %d] (each shard owns 2 reserved \
          root slots), got %d"
         max_shards n)

(* Serving mode gives every shard a whole arena, so the inner builds at
   its native root slot and [relocatable_root] is not required there —
   which is what lets the snapshot wrapper (fixed version-store anchor,
   hence one instance per arena) shard in serving mode only. *)
let require_shardable ?(relocatable = true) (d : D.t) =
  let c = d.D.caps in
  let missing =
    (if c.D.is_persistent then [] else [ "persistence" ])
    @ (if c.D.has_recovery then [] else [ "crash recovery" ])
    @ (if c.D.has_range then [] else [ "range scans" ])
    @
    if c.D.relocatable_root || not relocatable then []
    else [ "a relocatable root" ]
  in
  if missing <> [] then
    invalid_arg
      (Printf.sprintf
         "Shard: '%s' cannot be sharded: it lacks %s (the serving layer needs \
          a persistent, recoverable, range-scannable inner structure whose \
          root honours config.root_slot)"
         d.D.name
         (String.concat ", " missing))

let shard_config (base : D.config) i = { base with D.root_slot = 2 * i }

(* ------------------------------------------------------------------ *)
(* The serving layer                                                   *)
(* ------------------------------------------------------------------ *)

type instance = {
  mutable ops : Intf.ops;
  arena : Arena.t;
  (* Composite root-slot id: the inner builds at slots [2*slot,
     2*slot+1].  Decoupled from the instance's position in the array so
     elastic splices never renumber surviving shards' slots.  Unused
     (position-equal) in serving mode. *)
  mutable slot : int;
  (* Original ops while a rebalance write tap wraps this instance. *)
  mutable tap_base : Intf.ops option;
  lat : Histogram.t;
  mutable routed : int;
  mutable batches : int;
  mutable healthy : bool;
  mutable media_errors : int;
  mutable retries : int;
  mutable rejected : int;
  (* Deterministic jitter source for this shard's retry backoff:
     seeded from the composite slot, so runs replay and distinct
     shards draw distinct sequences. *)
  backoff_rng : Ff_util.Prng.t;
}

type t = {
  mutable partition : Partition.t;
  inner : D.t;
  inner_config : D.config;
  mutable instances : instance array;
  multi : bool; (* one arena per shard (serving) vs one carved arena *)
  batch_cap : int;
  group : bool; (* batches run under a group-flush scope *)
  mutable tracer : Trace.t;
  (* Queued ops carry the id and enqueue time assigned at submit, so a
     batch records true end-to-end latency (queueing + execution).
     Rebuilt (empty) whenever a splice changes the topology. *)
  mutable queues : (int * int * Workload.op) list ref array;
  (* Per shard: ops routed to it since its oldest queued op was
     enqueued, reads that skipped the queue included; 0 while the
     queue is empty.  The queue closes when this reaches [batch_cap]. *)
  mutable window : int array;
  mutable next_op : int;
  mutable last_scrub : Scrub.report list;
  (* Transaction machinery: one manager per shard arena (multi mode)
     or one routing manager (composite mode), built lazily and
     invalidated whenever the instances' ops handles are replaced. *)
  mutable txs : Tx.t array option;
  mutable next_gtid : int;
  mutable tx_replays : int;
  (* A global snapshot pin or rebalance cutover in progress: new
     mutations stall until the quiesced section ends (reads keep
     flowing). *)
  mutable pinning : bool;
  (* Mutations past the write gate but not yet fully applied — point
     writes mid-flight, batches executing, cross-shard commits applying
     shard by shard.  A quiesce must wait these out: a snapshot cut
     could otherwise capture half a committed transaction, and a
     rebalance cutover could otherwise lose a write that was applied to
     the source after the delta buffer was replayed. *)
  mutable commits_in_flight : int;
}

let mk_instance ?(slot = 0) ops arena =
  {
    ops;
    arena;
    slot;
    tap_base = None;
    lat = Histogram.create ();
    routed = 0;
    batches = 0;
    healthy = true;
    media_errors = 0;
    retries = 0;
    rejected = 0;
    backoff_rng = Ff_util.Prng.create (0x5eed_ba5e + (slot lsl 8));
  }

(* Pushing the ensemble tracer into every inner instance puts tree
   spans (insert, split, recovery) on the same timeline as the shard's
   batch spans — which is what gives stores and fences their code-site
   attribution. *)
let wire_tracer tracer instances =
  if Trace.enabled tracer then
    Array.iter (fun it -> it.ops.Intf.set_tracer tracer) instances

let make ~partition ~inner ~inner_config ~instances ~multi ~batch_cap ~group
    ~tracer =
  let n = Array.length instances in
  wire_tracer tracer instances;
  {
    partition;
    inner;
    inner_config;
    instances;
    multi;
    batch_cap;
    group;
    tracer;
    queues = Array.init n (fun _ -> ref []);
    window = Array.make n 0;
    next_op = 0;
    last_scrub = [];
    txs = None;
    next_gtid = 1;
    tx_replays = 0;
    pinning = false;
    commits_in_flight = 0;
  }

(* Shard-local clock: global simulated time inside Mcsim.run, else the
   shard arena's accumulated simulated nanoseconds.  Enqueue and
   completion are always read on the same shard's clock. *)
let now_ns it =
  match Mcsim.sim_now () with
  | Some ns -> ns
  | None -> Arena.elapsed_ns it.arena

let shards t = Array.length t.instances
let partition t = t.partition
let group t = t.group
let arenas t = Array.map (fun i -> i.arena) t.instances
let shard_of_key t k = Partition.shard_of t.partition k

let create ?(pm_config = Config.default) ?(words = 1 lsl 20)
    ?(inner_config = D.default_config) ?partition ?(batch_cap = 64)
    ?(group = true) ?(tracer = Trace.null) ~inner ~shards () =
  check_shards shards;
  let d = Registry.find_exn inner in
  require_shardable ~relocatable:false d;
  let partition =
    match partition with
    | None -> Partition.hash ~shards
    | Some p ->
        if Partition.shards p <> shards then
          invalid_arg "Shard.create: partition disagrees with shard count";
        p
  in
  let instances =
    Array.init shards (fun i ->
        let a = Arena.create ~config:pm_config ~words () in
        mk_instance ~slot:i (Registry.build ~config:inner_config inner a) a)
  in
  make ~partition ~inner:d ~inner_config ~instances ~multi:true ~batch_cap
    ~group ~tracer

(* Single-arena composite: all shards carved from one arena, so the
   whole ensemble persists, crashes and reloads as one image. *)

(* Range manifest block: [len; bounds x len; slot map x (len+1)].  The
   slot map names each partition position's root-slot id, so elastic
   splices can hand a split-off shard the next free slot pair without
   renumbering survivors. *)
let persist_meta arena partition map =
  (match partition with
  | Partition.Hash _ -> Arena.root_set arena slot_bounds 0
  | Partition.Range b ->
      let len = Array.length b in
      if Array.length map <> len + 1 then
        invalid_arg "Shard.persist_meta: slot map disagrees with bounds";
      let old = Arena.root_get arena slot_bounds in
      let words = 1 + len + (len + 1) in
      let blk = Arena.alloc arena words in
      Arena.write arena blk len;
      Array.iteri (fun i v -> Arena.write arena (blk + 1 + i) v) b;
      Array.iteri (fun i s -> Arena.write arena (blk + 1 + len + i) s) map;
      Arena.flush_range arena blk words;
      Arena.fence arena;
      Arena.root_set arena slot_bounds blk;
      if old <> 0 then begin
        let olen = Arena.read arena old in
        Arena.free arena old (1 + olen + (olen + 1))
      end);
  Arena.root_set arena slot_policy (Partition.tag partition);
  Arena.root_set arena slot_shards (Partition.shards partition)

let read_meta arena =
  let n = Arena.root_get arena slot_shards in
  if n < 1 || n > max_shards then
    invalid_arg "Shard.attach: arena carries no shard metadata";
  match Arena.root_get arena slot_policy with
  | 0 -> (Partition.hash ~shards:n, Array.init n Fun.id)
  | 1 ->
      let blk = Arena.root_get arena slot_bounds in
      let len = Arena.read arena blk in
      if len <> n - 1 then
        invalid_arg "Shard.attach: shard manifest is inconsistent";
      let bounds = Array.init len (fun i -> Arena.read arena (blk + 1 + i)) in
      let map = Array.init n (fun i -> Arena.read arena (blk + 1 + len + i)) in
      (Partition.range ~bounds, map)
  | tag ->
      invalid_arg
        (Printf.sprintf "Shard.attach: unknown partition policy tag %d" tag)

(* Arena-level manifest access for the rebalancer: crash resolution
   must be able to promote a committed topology (or inspect the old
   one) before any ensemble handle exists. *)
let manifest_slots = [ slot_bounds; slot_policy; slot_shards ]
let read_manifest = read_meta
let write_manifest = persist_meta

let build_single ?(batch_cap = 64) ?(group = false) ?(tracer = Trace.null)
    ~inner:(d : D.t) ~partition cfg arena =
  require_shardable d;
  check_shards (Partition.shards partition);
  let instances =
    Array.init (Partition.shards partition) (fun i ->
        mk_instance ~slot:i (d.D.build (shard_config cfg i) arena) arena)
  in
  persist_meta arena partition
    (Array.init (Partition.shards partition) Fun.id);
  make ~partition ~inner:d ~inner_config:cfg ~instances ~multi:false ~batch_cap
    ~group ~tracer

let attach_with ?(batch_cap = 64) ?(group = false) ?(tracer = Trace.null)
    (d : D.t) cfg arena =
  let partition, map = read_meta arena in
  let instances =
    Array.init (Partition.shards partition) (fun i ->
        mk_instance ~slot:map.(i)
          (d.D.open_existing (shard_config cfg map.(i)) arena)
          arena)
  in
  make ~partition ~inner:d ~inner_config:cfg ~instances ~multi:false ~batch_cap
    ~group ~tracer

let attach ?batch_cap ?group ?tracer ?(config = D.default_config) ~inner
    arena =
  let d = Registry.find_exn inner in
  require_shardable d;
  attach_with ?batch_cap ?group ?tracer d config arena

(* Build a single-arena composite with an explicit partition (the
   registered composite descriptor is fixed at 4 hash shards; elastic
   rebalancing wants range partitions of any width). *)
let create_composite ?batch_cap ?group ?tracer ?(config = D.default_config)
    ~inner ~partition arena =
  let d = Registry.find_exn inner in
  build_single ?batch_cap ?group ?tracer ~inner:d ~partition config arena

(* ------------------------------------------------------------------ *)
(* Routed point operations and the merged range cursor                 *)
(* ------------------------------------------------------------------ *)

let retry_limit = 3
let backoff_ns = 1000

(* Graceful degradation: a [Media_error] escaping a shard marks it
   degraded instead of tearing down the ensemble.  The op is retried
   with exponential backoff in simulated time — transient errors (or a
   write path that incidentally repairs the line) succeed on retry —
   and after [retry_limit] retries surfaces as a typed {!Degraded}
   error naming the shard and the failing address.  Other shards, and
   reads that do not touch the damaged line, keep serving; a shard is
   re-admitted when {!recover}'s scrub pass leaves it clean. *)
let guarded t i f =
  let it = t.instances.(i) in
  let rec attempt n =
    match f () with
    | r -> r
    | exception Arena.Media_error addr ->
        it.media_errors <- it.media_errors + 1;
        if it.healthy then begin
          it.healthy <- false;
          if Trace.enabled t.tracer then begin
            Metrics.incr (Trace.metrics t.tracer)
              (Metrics.shard_label "shard.degraded" i);
            Trace.instant t.tracer Trace.id_degraded i
          end
        end;
        if n >= retry_limit then begin
          it.rejected <- it.rejected + 1;
          raise (Degraded { shard = i; addr; attempts = n + 1 })
        end
        else begin
          it.retries <- it.retries + 1;
          (* Jittered exponential backoff: base << n plus a uniform
             draw of the same magnitude from this shard's own stream,
             so degraded shards do not retry in lockstep. *)
          let base = backoff_ns lsl n in
          Arena.cpu_work it.arena
            (base + Ff_util.Prng.int it.backoff_rng (max 1 base));
          attempt (n + 1)
        end
  in
  attempt 0

(* Mutations wait out an in-progress global snapshot pin or rebalance
   cutover so no write lands on an already-pinned shard while a
   sibling has yet to pin — the cross-shard cut stays consistent.
   Reads are unaffected.  Waits block in the simulator rather than
   spin: a priority scheduler runs a spinner forever and starves the
   thread it waits for.  [Mcsim.await] returns with the gate open and
   no yield point before the caller's next step.  The test keeps the
   common no-pin path from allocating the closure. *)
let write_gate t = if t.pinning then Mcsim.await (fun () -> not t.pinning)

(* Pass the gate and count the mutation as in flight until it is fully
   applied.  The gate check and the increment share no yield point, so
   a quiesce raised after the gate waits the whole mutation out —
   routing, apply, and (during a rebalance) the dual-write tap are one
   indivisible unit from the quiescer's point of view. *)
let with_inflight t f =
  write_gate t;
  t.commits_in_flight <- t.commits_in_flight + 1;
  Fun.protect
    ~finally:(fun () -> t.commits_in_flight <- t.commits_in_flight - 1)
    f

let insert t ~key ~value =
  with_inflight t (fun () ->
      let i = shard_of_key t key in
      let it = t.instances.(i) in
      it.routed <- it.routed + 1;
      guarded t i (fun () -> it.ops.Intf.insert key value))

let search t key =
  let i = shard_of_key t key in
  guarded t i (fun () -> t.instances.(i).ops.Intf.search key)

let delete t key =
  with_inflight t (fun () ->
      let i = shard_of_key t key in
      guarded t i (fun () -> t.instances.(i).ops.Intf.delete key))

let update t ~key ~value =
  with_inflight t (fun () ->
      let i = shard_of_key t key in
      guarded t i (fun () -> t.instances.(i).ops.Intf.update key value))

let bulk_insert t pairs =
  with_inflight t (fun () ->
      (* Partition first so each inner sees one call and may use its
         bulk path; within a shard the submission order is preserved. *)
      let buckets = Array.make (shards t) [] in
      Array.iter
        (fun (k, v) ->
          let i = shard_of_key t k in
          buckets.(i) <- (k, v) :: buckets.(i))
        pairs;
      Array.iteri
        (fun i b ->
          if b <> [] then begin
            let arr = Array.of_list (List.rev b) in
            t.instances.(i).routed <- t.instances.(i).routed + Array.length arr;
            t.instances.(i).ops.Intf.bulk_insert arr
          end)
        buckets)

(* Cross-shard ordered scan, shared by [range] and [range_at]: [scan
   ops qlo qhi f] reads one shard's slice, clamped to the span the
   shard owns — after a split or merge the source tree may still hold
   moved keys outside its span (until the background cleanup deletes
   them), and clamping keeps those stale copies invisible.  Each
   overlapping slice is materialized (already ascending) and k-way
   merged on a stable min-heap.  Keys are globally unique across
   shards, so ties cannot occur. *)
let merged_range t ~lo ~hi scan f =
  let clamped j f =
    let sl, sh = Partition.span t.partition j in
    let qlo = max lo sl and qhi = min hi sh in
    if qlo <= qhi then scan t.instances.(j).ops qlo qhi f
  in
  let slo, shi = Partition.overlapping t.partition ~lo ~hi in
  let nsh = shi - slo + 1 in
  if Trace.enabled t.tracer then Trace.instant t.tracer Trace.id_merge nsh;
  if nsh = 1 then guarded t slo (fun () -> clamped slo f)
  else begin
    let slices =
      Array.init nsh (fun j ->
          guarded t (slo + j) (fun () ->
              let buf = ref [] in
              clamped (slo + j) (fun k v -> buf := (k, v) :: !buf);
              Array.of_list (List.rev !buf)))
    in
    let cursor = Array.make nsh 0 in
    let heap = Heap.create () in
    Array.iteri
      (fun j s -> if Array.length s > 0 then Heap.push heap (fst s.(0)) j)
      slices;
    let rec drain () =
      match Heap.pop heap with
      | None -> ()
      | Some (_, j) ->
          let s = slices.(j) in
          let k, v = s.(cursor.(j)) in
          f k v;
          cursor.(j) <- cursor.(j) + 1;
          if cursor.(j) < Array.length s then
            Heap.push heap (fst s.(cursor.(j))) j;
          drain ()
    in
    drain ()
  end

let range t ~lo ~hi f = merged_range t ~lo ~hi (fun ops -> ops.Intf.range) f

(* ------------------------------------------------------------------ *)
(* Batched scheduler with group flush                                  *)
(* ------------------------------------------------------------------ *)

let key_of_op = function
  | Workload.Insert k | Workload.Search k | Workload.Delete k -> k
  | Workload.Range (lo, _) -> lo

let latency_label = function
  | Workload.Insert _ -> "shard.latency_ns.insert"
  | Workload.Search _ -> "shard.latency_ns.search"
  | Workload.Delete _ -> "shard.latency_ns.delete"
  | Workload.Range _ -> "shard.latency_ns.range"

(* Record one op's end-to-end latency [lat] under shard [i], count it
   as served by that shard and link it back to its submit-time id with
   an [id_op] instant, so traces can be joined per op. *)
let finish_op t i op_id lat op =
  let it = t.instances.(i) in
  Histogram.add it.lat lat;
  if Trace.enabled t.tracer then begin
    Trace.observe t.tracer (latency_label op) lat;
    Metrics.incr (Trace.metrics t.tracer) (Metrics.shard_label "shard.ops" i);
    Trace.instant t.tracer Trace.id_op op_id
  end

(* Run one point op on shard [i] and record its latency, enqueue to
   completion on the shard's clock.  A shard going degraded fails this
   op, not the run. *)
let serve t i (op_id, enq, op) =
  let it = t.instances.(i) in
  let r =
    try guarded t i (fun () -> Workload.run_op it.ops op)
    with Degraded _ -> 0
  in
  finish_op t i op_id (max 0 (now_ns it - enq)) op;
  r

(* Drain shard [i]'s queue as one batch.  Ops are stably sorted by key
   (same-key submission order survives; distinct point ops commute, so
   results match sequential execution) and run under one group-flush
   scope: per-op flushes persist at the MLP discount and the single
   group_end fence makes the whole batch durable.  The batch is a
   span, so its group_end fence is attributed to the "batch" site
   rather than to whichever op happened to run last. *)
(* The batch counts as one in-flight mutation (no gate: the quiescer's
   own queue drain runs while [pinning] is up), so a quiesce raised
   mid-batch waits for the whole batch to apply. *)
let exec_batch t i =
  if !(t.queues.(i)) = [] then 0
  else begin
    t.commits_in_flight <- t.commits_in_flight + 1;
    Fun.protect
      ~finally:(fun () -> t.commits_in_flight <- t.commits_in_flight - 1)
    @@ fun () ->
    let q = t.queues.(i) in
    let batch =
      List.stable_sort
        (fun (_, _, a) (_, _, b) -> compare (key_of_op a) (key_of_op b))
        (List.rev !q)
    in
    q := [];
    let count = List.length batch in
    t.window.(i) <- 0;
    let it = t.instances.(i) in
    let a = it.arena in
    if Trace.enabled t.tracer then
      Trace.span_begin t.tracer Trace.id_batch count;
    if t.group then Arena.group_begin a;
    (* A degraded op fails alone: the remaining ops still run and the
       closing group_end fence still makes the survivors durable. *)
    let acc = List.fold_left (fun acc q -> acc + serve t i q) 0 batch in
    if t.group then Arena.group_end a;
    if Trace.enabled t.tracer then Trace.span_end t.tracer Trace.id_batch;
    it.batches <- it.batches + 1;
    it.routed <- it.routed + count;
    acc
  end

let drain_queues t =
  let acc = ref 0 in
  for i = 0 to shards t - 1 do
    acc := !acc + exec_batch t i
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Quiesce                                                             *)
(* ------------------------------------------------------------------ *)

(* Run [f] with the ensemble quiesced: new mutations stall behind
   [pinning], mutations already past the gate (point writes, executing
   batches, cross-shard commits applying shard by shard) are waited
   out, and the batch queues drain.  Reads keep flowing throughout.
   Both the snapshot pin and the rebalance cutover commit inside this
   window. *)
let quiesce t f =
  write_gate t;
  t.pinning <- true;
  Fun.protect
    ~finally:(fun () -> t.pinning <- false)
    (fun () ->
      Mcsim.await (fun () -> t.commits_in_flight = 0);
      ignore (drain_queues t);
      f ())

(* ------------------------------------------------------------------ *)
(* Cross-shard consistent snapshots                                    *)
(* ------------------------------------------------------------------ *)

let require_snapshottable t =
  if not t.inner.D.caps.D.snapshottable then
    invalid_arg
      (Printf.sprintf "Shard: inner '%s' is not snapshottable (caps: %s)"
         t.inner.D.name (D.caps_line t.inner));
  if not t.multi then
    invalid_arg
      "Shard: cross-shard snapshots need serving mode (one arena per shard)"

(* Pin every shard at one global epoch, 2PC-style: mutations stall
   behind [pinning] (the prepare barrier), queues drain, each shard
   publishes the agreed epoch [g] through its own crash-atomic epoch
   cell, and finally the coordinator (shard 0's arena) persists [g] as
   the global decision word.  After a crash, a global snapshot [g] is
   valid iff the decision word reached [g]: a crash before that leaves
   some shards unpinned, and the partial pins are harmless local
   epochs. *)
let snapshot_begin t =
  require_snapshottable t;
  quiesce t
    (fun () ->
      let g =
        1
        + Array.fold_left
            (fun m it -> max m (Epoch.current it.arena))
            0 t.instances
      in
      Array.iteri
        (fun i it ->
          (* The per-shard pin is idempotent at [g], so a transient
             media fault retried by [guarded] re-pins cleanly; any
             other epoch is a broken 2PC agreement — a real error, not
             an assert that -noassert compiles away. *)
          let got = guarded t i (fun () -> it.ops.Intf.snapshot_begin g) in
          if got <> g then
            failwith
              (Printf.sprintf
                 "Shard.snapshot_begin: shard %d pinned epoch %d instead of \
                  the agreed %d"
                 i got g))
        t.instances;
      Epoch.publish_global t.instances.(0).arena g;
      g)

let snapshot_decision t =
  require_snapshottable t;
  Epoch.global_decision t.instances.(0).arena

let read_at t ~epoch k =
  require_snapshottable t;
  let i = shard_of_key t k in
  guarded t i (fun () -> t.instances.(i).ops.Intf.read_at epoch k)

(* As-of variant of the merged range cursor: each shard's pinned
   slice is already ascending, so the same merge yields a globally
   ordered cut. *)
let range_at t ~epoch ~lo ~hi f =
  require_snapshottable t;
  merged_range t ~lo ~hi (fun ops -> ops.Intf.range_at epoch) f

let gc_before t epoch =
  require_snapshottable t;
  Array.fold_left
    (fun acc it -> acc + it.ops.Intf.gc_before epoch)
    0 t.instances

(* ------------------------------------------------------------------ *)
(* Elastic topology: write taps and live splices                       *)
(* ------------------------------------------------------------------ *)

(* Dual-write tap: wrap one shard's ops handle so every applied point
   write — insert, update, delete, bulk insert, and transactional
   install — also reaches [f] with the key and its new binding.  The
   rebalancer records these in its delta buffer while the background
   copy runs; [with_inflight] guarantees a quiesce never separates an
   applied write from its tap record. *)
let tap_writes t ~shard f =
  let it = t.instances.(shard) in
  (match it.tap_base with
  | Some _ -> invalid_arg "Shard.tap_writes: shard is already tapped"
  | None -> ());
  let base = it.ops in
  it.tap_base <- Some base;
  it.ops <-
    {
      base with
      Intf.insert =
        (fun k v ->
          base.Intf.insert k v;
          f k (Some v));
      update =
        (fun k v ->
          let r = base.Intf.update k v in
          if r then f k (Some v);
          r);
      delete =
        (fun k ->
          let r = base.Intf.delete k in
          f k None;
          r);
      install =
        (fun k vo ->
          base.Intf.install k vo;
          f k vo);
      bulk_insert =
        (fun pairs ->
          base.Intf.bulk_insert pairs;
          Array.iter (fun (k, v) -> f k (Some v)) pairs);
    };
  (* Cached transaction managers hold the untapped handle. *)
  t.txs <- None

let untap_writes t ~shard =
  let it = t.instances.(shard) in
  match it.tap_base with
  | None -> ()
  | Some base ->
      it.ops <- base;
      it.tap_base <- None;
      t.txs <- None

let tapped t ~shard = t.instances.(shard).tap_base <> None

(* Splices replace the volatile topology in one step.  They require
   drained queues (call them inside {!quiesce}) and rebuild the
   scheduler arrays; persistence of the new topology is the caller's
   (the rebalancer's) job, sequenced around its decision word. *)

let check_spliceable t =
  Array.iteri
    (fun i q -> if !q <> [] then
        invalid_arg
          (Printf.sprintf "Shard.splice: shard %d has %d queued ops" i
             (List.length !q)))
    t.queues

let rebuild_sched t =
  let n = Array.length t.instances in
  t.queues <- Array.init n (fun _ -> ref []);
  t.window <- Array.make n 0;
  t.txs <- None

(* The split and merge topology edits, computed once for the live
   splices (over the instance array) and for crash resolution (over a
   persisted slot map): the new partition, and the per-position array
   with [nu] inserted at [shard + 1] or position [left + 1] dropped. *)
let split_topology partition arr ~shard ~pivot nu =
  let p = Partition.split partition ~shard ~pivot in
  ( p,
    Array.init (Array.length arr + 1) (fun i ->
        if i <= shard then arr.(i)
        else if i = shard + 1 then nu
        else arr.(i - 1)) )

let merge_topology partition arr ~left =
  let p = Partition.merge partition ~left in
  ( p,
    Array.init (Array.length arr - 1) (fun i ->
        if i <= left then arr.(i) else arr.(i + 1)) )

let splice_split t ~shard ~slot ~pivot ~ops ~arena =
  check_spliceable t;
  let nu = mk_instance ~slot ops arena in
  let p, instances = split_topology t.partition t.instances ~shard ~pivot nu in
  check_shards (Partition.shards p);
  if Trace.enabled t.tracer then nu.ops.Intf.set_tracer t.tracer;
  t.instances <- instances;
  t.partition <- p;
  rebuild_sched t

let splice_merge t ~left =
  check_spliceable t;
  let p, instances = merge_topology t.partition t.instances ~left in
  t.instances <- instances;
  t.partition <- p;
  rebuild_sched t

let splice_replace t ~shard ~ops ~arena =
  check_spliceable t;
  let old = t.instances.(shard) in
  let nu = mk_instance ~slot:old.slot ops arena in
  nu.routed <- old.routed;
  nu.batches <- old.batches;
  if Trace.enabled t.tracer then nu.ops.Intf.set_tracer t.tracer;
  t.instances <- Array.mapi (fun i it -> if i = shard then nu else it) t.instances;
  rebuild_sched t

(* Ship shard [shard]'s image into the fresh arena [dst].  Inside one
   quiesce: run [freeze] (a rebalance installs its write tap there),
   then drain and clone the source, so the clone is a clean, legal TSO
   state holding every write applied before the freeze.  Outside it:
   capture the clone's segment, copy it chunk by chunk ([between] sees
   the cumulative words after each chunk), attach, reopen through the
   registry manifest the image carried, and recover.  Returns
   [freeze]'s result, the reopened ops and the words shipped. *)
let ship_image t ~shard ~freeze ~dst ~between =
  let src = t.instances.(shard).arena in
  let frozen, x =
    quiesce t (fun () ->
        let x = freeze () in
        Arena.drain src;
        (Arena.clone src, x))
  in
  let seg = Segment.capture frozen in
  Segment.copy ~src:frozen ~dst seg ~between;
  Segment.attach ~dst seg;
  let ops = Registry.open_existing dst in
  ops.Intf.recover ();
  (x, ops, Segment.words seg)

let persist_topology t =
  if not t.multi then
    persist_meta t.instances.(0).arena t.partition
      (Array.map (fun it -> it.slot) t.instances)

let instance_slot t i = t.instances.(i).slot

let free_slot t =
  let used = Array.map (fun it -> it.slot) t.instances in
  let s = ref 0 in
  while Array.exists (fun u -> u = !s) used do incr s done;
  if !s >= max_shards then invalid_arg "Shard.free_slot: all root slots in use";
  !s

let multi t = t.multi
let inner_descriptor t = t.inner
let inner_config t = t.inner_config
let tracer t = t.tracer
let instance_ops t i = t.instances.(i).ops
let instance_arena t i = t.instances.(i).arena
let shard_span t i = Partition.span t.partition i

(* Enqueue a trace; a shard executes its queue once [batch_cap] ops
   have been routed to it since the oldest queued op.  A search whose
   key has no queued op on its shard skips the queue and runs at once:
   distinct keys commute, so it sees what sequential order would show
   it, and it reads only state an earlier batch already fenced.  Range
   is a scheduling barrier: all queues drain so the merged cursor sees
   every prior write, matching sequential order. *)
let submit t ops =
  write_gate t;
  let acc = ref 0 in
  Array.iter
    (fun op ->
      let op_id = t.next_op in
      t.next_op <- op_id + 1;
      match op with
      | Workload.Range (lo, len) ->
          acc := !acc + drain_queues t;
          let hi = lo + (len * 4) in
          (* The shards read their slices in parallel, so the scan
             takes the largest clock advance among them. *)
          let slo, shi = Partition.overlapping t.partition ~lo ~hi in
          let clocks () =
            Array.init (shi - slo + 1) (fun j -> now_ns t.instances.(slo + j))
          in
          let c0 = clocks () in
          let n = ref 0 in
          (* Like point ops in a batch, a scan over a degraded shard
             fails this op, not the run. *)
          (try range t ~lo ~hi (fun _ _ -> incr n) with Degraded _ -> ());
          let lat = Array.fold_left max 0 (Array.map2 ( - ) (clocks ()) c0) in
          finish_op t (shard_of_key t lo) op_id lat op;
          acc := !acc + !n
      | op ->
          let k = key_of_op op in
          let i = shard_of_key t k in
          let it = t.instances.(i) in
          let q = t.queues.(i) in
          (match op with
          | Workload.Search _
            when not (List.exists (fun (_, _, o) -> key_of_op o = k) !q) ->
              acc := !acc + serve t i (op_id, now_ns it, op);
              it.routed <- it.routed + 1;
              if !q <> [] then t.window.(i) <- t.window.(i) + 1
          | _ ->
              q := (op_id, now_ns it, op) :: !q;
              t.window.(i) <- t.window.(i) + 1);
          if t.window.(i) >= t.batch_cap then acc := !acc + exec_batch t i)
    ops;
  acc := !acc + drain_queues t;
  !acc

(* ------------------------------------------------------------------ *)
(* Occupancy and latency statistics                                    *)
(* ------------------------------------------------------------------ *)

(* Occupancy counts only the keys a shard owns (its partition span),
   so a source tree's not-yet-cleaned stale keys after a split do not
   inflate its load. *)
let occupancy t =
  Array.mapi
    (fun i it ->
      let sl, sh = Partition.span t.partition i in
      Intf.range_count it.ops sl sh)
    t.instances

let imbalance t =
  let occ = occupancy t in
  let mx = Array.fold_left max 0 occ in
  let mean =
    float_of_int (Array.fold_left ( + ) 0 occ) /. float_of_int (Array.length occ)
  in
  (mx, mean)

let routed t = Array.map (fun it -> it.routed) t.instances
let batches t = Array.fold_left (fun acc it -> acc + it.batches) 0 t.instances
let latency t i = t.instances.(i).lat

let merged_latency t =
  let acc = Histogram.create () in
  Array.iter (fun it -> Histogram.merge acc it.lat) t.instances;
  acc

(* ------------------------------------------------------------------ *)
(* Crash and recovery                                                  *)
(* ------------------------------------------------------------------ *)

let close t = Array.iter (fun it -> it.ops.Intf.close ()) t.instances

let power_fail t mode =
  ignore (drain_queues t);
  t.txs <- None;
  if t.multi then
    Array.iter (fun it -> Arena.power_fail it.arena mode) t.instances
  else Arena.power_fail t.instances.(0).arena mode

let reopen_instance t i =
  let it = t.instances.(i) in
  let cfg =
    if t.multi then t.inner_config else shard_config t.inner_config it.slot
  in
  (* Reopening supersedes any rebalance write tap on the old handle. *)
  it.tap_base <- None;
  it.ops <- t.inner.D.open_existing cfg it.arena;
  if Trace.enabled t.tracer then it.ops.Intf.set_tracer t.tracer

(* Recovery with scrub-and-readmit: when the inner structure is
   scrubbable, every shard gets a full scrub pass (media repair, then
   inner recovery, then validation and leak reclamation) and is
   re-admitted — marked healthy again — only if its scrub came back
   clean.  In single-arena mode the whole ensemble shares one heap, so
   one composite scrub (registered as "sharded-<inner>") covers all
   shards plus the partition metadata; per-shard reclamation would
   misread sibling shards' nodes as leaks. *)
let plain_recover t =
  Array.iteri
    (fun i it ->
      reopen_instance t i;
      it.ops.Intf.recover ())
    t.instances

(* Re-admission after a clean scrub is an observable event: the SLO
   burn-rate rules and the soak smoke both key off the degraded /
   readmit instant pair. *)
let set_health t i was clean =
  t.instances.(i).healthy <- clean;
  if clean && not was && Trace.enabled t.tracer then begin
    Metrics.incr (Trace.metrics t.tracer)
      (Metrics.shard_label "shard.readmitted" i);
    Trace.instant t.tracer Trace.id_readmit i
  end

(* Resolve every shard's transaction log after the structural recovery
   pass.  Prepared participants consult the coordinator shard's log for
   the global decision, so all Prepared logs resolve in a first pass
   while every coordinator's commit record is still intact; Committed /
   In_flight logs (including coordinators, which discard their decision
   records) resolve second. *)
let dec_v v = if v = 0 then None else Some v

let tx_resolve t =
  let n = Array.length t.instances in
  let logs =
    if t.multi then Array.map (fun it -> Txlog.attach it.arena) t.instances
    else
      Array.init n (fun i ->
          if i = 0 then Txlog.attach t.instances.(0).arena else None)
  in
  let install i k post =
    let j = if t.multi then i else Partition.shard_of t.partition k in
    t.instances.(j).ops.Intf.install k post
  in
  let decided ~gtid ~coord =
    coord >= 0 && coord < n
    && match logs.(coord) with
       | Some cl -> Txlog.decision cl ~gtid
       | None -> false
  in
  let resolve i log =
    let redo (r : Txlog.record) = install i r.Txlog.key (dec_v r.Txlog.new_v) in
    let undo (r : Txlog.record) = install i r.Txlog.key (dec_v r.Txlog.old_v) in
    match Txlog.resolve log ~decided ~redo ~undo with
    | `Clean -> ()
    | `Redone k | `Undone k | `Aborted k ->
        t.tx_replays <- t.tx_replays + 1;
        if Trace.enabled t.tracer then Trace.instant t.tracer Trace.id_tx_replay k
  in
  let prepared log =
    match Txlog.state log with Txlog.Prepared _ -> true | _ -> false
  in
  Array.iteri
    (fun i -> function Some l when prepared l -> resolve i l | _ -> ())
    logs;
  Array.iteri (fun i -> function Some l -> resolve i l | None -> ()) logs

let recover t =
  t.last_scrub <- [];
  t.txs <- None;
  if t.multi then begin
    if Scrub.scrubbable t.inner then
      Array.iteri
        (fun i it ->
          let was = it.healthy in
          let r =
            Scrub.run ~tracer:t.tracer ~config:t.inner_config t.inner it.arena
              ~recover:(fun () ->
                reopen_instance t i;
                it.ops.Intf.recover ())
          in
          t.last_scrub <- t.last_scrub @ [ r ];
          set_health t i was (Scrub.clean r))
        t.instances
    else plain_recover t
  end
  else begin
    let comp = { t.inner with D.name = "sharded-" ^ t.inner.D.name } in
    if Scrub.scrubbable comp then begin
      let was = Array.map (fun it -> it.healthy) t.instances in
      let r =
        Scrub.run ~tracer:t.tracer ~config:t.inner_config comp
          t.instances.(0).arena
          ~recover:(fun () -> plain_recover t)
      in
      t.last_scrub <- [ r ];
      Array.iteri (fun i _ -> set_health t i was.(i) (Scrub.clean r)) t.instances
    end
    else plain_recover t
  end;
  tx_resolve t

let healthy t = Array.map (fun it -> it.healthy) t.instances

let degraded_stats t =
  Array.map (fun it -> (it.media_errors, it.retries, it.rejected)) t.instances

let scrub_reports t = t.last_scrub

(* Parallel recovery: one simulated thread per shard.  In multi-arena
   mode every arena's yield hook feeds the simulator clock directly;
   in single-arena mode the simulator manages the shared arena. *)
let recover_parallel ?cores t =
  let n = shards t in
  let cores = match cores with Some c -> c | None -> n in
  let bodies =
    Array.mapi
      (fun i it _tid ->
        reopen_instance t i;
        it.ops.Intf.recover ())
      t.instances
  in
  let outcome =
    if t.multi then begin
      Array.iter
        (fun it -> Arena.set_yield_hook it.arena (Some Mcsim.charge))
        t.instances;
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun it -> Arena.set_yield_hook it.arena None) t.instances)
        (fun () -> Mcsim.run ~cores bodies)
    end
    else Mcsim.run ~cores ~arena:t.instances.(0).arena bodies
  in
  t.txs <- None;
  tx_resolve t;
  outcome

(* ------------------------------------------------------------------ *)
(* Composite registry descriptor                                       *)
(* ------------------------------------------------------------------ *)

let ops_of t name =
  Intf.make ~name
    ~insert:(fun k v -> insert t ~key:k ~value:v)
    ~search:(fun k -> search t k)
    ~delete:(fun k -> delete t k)
    ~range:(fun lo hi f -> range t ~lo ~hi f)
    ~recover:(fun () -> recover t)
    ~update:(fun k v -> update t ~key:k ~value:v)
    ~bulk_insert:(fun pairs -> bulk_insert t pairs)
    ~close:(fun () -> close t)
    ~set_tracer:(fun tr ->
      t.tracer <- tr;
      wire_tracer tr t.instances)
    ()

(* ------------------------------------------------------------------ *)
(* Multi-key transactions                                              *)
(* ------------------------------------------------------------------ *)

(* One Tx manager per shard arena in serving mode; in composite mode
   the single arena carries a single log, so one manager routes
   installs through the ensemble's own ops.  Shard transactions always
   stage (deferred writes): a cross-shard global decision must precede
   every in-place install, and a single-shard transaction then commits
   through the same shadow protocol as a degenerate one-participant
   case. *)
let tx_managers t =
  match t.txs with
  | Some a -> a
  | None ->
      let a =
        if t.multi then
          Array.map (fun it -> Tx.create ~path:Tx.Shadow it.arena it.ops)
            t.instances
        else
          [| Tx.create ~path:Tx.Shadow t.instances.(0).arena (ops_of t "tx") |]
      in
      if Trace.enabled t.tracer then Array.iter (fun m -> Tx.set_tracer m t.tracer) a;
      t.txs <- Some a;
      a

type txn = {
  sh : t;
  mutable parts : (int * Tx.tx) list; (* participating shard -> open tx *)
  mutable live : bool;
}

let txn_begin t =
  ignore (tx_managers t);
  { sh = t; parts = []; live = true }

let txn_live x = if not x.live then invalid_arg "Shard.txn: already retired"

let txn_shard_of x k =
  if x.sh.multi then Partition.shard_of x.sh.partition k else 0

let txn_part x k =
  let i = txn_shard_of x k in
  match List.assoc_opt i x.parts with
  | Some p -> p
  | None ->
      let p = Tx.begin_tx (tx_managers x.sh).(i) in
      x.parts <- (i, p) :: x.parts;
      p

let txn_get x k =
  txn_live x;
  match List.assoc_opt (txn_shard_of x k) x.parts with
  | Some p -> Tx.get p k
  | None -> search x.sh k

let txn_put x k v =
  txn_live x;
  Tx.put (txn_part x k) k v

let txn_del x k =
  txn_live x;
  Tx.del (txn_part x k) k

let txn_rollback x =
  txn_live x;
  List.iter (fun (_, p) -> Tx.cancel p) x.parts;
  x.live <- false

(* Commit: single participant commits locally; several run two-phase
   commit with the lowest participating shard as coordinator.  The
   coordinator's commit word is the global decision record; it is
   truncated last, so a prepared participant can always still read the
   decision at recovery. *)
let txn_commit x =
  txn_live x;
  let t = x.sh in
  write_gate t;
  (* Counted from the moment the gate is passed: a global pin raised
     after this point waits for the whole commit (prepare, decide, and
     every per-shard apply) to land before cutting.  No yield point
     separates the gate check from the increment. *)
  t.commits_in_flight <- t.commits_in_flight + 1;
  Fun.protect
    ~finally:(fun () -> t.commits_in_flight <- t.commits_in_flight - 1)
    (fun () ->
      match x.parts with
      | [] -> ()
      | [ (_, p) ] -> Tx.commit p
      | parts ->
          let parts = List.sort (fun (a, _) (b, _) -> compare a b) parts in
          let coord = fst (List.hd parts) in
          let cp = List.assoc coord parts in
          let gtid = t.next_gtid in
          t.next_gtid <- gtid + 1;
          List.iter
            (fun (i, p) -> if i <> coord then Tx.prepare p ~gtid ~coord)
            parts;
          Tx.prepare cp ~gtid ~coord;
          Tx.decide cp;
          List.iter (fun (_, p) -> Tx.apply p) parts;
          List.iter (fun (i, p) -> if i <> coord then Tx.finish p) parts;
          Tx.finish cp);
  x.live <- false

let txn t f =
  let x = txn_begin t in
  match f x with
  | v ->
      txn_commit x;
      Ok v
  | exception Tx.Abort reason ->
      txn_rollback x;
      Error reason
  | exception e ->
      if x.live then txn_rollback x;
      raise e

let tx_stats t =
  let c, a =
    match t.txs with
    | Some ms ->
        Array.fold_left
          (fun (c, a) m -> (c + Tx.commits m, a + Tx.aborts m))
          (0, 0) ms
    | None -> (0, 0)
  in
  (c, a, t.tx_replays)

let descriptor ?(policy = `Hash) ~inner ~shards () =
  check_shards shards;
  let d = Registry.find_exn inner in
  require_shardable d;
  let partition =
    match policy with
    | `Hash -> Partition.hash ~shards
    | `Range bounds ->
        let p = Partition.range ~bounds in
        if Partition.shards p <> shards then
          invalid_arg "Shard.descriptor: bounds imply a different shard count";
        p
  in
  let name = "sharded-" ^ inner in
  {
    D.name;
    summary =
      Printf.sprintf "%d-way sharded %s: partitioned serving layer, merged \
                      range cursor, per-shard recovery" shards d.D.name;
    (* Single-arena composite: every shard shares one root-slot space,
       so per-shard epoch cells / version-store anchors would collide —
       snapshots need serving mode. *)
    caps =
      { d.D.caps with D.relocatable_root = false; D.snapshottable = false };
    composite = Some (inner, shards);
    build = (fun cfg a -> ops_of (build_single ~inner:d ~partition cfg a) name);
    open_existing = (fun cfg a -> ops_of (attach_with d cfg a) name);
  }

(* ------------------------------------------------------------------ *)
(* Composite scrub provider (single-arena ensembles)                   *)
(* ------------------------------------------------------------------ *)

(* All shards of a single-arena ensemble share one heap, so the scrub
   reachability set is the union of every shard's nodes plus the
   persisted partition metadata; scrubbing one shard in isolation
   would misread its siblings' nodes as leaks.  Repair hands the full
   poisoned-line set to each shard's hook — hooks only touch lines in
   nodes they can prove they own, so the passes compose. *)

let round_to_lines w =
  (w + Arena.words_per_line - 1) / Arena.words_per_line * Arena.words_per_line

let composite_scrub inner_name (cfg : D.config) arena =
  let ip =
    match Registry.scrub_provider inner_name with
    | Some p -> p
    | None ->
        invalid_arg
          (Printf.sprintf "Shard: inner '%s' registered no scrub provider"
             inner_name)
  in
  let n = Arena.root_get arena slot_shards in
  if n < 1 || n > max_shards then
    invalid_arg "Shard: arena carries no shard metadata";
  (* Manifest words are read uncharged; if their lines are poisoned the
     values may be garbage, so clamp everything to representable
     ranges — the stranded poison then keeps the report not-clean
     rather than crashing. *)
  let ranged = Arena.root_get arena slot_policy = 1 in
  let clamp_len len = if len < 0 || len >= max_shards then max_shards - 1 else len in
  let slot_map () =
    if not ranged then Array.init n Fun.id
    else begin
      let blk = Arena.root_get arena slot_bounds in
      let len = clamp_len (Arena.peek arena blk) in
      Array.init n (fun i ->
          if i > len then i
          else
            let s = Arena.peek arena (blk + 1 + len + i) in
            if s < 0 || s >= max_shards then i else s)
    end
  in
  let map = slot_map () in
  let hooks = Array.init n (fun i -> ip (shard_config cfg map.(i)) arena) in
  (* Length-prefixed bounds array plus the position-to-slot map for the
     Range policy, reachable as one line-rounded block. *)
  let bounds_block () =
    if ranged then begin
      let blk = Arena.root_get arena slot_bounds in
      let len = clamp_len (Arena.peek arena blk) in
      [ (blk, round_to_lines (1 + len + (len + 1))) ]
    end
    else []
  in
  {
    D.scrub_grain = hooks.(0).D.scrub_grain;
    scrub_reachable =
      (fun () ->
        Array.fold_left
          (fun acc h -> h.D.scrub_reachable () @ acc)
          (bounds_block ()) hooks);
    scrub_repair =
      (fun lines ->
        Array.fold_left
          (fun acc h ->
            let r = h.D.scrub_repair lines in
            {
              D.repaired_lines = acc.D.repaired_lines @ r.D.repaired_lines;
              quarantined_lines = acc.D.quarantined_lines @ r.D.quarantined_lines;
              lost_records = acc.D.lost_records + r.D.lost_records;
            })
          { D.repaired_lines = []; quarantined_lines = []; lost_records = 0 }
          hooks);
    scrub_validate =
      (fun () ->
        List.concat
          (List.mapi
             (fun i h ->
               List.map
                 (Printf.sprintf "shard %d: %s" i)
                 (h.D.scrub_validate ()))
             (Array.to_list hooks)));
  }

let () = Registry.register (descriptor ~inner:"fastfair" ~shards:4 ())
let () = Registry.register_scrub "sharded-fastfair" (composite_scrub "fastfair")
