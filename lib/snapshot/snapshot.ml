(* MVCC epoch snapshots over any registry index.

   The wrapper interposes on every mutation of an inner structure and
   maintains a persistent *version store* beside it: one key entry per
   ever-written key, each anchoring a prepend-only chain of superseded
   versions.  Snapshot reads resolve strictly as-of a published epoch
   (Ff_pmem.Epoch) while writers proceed on the live tree.

   Version-store layout (all blocks are one 8-word cache line unless
   noted; the base address is anchored in root slot 66, written last so
   a crash before the anchor leaves only unreachable garbage):

     header block   [magic; gc_floor; buckets; ...] followed by
                    [buckets] hash-chain head words (line-rounded)
     key entry      [key; begin_epoch; chain; next_key; 0...]
     version record [value; begin_epoch; end_epoch; next; 0...]

   A record [v; b; e) means "the key held [v] from epoch [b] up to but
   not including epoch [e]".  The entry's [begin_epoch] is the epoch at
   which the inner structure's *current* state for the key became
   current, so resolution at snapshot epoch [s] is:

     - some chain record covers [s]           -> that record's value
     - entry.begin <= s                       -> the inner's live answer
     - entry.begin > s, no record covers [s]  -> absent at [s]

   Write protocol for a mutation of key [k] at working epoch
   [w = published + 1]:

     1. find or create the key entry (entry line persisted and fenced
        before the bucket head word links it — crash leaves a leak,
        never a dangling pointer);
     2. if entry.begin < w and the inner currently holds [v_old],
        persist a record [v_old; begin; w) and fence it *before*
        linking it at the chain head and advancing entry.begin to [w];
     3. perform the inner mutation.

   Every prefix of that order is crash-consistent: the chain and
   [begin_epoch] always agree with the inner's durable state about
   what was current at every published epoch.  Inside a group-flush
   scope (the shadow-transaction apply path and shard batches) the
   wrapper's fences are elided — the scope's closing fence is the
   durability point, and [snapshot_begin] refuses to pin while a scope
   is open, so a snapshot can never observe half a transaction. *)

module Arena = Ff_pmem.Arena
module Epoch = Ff_pmem.Epoch
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module Trace = Ff_trace.Trace
module Mcsim = Ff_mcsim.Mcsim

let magic = 0x534E4150 (* "SNAP" *)
let slot_anchor = 66
let line = Arena.words_per_line

(* Global fault-injection switch for the model checker's must-fail
   anchor: read the live tree instead of the pinned epoch.  Test-only;
   reaches registry-built instances that are only visible as ops. *)
let mutant_read_latest = ref false

type sites = { publish : int; read : int; gc : int; backup : int }

type t = {
  arena : Arena.t;
  inner : Intf.ops;
  base : int;    (* header block address *)
  buckets : int;
  cache : (int, int) Hashtbl.t;  (* key -> entry address (volatile) *)
  pins : (int, int) Hashtbl.t;   (* epoch -> pin count (volatile) *)
  mutable floor : int;           (* volatile mirror of the GC floor *)
  mutable in_flight : int;
  mutable readers : int;
  mutable publishing : bool;
  mutable tracer : (Trace.t * sites) option;
}

let inner t = t.inner
let arena t = t.arena
let gc_floor t = t.floor

let site_enter t which =
  match t.tracer with
  | Some (tr, s) ->
      Trace.site_enter tr
        (match which with
        | `Publish -> s.publish
        | `Read -> s.read
        | `Gc -> s.gc
        | `Backup -> s.backup)
  | None -> ()

let site_exit t =
  match t.tracer with Some (tr, _) -> Trace.site_exit tr | None -> ()

let set_tracer t tr =
  t.inner.Intf.set_tracer tr;
  if Trace.enabled tr then
    t.tracer <-
      Some
        ( tr,
          {
            publish = Trace.intern tr "snap_publish";
            read = Trace.intern tr "snap_read";
            gc = Trace.intern tr "snap_gc";
            backup = Trace.intern tr "snap_backup";
          } )

(* ------------------------------------------------------------------ *)
(* Version-store primitives                                            *)
(* ------------------------------------------------------------------ *)

let dir_words buckets = (buckets + line - 1) / line * line
let header_words buckets = line + dir_words buckets

let bucket_of t k = t.base + line + (k * 2654435761 land max_int) mod t.buckets

(* Inside a group-flush scope the closing fence is the durability
   point; the protocol's per-step fences are elided there (same crash
   semantics as the batch executor's). *)
let fence_unless_group t =
  if not (Arena.in_group t.arena) then Arena.fence t.arena

let rebuild_cache t =
  Hashtbl.reset t.cache;
  for b = 0 to t.buckets - 1 do
    let e = ref (Arena.read t.arena (t.base + line + b)) in
    while !e <> 0 do
      Hashtbl.replace t.cache (Arena.read t.arena !e) !e;
      e := Arena.read t.arena (!e + 3)
    done
  done;
  t.floor <- Arena.read t.arena (t.base + 1)

(* Hash chains in a fresh version store; the count is persisted in
   the header, so [attach] reads it back. *)
let buckets = 64

let create arena inner =
  let base = Arena.alloc arena (header_words buckets) in
  Arena.write arena base magic;
  Arena.write arena (base + 1) 0;
  Arena.write arena (base + 2) buckets;
  Arena.flush_range arena base (header_words buckets);
  Arena.fence arena;
  (* Anchor last: a crash before this store leaves the old image (or
     no version store at all), never a torn header. *)
  Arena.root_set arena slot_anchor base;
  {
    arena;
    inner;
    base;
    buckets;
    cache = Hashtbl.create 256;
    pins = Hashtbl.create 8;
    floor = 0;
    in_flight = 0;
    readers = 0;
    publishing = false;
    tracer = None;
  }

let attach arena inner =
  let base = Arena.root_get arena slot_anchor in
  if base = 0 || Arena.read arena base <> magic then
    invalid_arg "Snapshot.attach: arena carries no version store";
  let t =
    {
      arena;
      inner;
      base;
      buckets = Arena.read arena (base + 2);
      cache = Hashtbl.create 256;
      pins = Hashtbl.create 8;
      floor = 0;
      in_flight = 0;
      readers = 0;
      publishing = false;
      tracer = None;
    }
  in
  rebuild_cache t;
  t

let recover t =
  t.inner.Intf.recover ();
  t.in_flight <- 0;
  t.readers <- 0;
  t.publishing <- false;
  rebuild_cache t

(* ------------------------------------------------------------------ *)
(* Write path                                                          *)
(* ------------------------------------------------------------------ *)

let create_entry t k b =
  let head = bucket_of t k in
  let e = Arena.alloc t.arena line in
  Arena.write t.arena e k;
  Arena.write t.arena (e + 1) b;
  Arena.write t.arena (e + 3) (Arena.read t.arena head);
  Arena.flush_range t.arena e line;
  fence_unless_group t;
  Arena.write t.arena head e;
  Arena.flush t.arena head;
  fence_unless_group t;
  Hashtbl.replace t.cache k e;
  e

(* Preserve the inner's current state for [k] before a mutation at
   working epoch [w]: append the superseded value (if any) as a fully
   persisted record, then advance [begin_epoch].  The record is fenced
   before the head link, and the head link and [begin_epoch] share the
   entry line, so no crash point can orphan a span. *)
let preserve t e k w =
  let b = Arena.read t.arena (e + 1) in
  if b < w then begin
    (match t.inner.Intf.search k with
    | Some v_old ->
        let r = Arena.alloc t.arena line in
        Arena.write t.arena r v_old;
        Arena.write t.arena (r + 1) b;
        Arena.write t.arena (r + 2) w;
        Arena.write t.arena (r + 3) (Arena.read t.arena (e + 2));
        Arena.flush_range t.arena r line;
        fence_unless_group t;
        Arena.write t.arena (e + 2) r
    | None -> ());
    Arena.write t.arena (e + 1) w;
    Arena.flush t.arena e;
    fence_unless_group t
  end

(* Every mutation runs between [enter]/[leave] so a publisher can
   quiesce: new writers stall while an epoch is being published, and
   publication waits until in-flight writers drain.  Every wait here is
   an [Mcsim.await] on volatile fields, never a spin: under a priority
   scheduler a spinner starves the thread it waits for.  [await]
   returns with its condition true and no yield point before the
   counter update, so check-then-increment is atomic. *)
let enter t =
  Mcsim.await (fun () -> not t.publishing);
  t.in_flight <- t.in_flight + 1

let leave t = t.in_flight <- t.in_flight - 1

let mutate t k f =
  if k < 1 then
    invalid_arg
      (Printf.sprintf
         "Snapshot: key %d outside the positive key domain (Intf contract)" k);
  enter t;
  Fun.protect
    ~finally:(fun () -> leave t)
    (fun () ->
      let w = Epoch.current t.arena + 1 in
      (match Hashtbl.find_opt t.cache k with
      | Some e -> preserve t e k w
      | None ->
          (* A missing entry is not proof of a missing pre-image: GC
             unlinks entries whose whole history the live tree already
             answers, yet epochs >= floor stay pinnable.  The live value
             of such a key has been current since before the floor (any
             later write would have re-created the entry), so re-anchor
             it at the floor and preserve it like any other
             supersession — a pin in [floor, w) keeps its read. *)
          if t.inner.Intf.search k = None then ignore (create_entry t k w)
          else preserve t (create_entry t k t.floor) k w);
      f ())

(* ------------------------------------------------------------------ *)
(* Snapshot reads                                                      *)
(* ------------------------------------------------------------------ *)

let chain_find t e s =
  let rec walk r =
    if r = 0 then None
    else
      let b = Arena.read t.arena (r + 1) and en = Arena.read t.arena (r + 2) in
      if b <= s && s < en then Some (Arena.read t.arena r)
      else walk (Arena.read t.arena (r + 3))
  in
  walk (Arena.read t.arena (e + 2))

(* Readers hold a slot so the collector can quiesce them: [gc_before]
   unlinks and [Arena.free]s version lines, and a reader mid-walk must
   never keep a pointer into a line being recycled.  The slot is gated
   on the same [publishing] flag as writers, with the same atomic
   await-then-increment.  The floor check lives *inside* the slot —
   checking it before the gate would let a concurrent gc collect the
   epoch between the check and the walk. *)
let reader_enter t =
  Mcsim.await (fun () -> not t.publishing);
  t.readers <- t.readers + 1

let reader_leave t = t.readers <- t.readers - 1

let check_floor t s which =
  if s < t.floor then
    invalid_arg
      (Printf.sprintf "Snapshot.%s: epoch %d below GC floor %d" which s t.floor)

(* Resolution races with the write protocol only through the inner
   search: a writer may supersede the live value after we chose the
   live path.  Every such write advances [begin_epoch] *before* the
   inner mutation, so re-reading it detects the race and the retry
   finds the preserved record.  The caller holds a reader slot. *)
let rec resolve_at t s k =
  match Hashtbl.find_opt t.cache k with
  | None -> (
      (* Never written through the wrapper: content that predates the
         version store is visible at every epoch.  The inner search
         yields, and a writer may create the key's entry and mutate
         the inner meanwhile (the entry is cached before the inner
         changes), so an entry that appeared during the search means
         the live answer may postdate [s]: resolve through it. *)
      let r = t.inner.Intf.search k in
      match Hashtbl.find_opt t.cache k with
      | None -> r
      | Some _ -> resolve_at t s k)
  | Some e ->
      let rec resolve () =
        match chain_find t e s with
        | Some v -> Some v
        | None ->
            let b = Arena.read t.arena (e + 1) in
            if b > s then
              (* The span covering [s] (if any) was linked before
                 [begin_epoch] advanced past [s]; one re-walk sees it. *)
              chain_find t e s
            else
              let r = t.inner.Intf.search k in
              if Arena.read t.arena (e + 1) <> b then resolve () else r
      in
      resolve ()

let read_at t s k =
  if !mutant_read_latest then t.inner.Intf.search k
  else begin
    reader_enter t;
    Fun.protect ~finally:(fun () -> reader_leave t) @@ fun () ->
    check_floor t s "read_at";
    site_enter t `Read;
    Fun.protect ~finally:(fun () -> site_exit t) @@ fun () -> resolve_at t s k
  end

let range_at t s lo hi f =
  if !mutant_read_latest then t.inner.Intf.range lo hi f
  else begin
    (* Candidates: every key the live tree holds in the window plus
       every key the version store has ever seen there (covers keys
       deleted since [s]).  The cache fold touches no arena word, so it
       is atomic under the simulator.  Per-key resolution then goes
       through [read_at], taking one reader slot per key — [f] runs
       outside any slot, so a backup's between-chunk writes cannot
       deadlock against a concurrent collector. *)
    let keys =
      reader_enter t;
      Fun.protect ~finally:(fun () -> reader_leave t) @@ fun () ->
      check_floor t s "range_at";
      let seen = Hashtbl.create 64 in
      t.inner.Intf.range lo hi (fun k _ -> Hashtbl.replace seen k ());
      Hashtbl.iter
        (fun k _ -> if k >= lo && k <= hi then Hashtbl.replace seen k ())
        t.cache;
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])
    in
    List.iter
      (fun k -> match read_at t s k with Some v -> f k v | None -> ())
      keys
  end

(* ------------------------------------------------------------------ *)
(* Publication                                                         *)
(* ------------------------------------------------------------------ *)

let snapshot_begin t at =
  Mcsim.await (fun () -> not t.publishing);
  t.publishing <- true;
  Fun.protect
    ~finally:(fun () -> t.publishing <- false)
    (fun () ->
      (* Quiesce: wait out in-flight writers and any open group-flush
         scope (a shadow-transaction apply or a shard batch), so the
         pinned epoch sits on an operation boundary. *)
      Mcsim.await (fun () -> t.in_flight = 0 && not (Arena.in_group t.arena));
      let c = Epoch.current t.arena in
      if at > 0 && c = at then
        (* Already pinned at the coordinator's epoch — a retried call
           (a transient fault can hit between the publish and the
           return) must succeed idempotently, not publish past the
           agreed epoch. *)
        at
      else if at > 0 && c > at then
        invalid_arg
          (Printf.sprintf
             "Snapshot.snapshot_begin: published epoch %d already beyond \
              requested pin %d" c at)
      else begin
        let e = max at (c + 1) in
        site_enter t `Publish;
        Fun.protect ~finally:(fun () -> site_exit t) @@ fun () ->
        Epoch.publish t.arena e;
        e
      end)

(* ------------------------------------------------------------------ *)
(* Epoch-based GC                                                      *)
(* ------------------------------------------------------------------ *)

(* Reclaim everything only reachable from epochs below [e]: version
   records whose span ends at or before [e], and entries that carry no
   history beyond what the live tree already answers.  Runs exclusive
   with writers (same gate as publication) and persists the new floor
   *first*, so a crash mid-reclamation can never let a later re-pin
   read a half-collected epoch. *)
let gc_before t e =
  Mcsim.await (fun () -> not t.publishing);
  t.publishing <- true;
  Fun.protect
    ~finally:(fun () -> t.publishing <- false)
    (fun () ->
      (* Quiesce readers as well as writers: a reader mid-chain-walk
         must not hold a pointer into a record this pass is about to
         unlink and free (the line could be reallocated under it). *)
      Mcsim.await (fun () ->
          t.in_flight = 0 && t.readers = 0 && not (Arena.in_group t.arena));
      site_enter t `Gc;
      Fun.protect ~finally:(fun () -> site_exit t) @@ fun () ->
      let freed = ref 0 in
      if e > t.floor then begin
        Arena.write t.arena (t.base + 1) e;
        Arena.flush t.arena (t.base + 1);
        Arena.fence t.arena;
        t.floor <- e;
        for b = 0 to t.buckets - 1 do
          let head = t.base + line + b in
          (* Prune each entry's chain, then unlink entries that no
             longer distinguish any pinnable epoch from the live tree.
             [prev] is the word holding the link under inspection, so
             unlinking is one store + flush + fence in either list. *)
          let prev = ref head in
          while Arena.read t.arena !prev <> 0 do
            let entry = Arena.read t.arena !prev in
            let vprev = ref (entry + 2) in
            while Arena.read t.arena !vprev <> 0 do
              let r = Arena.read t.arena !vprev in
              if Arena.read t.arena (r + 2) <= e then begin
                Arena.write t.arena !vprev (Arena.read t.arena (r + 3));
                Arena.flush t.arena !vprev;
                Arena.fence t.arena;
                Arena.free t.arena r line;
                incr freed
              end
              else vprev := r + 3
            done;
            if
              Arena.read t.arena (entry + 2) = 0
              && Arena.read t.arena (entry + 1) <= e
            then begin
              let k = Arena.read t.arena entry in
              Arena.write t.arena !prev (Arena.read t.arena (entry + 3));
              Arena.flush t.arena !prev;
              Arena.fence t.arena;
              Arena.free t.arena entry line;
              Hashtbl.remove t.cache k;
              incr freed
            end
            else prev := entry + 3
          done
        done
      end;
      !freed)

(* ------------------------------------------------------------------ *)
(* Pinned snapshot handles                                             *)
(* ------------------------------------------------------------------ *)

type snap = { st : t; epoch : int; mutable live : bool }

let pin t e =
  Hashtbl.replace t.pins e (1 + Option.value ~default:0 (Hashtbl.find_opt t.pins e))

let take t =
  let e = snapshot_begin t 0 in
  pin t e;
  { st = t; epoch = e; live = true }

let at t ~epoch =
  if epoch < 1 || epoch > Epoch.current t.arena then
    invalid_arg
      (Printf.sprintf "Snapshot.at: epoch %d was never published (current %d)"
         epoch (Epoch.current t.arena));
  if epoch < t.floor then
    invalid_arg
      (Printf.sprintf "Snapshot.at: epoch %d already collected (GC floor %d)"
         epoch t.floor);
  pin t epoch;
  { st = t; epoch; live = true }

let epoch s = s.epoch

let check_live s =
  if not s.live then invalid_arg "Snapshot: handle already released"

let get s k =
  check_live s;
  read_at s.st s.epoch k

let range s ~lo ~hi f =
  check_live s;
  range_at s.st s.epoch lo hi f

let release s =
  if s.live then begin
    s.live <- false;
    match Hashtbl.find_opt s.st.pins s.epoch with
    | Some 1 -> Hashtbl.remove s.st.pins s.epoch
    | Some n -> Hashtbl.replace s.st.pins s.epoch (n - 1)
    | None -> ()
  end

let min_pinned t = Hashtbl.fold (fun e _ acc -> min e acc) t.pins max_int

let gc t =
  let upto =
    match min_pinned t with
    | m when m = max_int -> Epoch.current t.arena + 1
    | m -> m
  in
  gc_before t upto

(* ------------------------------------------------------------------ *)
(* Online backup                                                       *)
(* ------------------------------------------------------------------ *)

(* Stream a pinned epoch into a destination index in chunks; [between]
   runs after every chunk lands, which is where a live source keeps
   serving traffic (writers race the stream — the pinned epoch is what
   makes the copy consistent anyway). *)
let backup t ~epoch ~dest ?(chunk = 512) ?(between = fun () -> ()) () =
  site_enter t `Backup;
  Fun.protect ~finally:(fun () -> site_exit t) @@ fun () ->
  let buf = ref [] and n = ref 0 and total = ref 0 in
  let flush_buf () =
    if !buf <> [] then begin
      dest.Intf.bulk_insert (Array.of_list (List.rev !buf));
      buf := [];
      n := 0;
      between ()
    end
  in
  (* [mutate] rejects non-positive keys (the Intf contract), so the
     scan over [1, max_int] provably covers every key the wrapped
     index can hold — the copy cannot silently omit records. *)
  range_at t epoch 1 max_int (fun k v ->
      buf := (k, v) :: !buf;
      incr n;
      incr total;
      if !n >= chunk then flush_buf ());
  flush_buf ();
  !total

(* ------------------------------------------------------------------ *)
(* Registry surface: wrapped ops and the snap-fastfair descriptor      *)
(* ------------------------------------------------------------------ *)

let ops_of t name =
  Intf.make ~name
    ~insert:(fun k v -> mutate t k (fun () -> t.inner.Intf.insert k v))
    ~search:t.inner.Intf.search
    ~delete:(fun k -> mutate t k (fun () -> t.inner.Intf.delete k))
    ~range:t.inner.Intf.range
    ~recover:(fun () -> recover t)
    ~update:(fun k v -> mutate t k (fun () -> t.inner.Intf.update k v))
    ~bulk_insert:(fun pairs ->
      Array.iter (fun (k, v) -> mutate t k (fun () -> t.inner.Intf.insert k v)) pairs)
    ~close:t.inner.Intf.close
    ~set_tracer:(fun tr -> set_tracer t tr)
    ~read_for_update:t.inner.Intf.read_for_update
    ~install:(fun k post -> mutate t k (fun () -> t.inner.Intf.install k post))
    ~snapshot_begin:(fun at -> snapshot_begin t at)
    ~read_at:(fun e k -> read_at t e k)
    ~range_at:(fun e lo hi f -> range_at t e lo hi f)
    ~gc_before:(fun e -> gc_before t e)
    ()

(* Scrub integration: the version store's blocks join the reachability
   set (so the leak oracle covers GC'd lines), poisoned version lines
   are quarantined with counted loss, and validation checks the chain
   invariants.  Inner-structure lines go through the inner provider. *)
let scrub_hooks inner_name cfg arena =
  let ip =
    match Registry.scrub_provider inner_name with
    | Some p -> p cfg arena
    | None ->
        invalid_arg
          (Printf.sprintf "Snapshot: inner '%s' registered no scrub provider"
             inner_name)
  in
  let base = Arena.root_get arena slot_anchor in
  let in_arena a = a >= Arena.reserved_words && a < Arena.capacity arena in
  let header_ok () = base <> 0 && Arena.peek arena base = magic in
  let buckets () = Arena.peek arena (base + 2) in
  let vstore_blocks () =
    if not (header_ok ()) then []
    else begin
      let acc = ref [ (base, header_words (buckets ())) ] in
      for b = 0 to buckets () - 1 do
        let e = ref (Arena.peek arena (base + line + b)) in
        while in_arena !e do
          acc := (!e, line) :: !acc;
          let r = ref (Arena.peek arena (!e + 2)) in
          while in_arena !r do
            acc := (!r, line) :: !acc;
            r := Arena.peek arena (!r + 3)
          done;
          e := Arena.peek arena (!e + 3)
        done
      done;
      !acc
    end
  in
  let owns lines addr = List.mem (addr / line) lines in
  let repair lines =
    let ir = ip.D.scrub_repair lines in
    if not (header_ok ()) then ir
    else begin
      (* Quarantine damaged version history: unlink any entry or record
         whose line is poisoned (links out of a scrambled line cannot be
         trusted), then zero the line so the poison clears.  The live
         tree is untouched; lost spans are counted. *)
      let quarantined = ref [] and lost = ref 0 in
      let zero addr =
        for i = addr to addr + line - 1 do
          Arena.write arena i 0
        done;
        Arena.flush_range arena addr line;
        Arena.fence arena;
        quarantined := (addr / line) :: !quarantined;
        incr lost
      in
      for b = 0 to buckets () - 1 do
        let prev = ref (base + line + b) in
        while
          let e = Arena.peek arena !prev in
          in_arena e
        do
          let e = Arena.peek arena !prev in
          if owns lines e then begin
            Arena.write arena !prev (Arena.peek arena (e + 3));
            Arena.flush arena !prev;
            Arena.fence arena;
            zero e
          end
          else begin
            let vprev = ref (e + 2) in
            while
              let r = Arena.peek arena !vprev in
              in_arena r
            do
              let r = Arena.peek arena !vprev in
              if owns lines r then begin
                Arena.write arena !vprev (Arena.peek arena (r + 3));
                Arena.flush arena !vprev;
                Arena.fence arena;
                zero r
              end
              else vprev := r + 3
            done;
            prev := e + 3
          end
        done
      done;
      {
        D.repaired_lines = ir.D.repaired_lines;
        quarantined_lines = ir.D.quarantined_lines @ List.rev !quarantined;
        lost_records = ir.D.lost_records + !lost;
      }
    end
  in
  let validate () =
    let iv = ip.D.scrub_validate () in
    if not (header_ok ()) then iv @ [ "snapshot: version store header damaged" ]
    else begin
      let errs = ref [] in
      let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
      for b = 0 to buckets () - 1 do
        let e = ref (Arena.peek arena (base + line + b)) in
        while !e <> 0 do
          if not (in_arena !e) then begin
            err "snapshot: bucket %d entry link %d out of bounds" b !e;
            e := 0
          end
          else begin
            let r = ref (Arena.peek arena (!e + 2)) in
            while !r <> 0 do
              if not (in_arena !r) then begin
                err "snapshot: key %d version link %d out of bounds"
                  (Arena.peek arena !e) !r;
                r := 0
              end
              else begin
                if Arena.peek arena (!r + 1) >= Arena.peek arena (!r + 2) then
                  err "snapshot: key %d record [%d,%d) is an empty span"
                    (Arena.peek arena !e)
                    (Arena.peek arena (!r + 1))
                    (Arena.peek arena (!r + 2));
                r := Arena.peek arena (!r + 3)
              end
            done;
            e := Arena.peek arena (!e + 3)
          end
        done
      done;
      iv @ List.rev !errs
    end
  in
  {
    D.scrub_grain = ip.D.scrub_grain;
    scrub_reachable = (fun () -> vstore_blocks () @ ip.D.scrub_reachable ());
    scrub_repair = repair;
    scrub_validate = validate;
  }

let descriptor_over inner_name =
  let d = Registry.find_exn inner_name in
  let name = "snap-" ^ inner_name in
  {
    D.name;
    summary =
      Printf.sprintf
        "MVCC epoch snapshots over %s: pinned time-travel reads, \
         version-chain GC, online backup" d.D.name;
    caps =
      {
        d.D.caps with
        D.snapshottable = true;
        (* The version store anchors at fixed root slots (64/66). *)
        relocatable_root = false;
        scrubbable = d.D.caps.D.scrubbable;
      };
    composite = None;
    build =
      (fun cfg arena -> ops_of (create arena (d.D.build cfg arena)) name);
    open_existing =
      (fun cfg arena ->
        ops_of (attach arena (d.D.open_existing cfg arena)) name);
  }

let () =
  Registry.register (descriptor_over "fastfair");
  Registry.register_scrub "snap-fastfair" (scrub_hooks "fastfair")
