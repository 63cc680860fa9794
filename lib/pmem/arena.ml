module Prng = Ff_util.Prng

exception Crashed
exception Media_error of int

type crash_plan = Never | After_stores of int | After_flushes of int

type fault_kind = Fault_poison | Fault_flip | Fault_stuck

type fault = { fault_kind : fault_kind; fault_addr : int; fault_index : int }

type fault_plan = {
  fault_seed : int;
  poison_lines : int;
  flip_words : int;
  stuck_words : int;
}

type fault_stats = {
  poisoned : int;
  flipped : int;
  stuck : int;
  media_error_reads : int;
}

type event_sink = {
  ev_store : int -> unit;
  ev_flush : int -> unit;
  ev_fence : unit -> unit;
  ev_alloc : int -> int -> unit;
  ev_free : int -> int -> unit;
  ev_crash : unit -> unit;
}

let words_per_line = 8

(* Root/metadata slot map (one word each):
     0-55   shard inner roots (shard i at 2i, 2i+1; up to 28 shards)
     56-57  transaction log region (Txlog)
     58-60  shard manifest
     61-63  registry root-slot manifest
     64     published snapshot epoch cell (Epoch)
     65     cross-shard global snapshot decision word
     66-67  snapshot version-store anchor
     68-70  rebalance generation / decision word / plan-block pointer
     71     replication term/role word (Cluster)
     72     replication applied-seqno high-water (Cluster)
     73     replication epoch-of-resync marker (Cluster)
     74-79  unassigned (the window stays line-aligned) *)
let reserved_words = 80

type ctx = { cache : Cachesim.t; stats : Stats.t }

let new_ctx config =
  { cache = Cachesim.create ~capacity:config.Config.cache_lines; stats = Stats.create () }

type t = {
  config : Config.t;
  (* What the CPU sees; the persisted state is this image rolled back
     through [log]. *)
  image : int array;
  log : Storelog.t;
  (* A thread's context is built on its first use: most arenas only
     ever run tid 0. *)
  ctxs : ctx option array;
  mutable cur : int;
  mutable ctx : ctx; (* the context of [cur] *)
  mutable epoch : int;
  mutable stores : int;
  mutable flushes : int;
  mutable plan : crash_plan;
  mutable yield_hook : (int -> unit) option;
  mutable sink : event_sink option;
  mutable group : bool;
  mutable elide_flush : bool;
  mutable bump : int;
  free_lists : (int, int list) Hashtbl.t;
  (* Allocator hardening: [live_blocks] maps every outstanding
     allocation (addr -> rounded words); [free_set] mirrors the free
     lists keyed by address so double frees are O(1) to detect. *)
  live_blocks : (int, int) Hashtbl.t;
  free_set : (int, int) Hashtbl.t;
  (* Media-fault state: poisoned lines raise on charged reads.  The
     table survives power failures (media damage is persistent) and is
     only cleared by an overwriting store or an explicit repair. *)
  poison : (int, unit) Hashtbl.t;
  mutable poison_n : int;
  mutable fplan : fault_plan option;
  mutable injected : fault list; (* newest first *)
  mutable fs_poisoned : int;
  mutable fs_flipped : int;
  mutable fs_stuck : int;
  mutable fs_media_reads : int;
}

let round_to_lines words = (words + words_per_line - 1) / words_per_line * words_per_line

(* The fresh state that [create], [clone] and [load_from_file] start from. *)
let make config ~image =
  let ctx = new_ctx config in
  let ctxs = Array.make config.Config.max_threads None in
  ctxs.(0) <- Some ctx;
  {
    config;
    image;
    log = Storelog.create ();
    ctxs;
    cur = 0;
    ctx;
    epoch = 0;
    stores = 0;
    flushes = 0;
    plan = Never;
    yield_hook = None;
    sink = None;
    group = false;
    elide_flush = false;
    bump = reserved_words;
    free_lists = Hashtbl.create 8;
    live_blocks = Hashtbl.create 64;
    free_set = Hashtbl.create 8;
    poison = Hashtbl.create 4;
    poison_n = 0;
    fplan = None;
    injected = [];
    fs_poisoned = 0;
    fs_flipped = 0;
    fs_stuck = 0;
    fs_media_reads = 0;
  }

let create ?(config = Config.default) ~words () =
  let words = round_to_lines words in
  make config ~image:(Array.make words 0)

let config t = t.config
let capacity t = Array.length t.image

let set_tid t tid =
  assert (tid >= 0 && tid < Array.length t.ctxs);
  let ctx =
    match t.ctxs.(tid) with
    | Some c -> c
    | None ->
        let c = new_ctx t.config in
        t.ctxs.(tid) <- Some c;
        c
  in
  t.cur <- tid;
  t.ctx <- ctx

let tid t = t.cur
let stats t tid = match t.ctxs.(tid) with Some c -> c.stats | None -> Stats.create ()
let iter_ctxs t f = Array.iter (Option.iter f) t.ctxs

let total_stats t =
  let acc = Stats.create () in
  iter_ctxs t (fun c -> Stats.add acc c.stats);
  acc

let elapsed_ns t =
  let ns = ref 0 in
  for i = 0 to Array.length t.ctxs - 1 do
    match t.ctxs.(i) with Some c -> ns := !ns + Stats.total_ns c.stats | None -> ()
  done;
  !ns

let reset_stats t = iter_ctxs t (fun c -> Stats.reset c.stats)

let set_phase t phase = t.ctx.stats.Stats.phase <- phase

let set_yield_hook t hook = t.yield_hook <- hook
let set_event_sink t sink = t.sink <- sink
let event_sink t = t.sink

(* Charge [ns] to the current phase bucket and run the yield hook. *)
let charge t ns =
  let s = t.ctx.stats in
  (match s.Stats.phase with
  | Stats.Search -> s.Stats.search_ns <- s.Stats.search_ns + ns
  | Stats.Update -> s.Stats.update_ns <- s.Stats.update_ns + ns
  | Stats.Other -> s.Stats.other_ns <- s.Stats.other_ns + ns);
  match t.yield_hook with None -> () | Some f -> f ns

let charge_flush t ns =
  let s = t.ctx.stats in
  s.Stats.flush_ns <- s.Stats.flush_ns + ns;
  match t.yield_hook with None -> () | Some f -> f ns

let charge_fence t ns =
  let s = t.ctx.stats in
  s.Stats.fence_ns <- s.Stats.fence_ns + ns;
  match t.yield_hook with None -> () | Some f -> f ns

let line_of addr = addr / words_per_line

let check addr t =
  if addr < 0 || addr >= Array.length t.image then
    invalid_arg (Printf.sprintf "Arena: address %d out of bounds" addr)

let read t addr =
  check addr t;
  let ctx = t.ctx in
  let s = ctx.stats in
  s.Stats.loads <- s.Stats.loads + 1;
  let cfg = t.config in
  (match Cachesim.access ctx.cache (line_of addr) with
  | Cachesim.Hit ->
      s.Stats.line_hits <- s.Stats.line_hits + 1;
      charge t cfg.Config.l1_hit_ns
  | Cachesim.Miss ->
      s.Stats.line_misses <- s.Stats.line_misses + 1;
      charge t cfg.Config.read_latency_ns
  | Cachesim.Seq_miss ->
      s.Stats.line_misses <- s.Stats.line_misses + 1;
      s.Stats.seq_misses <- s.Stats.seq_misses + 1;
      charge t (cfg.Config.read_latency_ns / cfg.Config.mlp_factor));
  (* A poisoned line surfaces as an uncorrectable media error on the
     charged load path; the cost of the access has already been paid,
     as on real hardware where the MCE follows the stalled load. *)
  if t.poison_n > 0 && Hashtbl.mem t.poison (line_of addr) then begin
    t.fs_media_reads <- t.fs_media_reads + 1;
    raise (Media_error addr)
  end;
  t.image.(addr)

let maybe_crash_on_store t =
  match t.plan with
  | After_stores k when t.stores >= k -> raise Crashed
  | Never | After_stores _ | After_flushes _ -> ()

let maybe_crash_on_flush t =
  match t.plan with
  | After_flushes k when t.flushes >= k -> raise Crashed
  | Never | After_stores _ | After_flushes _ -> ()

let write t addr v =
  check addr t;
  maybe_crash_on_store t;
  (match t.sink with None -> () | Some s -> s.ev_store addr);
  t.stores <- t.stores + 1;
  let ctx = t.ctx in
  let s = ctx.stats in
  s.Stats.stores <- s.Stats.stores + 1;
  let undo = t.image.(addr) in
  t.image.(addr) <- v;
  let line = line_of addr in
  (* Overwriting a poisoned line repairs it (the model's analogue of a
     full-line write clearing the platform poison bit). *)
  if t.poison_n > 0 && Hashtbl.mem t.poison line then begin
    Hashtbl.remove t.poison line;
    t.poison_n <- t.poison_n - 1
  end;
  (* Write-allocate: the line is resident after the store. *)
  ignore (Cachesim.access ctx.cache line);
  Storelog.record t.log ~addr ~value:v ~undo ~line ~epoch:t.epoch;
  charge t t.config.Config.store_ns

let fence t =
  (match t.sink with None -> () | Some s -> s.ev_fence ());
  let s = t.ctx.stats in
  s.Stats.fences <- s.Stats.fences + 1;
  t.epoch <- t.epoch + 1;
  charge_fence t t.config.Config.fence_ns

let fence_if_not_tso t =
  match t.config.Config.memory_order with
  | Config.Tso -> ()
  | Config.Non_tso -> fence t

let flush t addr =
  check addr t;
  maybe_crash_on_flush t;
  (match t.sink with None -> () | Some s -> s.ev_flush addr);
  t.flushes <- t.flushes + 1;
  let s = t.ctx.stats in
  s.Stats.flushes <- s.Stats.flushes + 1;
  (* Fault injection: an elided flush performs all the accounting of a
     real one (events, counters, cost, epoch) but leaves the stores in
     the volatile cache — the bug pattern of a forgotten clflush. *)
  if not t.elide_flush then Storelog.flush_line t.log (line_of addr);
  if t.group then
    (* Group-flush scope: the line is written back asynchronously
       ([clwb]), so no fence is implied and the write latency overlaps
       with other in-flight write-backs at the MLP discount.  The
       line's stores persist immediately, which is a legal (and
       conservative) TSO state — durability is only *guaranteed* at the
       closing [group_end] fence, so crash semantics are unchanged. *)
    charge_flush t
      (max 1 (t.config.Config.write_latency_ns / t.config.Config.mlp_factor))
  else begin
    s.Stats.fences <- s.Stats.fences + 1;
    t.epoch <- t.epoch + 1;
    charge_flush t t.config.Config.write_latency_ns
  end

let flush_range t addr words =
  let first = line_of addr and last = line_of (addr + words - 1) in
  for line = first to last do
    flush t (line * words_per_line)
  done

let cpu_work t ns = charge t ns

(* Group flush: batch executors bracket a run of operations so that
   every flush inside the scope behaves like [clwb] (see [flush]); the
   closing fence is the batch's single durability point. *)

let group_begin t =
  if t.group then invalid_arg "Arena.group_begin: group-flush scope already open";
  t.group <- true

let group_end t =
  if not t.group then invalid_arg "Arena.group_end: no group-flush scope open";
  t.group <- false;
  fence t

let in_group t = t.group

let peek t addr =
  check addr t;
  t.image.(addr)

let peek_persisted t addr =
  check addr t;
  Storelog.persisted t.log ~image:t.image ~line:(line_of addr) addr

(* Allocation: line-aligned bump pointer with per-size free lists.
   Allocator metadata is volatile; recovery re-derives reachability
   (see DESIGN.md). *)

let alloc_raw t words =
  let words = round_to_lines (max words 1) in
  match Hashtbl.find_opt t.free_lists words with
  | Some (addr :: rest) ->
      Hashtbl.replace t.free_lists words rest;
      Hashtbl.remove t.free_set addr;
      Hashtbl.replace t.live_blocks addr words;
      addr
  | Some [] | None ->
      let addr = t.bump in
      if addr + words > Array.length t.image then raise Out_of_memory;
      t.bump <- addr + words;
      Hashtbl.replace t.live_blocks addr words;
      addr

let alloc t words =
  let addr = alloc_raw t words in
  let n = round_to_lines (max words 1) in
  (match t.sink with None -> () | Some s -> s.ev_alloc addr n);
  for i = addr to addr + n - 1 do
    write t i 0
  done;
  addr

(* Freeing the block that ends at the bump pointer shrinks the heap
   instead of free-listing it, then keeps absorbing free blocks newly
   exposed at the top — so [used_words] genuinely drops when scrub
   reclaims a leak at the end of the heap. *)
let rec trim_bump t =
  let top =
    Hashtbl.fold
      (fun a w acc -> if a + w = t.bump then Some (a, w) else acc)
      t.free_set None
  in
  match top with
  | None -> ()
  | Some (a, w) ->
      Hashtbl.remove t.free_set a;
      (match Hashtbl.find_opt t.free_lists w with
      | Some lst -> Hashtbl.replace t.free_lists w (List.filter (fun x -> x <> a) lst)
      | None -> ());
      t.bump <- a;
      trim_bump t

let free t addr words =
  let words = round_to_lines (max words 1) in
  if addr < reserved_words || addr + words > t.bump then
    invalid_arg
      (Printf.sprintf "Arena.free: block [%d,%d) outside allocated region [%d,%d)"
         addr (addr + words) reserved_words t.bump);
  if addr mod words_per_line <> 0 then
    invalid_arg (Printf.sprintf "Arena.free: address %d is not line-aligned" addr);
  if Hashtbl.mem t.free_set addr then
    invalid_arg (Printf.sprintf "Arena.free: double free of block at %d" addr);
  (match Hashtbl.find_opt t.live_blocks addr with
  | Some w when w <> words ->
      invalid_arg
        (Printf.sprintf "Arena.free: block at %d spans %d words, freed as %d" addr w
           words)
  | Some _ | None ->
      (* Blocks unknown to the live table are accepted: scrub
         reclamation frees leaked blocks whose allocation record died
         with the crash. *)
      ());
  Hashtbl.remove t.live_blocks addr;
  (match t.sink with None -> () | Some s -> s.ev_free addr words);
  if addr + words = t.bump then begin
    t.bump <- addr;
    trim_bump t
  end
  else begin
    Hashtbl.replace t.free_set addr words;
    let prev = try Hashtbl.find t.free_lists words with Not_found -> [] in
    Hashtbl.replace t.free_lists words (addr :: prev)
  end

let used_words t = t.bump - reserved_words
let free_words t = Hashtbl.fold (fun _ w acc -> acc + w) t.free_set 0

let free_blocks t =
  List.sort compare (Hashtbl.fold (fun a w acc -> (a, w) :: acc) t.free_set [])

let root_get t slot =
  assert (slot >= 0 && slot < reserved_words);
  read t slot

let root_set t slot v =
  assert (slot >= 0 && slot < reserved_words);
  write t slot v;
  flush t slot;
  fence t

(* ------------------------------------------------------------------ *)
(* Media faults                                                        *)
(* ------------------------------------------------------------------ *)

(* Poisoning scrambles the line with seed-derived garbage, in the image
   and in the persisted state its pending stores roll back to: repair
   code cannot cheat by peeking the old contents — it must re-derive
   them from surviving structure. *)
let scramble_mult = 0x2545F4914F6CDD1D

let poison_line t line =
  let addr = line * words_per_line in
  check addr t;
  if not (Hashtbl.mem t.poison line) then begin
    Hashtbl.replace t.poison line ();
    t.poison_n <- t.poison_n + 1;
    t.fs_poisoned <- t.fs_poisoned + 1;
    let rng = Prng.create (line * scramble_mult) in
    for w = addr to addr + words_per_line - 1 do
      t.image.(w) <- Prng.next rng
    done;
    Storelog.rebase_line t.log ~image:t.image line
  end

let is_poisoned t addr =
  t.poison_n > 0 && Hashtbl.mem t.poison (line_of addr)

let poisoned_lines t =
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) t.poison [])

let set_fault_plan t p = t.fplan <- p
let fault_plan t = t.fplan
let injected_faults t = List.rev t.injected

let fault_stats t =
  {
    poisoned = t.fs_poisoned;
    flipped = t.fs_flipped;
    stuck = t.fs_stuck;
    media_error_reads = t.fs_media_reads;
  }

let record_fault t kind addr =
  let index = List.length t.injected in
  t.injected <- { fault_kind = kind; fault_addr = addr; fault_index = index } :: t.injected

(* Fire the armed fault plan: poison lines first (index order), then
   delegate flips/stuck words to the Storelog fault model with a seed
   derived from the same PRNG stream — the whole sequence replays from
   [fault_seed] alone. *)
let inject_faults t p =
  let rng = Prng.create p.fault_seed in
  let lo_line = reserved_words / words_per_line in
  let hi_line = t.bump / words_per_line in
  if hi_line > lo_line then
    for _ = 1 to p.poison_lines do
      let line = Prng.in_range rng lo_line hi_line in
      poison_line t line;
      record_fault t Fault_poison (line * words_per_line)
    done;
  if p.flip_words > 0 || p.stuck_words > 0 then begin
    let spec =
      {
        Storelog.fault_seed = Prng.next rng;
        flip_words = p.flip_words;
        stuck_words = p.stuck_words;
        fault_lo = reserved_words;
        fault_hi = t.bump;
      }
    in
    let faults = Storelog.apply_faults ~image:t.image spec in
    List.iter
      (fun (kind, addr) ->
        match kind with
        | `Flip ->
            t.fs_flipped <- t.fs_flipped + 1;
            record_fault t Fault_flip addr
        | `Stuck ->
            t.fs_stuck <- t.fs_stuck + 1;
            record_fault t Fault_stuck addr)
      faults
  end

let set_crash_plan t plan = t.plan <- plan
let store_count t = t.stores
let flush_count t = t.flushes
let epoch t = t.epoch
let set_flush_elision t b = t.elide_flush <- b
let pending_epochs t = Storelog.pending_epochs t.log

let power_fail t mode =
  (match t.sink with None -> () | Some s -> s.ev_crash ());
  Storelog.apply_crash t.log ~image:t.image mode;
  iter_ctxs t (fun c -> Cachesim.clear c.cache);
  t.plan <- Never;
  t.group <- false;
  (* Fault injection applies to the pre-crash execution only: recovery
     code after the power failure runs with real flushes, so a mutant's
     missing-flush bug is confined to the phase under test. *)
  t.elide_flush <- false;
  (* Allocator metadata is volatile by design: free lists and the live
     table die with the power, exactly as across a file round trip.
     Blocks that were free-listed but not reclaimed by trimming become
     leaks until a scrub finds them. *)
  Hashtbl.reset t.free_lists;
  Hashtbl.reset t.free_set;
  Hashtbl.reset t.live_blocks;
  (* Media damage from the armed fault plan lands now, on the post-crash
     image; like the crash plan, the fault plan disarms after firing. *)
  (match t.fplan with None -> () | Some p -> inject_faults t p);
  t.fplan <- None

let drain t = Storelog.drain t.log

let clone t =
  drain t;
  {
    (make t.config ~image:(Array.copy t.image)) with
    epoch = t.epoch;
    stores = t.stores;
    flushes = t.flushes;
    bump = t.bump;
    free_lists = Hashtbl.copy t.free_lists;
    live_blocks = Hashtbl.copy t.live_blocks;
    free_set = Hashtbl.copy t.free_set;
    poison = Hashtbl.copy t.poison;
    poison_n = t.poison_n;
  }

(* The crash-at-store protocol every crash experiment shares: arm,
   run, swallow the crash, disarm whatever happened. *)
let crash_after t k f =
  t.plan <- After_stores (t.stores + k);
  Fun.protect ~finally:(fun () -> t.plan <- Never) @@ fun () ->
  match f () with () -> false | exception Crashed -> true

let store_span base ~reopen run =
  let c = clone base in
  let h = reopen c in
  let before = c.stores in
  run h;
  c.stores - before

let crash_image base ~reopen run ~at mode =
  let c = clone base in
  let h = reopen c in
  ignore (crash_after c at (fun () -> run h));
  power_fail c mode;
  c

(* Evenly spaced, both ends included: i * span / (m - 1) for i < m.
   Once span >= m the gap between neighbours is at least 1, so the
   points stay distinct. *)
let crash_points ~max_points span =
  let m = max 2 max_points in
  if span < m then List.init (span + 1) Fun.id
  else List.init m (fun i -> i * span / (m - 1))

let dirty_line_count t = Storelog.dirty_line_count t.log

(* A reattached segment (or any freshly mounted image) starts from the
   post-crash allocator state: the heap contents and bump pointer are
   authoritative, the volatile block bookkeeping is not.  Dropping it
   makes subsequent frees of pre-existing blocks take the
   unknown-block path, exactly as after [power_fail]. *)
let forget_allocations t =
  Hashtbl.reset t.free_lists;
  Hashtbl.reset t.free_set;
  Hashtbl.reset t.live_blocks

(* File format: (magic, capacity, bump, persisted image). *)
let magic = 0xFA57FA12

let save_to_file t path =
  let persisted = Array.copy t.image in
  Storelog.roll_back t.log ~image:persisted;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Marshal.to_channel oc (magic, Array.length persisted, t.bump, persisted) [])

let load_from_file ?(config = Config.default) path =
  let ic = open_in_bin path in
  let m, words, bump, persisted =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> (Marshal.from_channel ic : int * int * int * int array))
  in
  if m <> magic then invalid_arg "Arena.load_from_file: not an arena image";
  let t = create ~config ~words () in
  Array.blit persisted 0 t.image 0 (min words (Array.length t.image));
  t.bump <- max bump reserved_words;
  t
