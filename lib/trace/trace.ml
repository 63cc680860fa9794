module Arena = Ff_pmem.Arena
module Stats = Ff_pmem.Stats
module Mcsim = Ff_mcsim.Mcsim

(* Events are 4 ints in a flat ring: ts, kind, arg1, arg2.  Kinds 0-4
   are PM events (arg1 = addr, arg2 = words for alloc/free); 5/6/7 are
   span begin/end and instants (arg1 = interned name id, arg2 =
   caller-defined detail). *)

let k_store = 0
let k_flush = 1
let k_fence = 2
let k_alloc = 3
let k_free = 4
let k_begin = 5
let k_end = 6
let k_instant = 7

let slot_words = 4

(* Code-site stacks are bounded: deeper nesting keeps attributing to
   the 64th frame rather than growing. *)
let max_site_depth = 64

(* [buf] is allocated on the thread's first event. *)
type ring = { mutable buf : int array; cap : int; mutable written : int }

type t = {
  enabled : bool;
  rings : ring array;
  mutable names : string array;
  mutable nnames : int;
  ids : (string, int) Hashtbl.t;
  metrics : Metrics.t;
  clock : unit -> int;
  tid : unit -> int;
  (* Per-thread code-site stack (indexed like [rings]); the top frame
     is the site every ordered store / flush / fence is attributed
     to.  Spans push their name automatically. *)
  site_stack : int array array;
  site_depth : int array;
  (* Per-site counters, indexed by interned name id (grown alongside
     [names]). *)
  mutable site_spans : int array;
  mutable site_stores : int array;
  mutable site_flushes : int array;
  mutable site_fences : int array;
}

(* Fixed ids: keep in sync with [predefined]. *)
let id_insert = 0
let id_delete = 1
let id_search = 2
let id_range = 3
let id_split = 4
let id_fast_shift = 5
let id_sibling_chase = 6
let id_dup_skip = 7
let id_recovery = 8
let id_crash = 9
let id_batch = 10
let id_merge = 11
let id_scrub = 12
let id_op = 13
let id_degraded = 14
let id_readmit = 15
let id_slo_violation = 16
let id_tx_begin = 17
let id_tx_log = 18
let id_tx_commit = 19
let id_tx_abort = 20
let id_tx_replay = 21
let id_untagged = 22
let id_rebal_copy = 23
let id_rebal_cutover = 24
let id_rebal_replay = 25
let id_rpc = 26
let id_repl = 27
let id_failover = 28
let id_catchup = 29

let predefined =
  [|
    "insert"; "delete"; "search"; "range"; "split"; "fast_shift";
    "sibling_chase"; "dup_skip"; "recovery"; "crash"; "batch"; "merge";
    "scrub"; "op"; "degraded"; "readmit"; "slo_violation"; "tx_begin";
    "tx_log"; "tx_commit"; "tx_abort"; "tx_replay"; "untagged";
    "rebal_copy"; "rebal_cutover"; "rebal_replay"; "rpc"; "repl";
    "failover"; "catchup";
  |]

let make ~enabled ~capacity ~threads ~clock ~tid =
  let capacity = max 16 capacity in
  let ids = Hashtbl.create 32 in
  Array.iteri (fun i n -> Hashtbl.add ids n i) predefined;
  let npre = Array.length predefined in
  {
    enabled;
    rings = Array.init threads (fun _ -> { buf = [||]; cap = capacity; written = 0 });
    names = Array.copy predefined;
    nnames = npre;
    ids;
    metrics = Metrics.create ();
    clock;
    tid;
    site_stack =
      Array.init threads (fun _ ->
          if enabled then Array.make max_site_depth 0 else [||]);
    site_depth = Array.make threads 0;
    site_spans = Array.make npre 0;
    site_stores = Array.make npre 0;
    site_flushes = Array.make npre 0;
    site_fences = Array.make npre 0;
  }

let null =
  make ~enabled:false ~capacity:16 ~threads:1 ~clock:(fun () -> 0) ~tid:(fun () -> 0)

let create ?(capacity = 65536) ?(threads = 1) ?clock ?tid () =
  let clock =
    match clock with
    | Some f -> f
    | None ->
        let n = ref 0 in
        fun () -> Stdlib.incr n; !n
  in
  let tid = match tid with Some f -> f | None -> fun () -> 0 in
  make ~enabled:true ~capacity ~threads ~clock ~tid

let enabled t = t.enabled
let metrics t = t.metrics
let now t = if t.enabled then t.clock () else 0

let grow_sites t want =
  let len = Array.length t.site_spans in
  if want > len then begin
    let bigger n = max want (2 * n) in
    let grow a =
      let b = Array.make (bigger len) 0 in
      Array.blit a 0 b 0 len;
      b
    in
    t.site_spans <- grow t.site_spans;
    t.site_stores <- grow t.site_stores;
    t.site_flushes <- grow t.site_flushes;
    t.site_fences <- grow t.site_fences
  end

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
      let id = t.nnames in
      if id >= Array.length t.names then begin
        let bigger = Array.make (2 * Array.length t.names) "" in
        Array.blit t.names 0 bigger 0 t.nnames;
        t.names <- bigger
      end;
      t.names.(id) <- name;
      t.nnames <- id + 1;
      grow_sites t t.nnames;
      Hashtbl.add t.ids name id;
      id

(* ------------------------------------------------------------------ *)
(* Code-site attribution                                               *)
(* ------------------------------------------------------------------ *)

let clamp_tid t tid = if tid >= 0 && tid < Array.length t.rings then tid else 0

let current_site_of t tid =
  let d = t.site_depth.(tid) in
  if d = 0 then id_untagged
  else t.site_stack.(tid).(min (d - 1) (max_site_depth - 1))

let push_site t tid id =
  let d = t.site_depth.(tid) in
  if d < max_site_depth then t.site_stack.(tid).(d) <- id;
  t.site_depth.(tid) <- d + 1

let pop_site t tid =
  if t.site_depth.(tid) > 0 then t.site_depth.(tid) <- t.site_depth.(tid) - 1

let site_enter t id =
  if t.enabled then begin
    let tid = clamp_tid t (t.tid ()) in
    push_site t tid id;
    t.site_spans.(id) <- t.site_spans.(id) + 1
  end

let site_exit t = if t.enabled then pop_site t (clamp_tid t (t.tid ()))

type site_row = {
  site : string;
  spans : int;
  stores : int;
  flushes : int;
  fences : int;
}

let site_table t =
  let rows = ref [] in
  for id = t.nnames - 1 downto 0 do
    let spans = t.site_spans.(id)
    and stores = t.site_stores.(id)
    and flushes = t.site_flushes.(id)
    and fences = t.site_fences.(id) in
    if spans + stores + flushes + fences > 0 then
      rows := { site = t.names.(id); spans; stores; flushes; fences } :: !rows
  done;
  List.sort (fun a b -> compare a.site b.site) !rows

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let emit_tid t tid kind a b =
  let tid = clamp_tid t tid in
  let r = t.rings.(tid) in
  if r.written = 0 then r.buf <- Array.make (r.cap * slot_words) 0;
  let i = r.written mod r.cap * slot_words in
  r.buf.(i) <- t.clock ();
  r.buf.(i + 1) <- kind;
  r.buf.(i + 2) <- a;
  r.buf.(i + 3) <- b;
  r.written <- r.written + 1;
  (* Attribution: PM ordering events charge the enclosing site; span
     boundaries maintain the per-thread site stack. *)
  if kind = k_store then begin
    let s = current_site_of t tid in
    t.site_stores.(s) <- t.site_stores.(s) + 1
  end
  else if kind = k_flush then begin
    let s = current_site_of t tid in
    t.site_flushes.(s) <- t.site_flushes.(s) + 1
  end
  else if kind = k_fence then begin
    let s = current_site_of t tid in
    t.site_fences.(s) <- t.site_fences.(s) + 1
  end
  else if kind = k_begin then begin
    push_site t tid a;
    t.site_spans.(a) <- t.site_spans.(a) + 1
  end
  else if kind = k_end then pop_site t tid

let emit t kind a b = emit_tid t (t.tid ()) kind a b

let span_begin t name detail = if t.enabled then emit t k_begin name detail
let span_end t name = if t.enabled then emit t k_end name 0
let instant t name detail = if t.enabled then emit t k_instant name detail

let c_dup_leaf = "fastfair.dup_skip.leaf"
let c_dup_internal = "fastfair.dup_skip.internal"

let dup_skip t ~leaf =
  if t.enabled then begin
    Metrics.incr t.metrics (if leaf then c_dup_leaf else c_dup_internal);
    emit t k_instant id_dup_skip (if leaf then 0 else 1)
  end

let dup_skips t =
  Metrics.counter_value t.metrics c_dup_leaf
  + Metrics.counter_value t.metrics c_dup_internal

let incr t name = if t.enabled then Metrics.incr t.metrics name
let observe t name sample = if t.enabled then Metrics.observe t.metrics name sample

(* ------------------------------------------------------------------ *)
(* Arena wiring                                                        *)
(* ------------------------------------------------------------------ *)

(* The sink takes thread ids from the attached arena, so a tracer can
   observe several arenas (the sharded serving layer) on one event
   timeline. *)
let attach_arena t a =
  Arena.set_event_sink a
    (Some
       {
         Arena.ev_store = (fun addr -> emit_tid t (Arena.tid a) k_store addr 0);
         ev_flush = (fun addr -> emit_tid t (Arena.tid a) k_flush addr 0);
         ev_fence = (fun () -> emit_tid t (Arena.tid a) k_fence 0 0);
         ev_alloc = (fun addr words -> emit_tid t (Arena.tid a) k_alloc addr words);
         ev_free = (fun addr words -> emit_tid t (Arena.tid a) k_free addr words);
         ev_crash = (fun () -> emit_tid t (Arena.tid a) k_instant id_crash 0);
       })

let for_arena ?(capacity = 65536) a =
  let clock () =
    match Mcsim.sim_now () with
    | Some ns -> ns
    | None -> Stats.total_ns (Arena.stats a (Arena.tid a))
  in
  let threads = (Arena.config a).Ff_pmem.Config.max_threads in
  let t = make ~enabled:true ~capacity ~threads ~clock ~tid:(fun () -> Arena.tid a) in
  attach_arena t a;
  t

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type event =
  | Pm_store of { addr : int }
  | Pm_flush of { addr : int }
  | Pm_fence
  | Pm_alloc of { addr : int; words : int }
  | Pm_free of { addr : int; words : int }
  | Span_b of { name : string; detail : int }
  | Span_e of { name : string }
  | Inst of { name : string; detail : int }

let name_of t id = if id >= 0 && id < t.nnames then t.names.(id) else "?"

let iter_events t f =
  Array.iteri
    (fun tid r ->
      let first = max 0 (r.written - r.cap) in
      for n = first to r.written - 1 do
        let i = n mod r.cap * slot_words in
        let ts = r.buf.(i)
        and kind = r.buf.(i + 1)
        and a = r.buf.(i + 2)
        and b = r.buf.(i + 3) in
        let ev =
          if kind = k_store then Pm_store { addr = a }
          else if kind = k_flush then Pm_flush { addr = a }
          else if kind = k_fence then Pm_fence
          else if kind = k_alloc then Pm_alloc { addr = a; words = b }
          else if kind = k_free then Pm_free { addr = a; words = b }
          else if kind = k_begin then Span_b { name = name_of t a; detail = b }
          else if kind = k_end then Span_e { name = name_of t a }
          else Inst { name = name_of t a; detail = b }
        in
        f ~tid ~ts ev
      done)
    t.rings

let threads t = Array.length t.rings

let event_count t =
  Array.fold_left (fun acc r -> acc + min r.written r.cap) 0 t.rings

let dropped_count t =
  Array.fold_left (fun acc r -> acc + max 0 (r.written - r.cap)) 0 t.rings
