module Vec = Ff_util.Vec
module Heap = Ff_util.Heap
module Prng = Ff_util.Prng
module Arena = Ff_pmem.Arena

(* ------------------------------------------------------------------ *)
(* Thread and synchronization object representations                   *)
(* ------------------------------------------------------------------ *)

type pending =
  | P_none
  | P_charged of int  (* suspended after consuming this much time *)
  | P_blocked         (* parked in some wait queue *)
  | P_finished

type thread = {
  thread_tid : int;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable pending : pending;
  mutable end_ns : int;
}

type mutex = {
  mutable m_owner : int;
  m_waiters : thread Queue.t;
  mutable m_port_free : int;
  mutable m_port_run : int;
}

let create_mutex () =
  { m_owner = -1; m_waiters = Queue.create (); m_port_free = 0; m_port_run = -1 }

type rw_kind = R | W

type rwlock = {
  mutable readers : int;
  mutable writer : int;
  rw_waiters : (thread * rw_kind) Queue.t;
  mutable rw_port_free : int;
  mutable rw_port_run : int;
}

let create_rwlock () =
  { readers = 0; writer = -1; rw_waiters = Queue.create (); rw_port_free = 0;
    rw_port_run = -1 }

(* ------------------------------------------------------------------ *)
(* Effects                                                              *)
(* ------------------------------------------------------------------ *)

type _ Effect.t +=
  | Charge : int -> unit Effect.t
  | Lock : mutex -> unit Effect.t
  | Unlock : mutex -> unit Effect.t
  | Rd_lock : rwlock -> unit Effect.t
  | Rd_unlock : rwlock -> unit Effect.t
  | Wr_lock : rwlock -> unit Effect.t
  | Wr_unlock : rwlock -> unit Effect.t
  | Await : (unit -> bool) -> unit Effect.t
  | My_tid : int Effect.t
  | Now : int Effect.t

let charge ns = if ns > 0 then Effect.perform (Charge ns)
let lock m = Effect.perform (Lock m)
let unlock m = Effect.perform (Unlock m)
let rd_lock l = Effect.perform (Rd_lock l)
let rd_unlock l = Effect.perform (Rd_unlock l)
let wr_lock l = Effect.perform (Wr_lock l)
let wr_unlock l = Effect.perform (Wr_unlock l)
(* A woken waiter resumes a little after the segment that made its
   condition true, and another thread may have made it false again in
   between: re-check, and park again until it holds on resumption. *)
let await cond =
  while not (cond ()) do
    try Effect.perform (Await cond)
    with Effect.Unhandled _ -> failwith "Mcsim.await: condition false outside Mcsim.run"
  done

let my_tid () =
  try Effect.perform My_tid
  with Effect.Unhandled _ -> failwith "Mcsim.my_tid: not inside Mcsim.run"

(* Runs in progress: outside every run there is no scheduler clock,
   and [sim_now] says so without performing an effect no one handles. *)
let running = ref 0

let sim_now () =
  if !running = 0 then None
  else try Some (Effect.perform Now) with Effect.Unhandled _ -> None

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)
(* ------------------------------------------------------------------ *)

type policy = Fifo | Random of Prng.t | Choose of (int array -> int)

(* PCT-style priority scheduling (Burckhardt et al., ASPLOS'10): every
   thread gets a distinct random priority; the scheduler always runs
   the highest-priority runnable thread; at [change_points] decision
   steps drawn from [0, horizon) the running-priority thread is
   demoted below everyone, which is what surfaces bugs needing d
   preemptions.
   Implemented on top of [Choose], so the same controlled-scheduling
   hook serves PCT, bounded-exhaustive DFS and counterexample replay. *)
let change_points = 3
let horizon = 4096

let pct_policy ~seed =
  let rng = Prng.create seed in
  let prio = Hashtbl.create 16 in
  (* Fresh priorities are drawn lazily per tid; demotions push below
     every priority handed out so far. *)
  let next_hi = ref 0 and next_lo = ref 0 in
  let priority tid =
    match Hashtbl.find_opt prio tid with
    | Some p -> p
    | None ->
        (* random insertion among the high band *)
        incr next_hi;
        let p = (!next_hi * 1024) + Prng.int rng 1024 in
        Hashtbl.replace prio tid p;
        p
  in
  let change_steps = Hashtbl.create 8 in
  for _ = 1 to change_points do
    Hashtbl.replace change_steps (Prng.int rng horizon) ()
  done;
  let step = ref 0 in
  Choose
    (fun tids ->
      let s = !step in
      incr step;
      let best = ref 0 in
      for i = 1 to Array.length tids - 1 do
        if priority tids.(i) > priority tids.(!best) then best := i
      done;
      if Hashtbl.mem change_steps s then begin
        (* demote the thread about to run below every known priority *)
        decr next_lo;
        Hashtbl.replace prio tids.(!best) !next_lo;
        let best' = ref 0 in
        for i = 1 to Array.length tids - 1 do
          if priority tids.(i) > priority tids.(!best') then best' := i
        done;
        !best'
      end
      else !best)

let policy_of_spec ?(seed = 42) name =
  match name with
  | "fifo" -> Fifo
  | "random" -> Random (Prng.create seed)
  | "pct" -> pct_policy ~seed
  | s ->
      invalid_arg
        (Printf.sprintf "Mcsim.policy_of_spec: unknown policy %S (fifo, random, pct)" s)

type outcome = { makespan_ns : int; thread_end_ns : int array }

let run_generation = ref 0

let run ?(cores = 16) ?(quantum_ns = 400) ?(lock_ns = 20) ?contention_ns
    ?(policy = Fifo) ?arena bodies =
  let contention_ns = Option.value contention_ns ~default:lock_ns in
  let n = Array.length bodies in
  let threads =
    Array.init n (fun i ->
        { thread_tid = i; cont = None; pending = P_none; end_ns = 0 })
  in
  let runq : thread Vec.t =
    Vec.create ~dummy:{ thread_tid = -1; cont = None; pending = P_none; end_ns = 0 } ()
  in
  Array.iter (Vec.push runq) threads;
  let take_runnable () =
    match policy with
    | Fifo ->
        let th = Vec.get runq 0 in
        (* n is tiny (<= 64 threads); O(n) dequeue keeps things simple *)
        let len = Vec.length runq in
        for i = 0 to len - 2 do
          Vec.set runq i (Vec.get runq (i + 1))
        done;
        ignore (Vec.pop runq);
        th
    | Random rng ->
        let i = Prng.int rng (Vec.length runq) in
        let th = Vec.get runq i in
        let last = Vec.pop runq in
        if i < Vec.length runq then Vec.set runq i last;
        th
    | Choose f ->
        let len = Vec.length runq in
        let tids = Array.init len (fun i -> (Vec.get runq i).thread_tid) in
        let i = f tids in
        let i = if i < 0 || i >= len then 0 else i in
        let th = Vec.get runq i in
        (* Ordered removal keeps the runnable array the chooser sees in
           a stable queue order, so recorded decision indices replay
           identically. *)
        for j = i to len - 2 do
          Vec.set runq j (Vec.get runq (j + 1))
        done;
        ignore (Vec.pop runq);
        th
  in
  let events : [ `Free of int | `Wake of thread ] Heap.t = Heap.create () in
  (* Threads parked in [await], oldest first, with their conditions. *)
  let awaiting : ((unit -> bool) * thread) list ref = ref [] in
  let idle = ref [] in
  let now = ref 0 in
  let current = ref threads.(0) in
  (* Simulated ns already consumed by the running segment: [!now +
     !seg_acc] is the precise current time inside a thread body, which
     the [Now] effect exposes to tracers. *)
  let seg_acc = ref 0 in
  (* Lock-word serialization: each acquire/release is an atomic RMW
     that owns the lock's cache line for [contention_ns]; concurrent
     operations on the same lock queue up on this "port".  This is
     what makes an every-reader-locks design (B-link) saturate while
     spread-out per-leaf locks stay cheap (paper Figure 7). *)
  incr run_generation;
  let generation = !run_generation in
  let mutex_port (m : mutex) =
    if m.m_port_run <> generation then begin
      m.m_port_run <- generation;
      m.m_port_free <- 0
    end;
    let grant = max !now m.m_port_free in
    m.m_port_free <- grant + contention_ns;
    lock_ns + (grant - !now)
  in
  let rw_port (l : rwlock) =
    if l.rw_port_run <> generation then begin
      l.rw_port_run <- generation;
      l.rw_port_free <- 0
    end;
    let grant = max !now l.rw_port_free in
    l.rw_port_free <- grant + contention_ns;
    lock_ns + (grant - !now)
  in
  let wake th =
    Vec.push runq th;
    match !idle with
    | c :: rest ->
        idle := rest;
        Heap.push events !now (`Free c)
    | [] -> ()
  in
  (* Grant the lock/rwlock to waiters in FIFO order. *)
  let drain_rwlock l =
    let continue_draining = ref true in
    while !continue_draining do
      match Queue.peek_opt l.rw_waiters with
      | Some (th, R) when l.writer = -1 ->
          ignore (Queue.pop l.rw_waiters);
          l.readers <- l.readers + 1;
          wake th
      | Some (th, W) when l.writer = -1 && l.readers = 0 ->
          ignore (Queue.pop l.rw_waiters);
          l.writer <- th.thread_tid;
          wake th
      | Some _ | None -> continue_draining := false
    done
  in
  let handler : type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option =
    fun eff ->
      let th = !current in
      let suspend_charged (k : (unit, unit) Effect.Deep.continuation) ns =
        th.cont <- Some k;
        th.pending <- P_charged ns
      in
      match eff with
      | Charge ns -> Some (fun k -> suspend_charged k ns)
      | Lock m ->
          Some
            (fun k ->
              if m.m_owner = -1 then begin
                m.m_owner <- th.thread_tid;
                suspend_charged k (mutex_port m)
              end
              else begin
                Queue.push th m.m_waiters;
                th.cont <- Some k;
                th.pending <- P_blocked
              end)
      | Unlock m ->
          Some
            (fun k ->
              if m.m_owner <> th.thread_tid then
                failwith "Mcsim.unlock: not the owner";
              (match Queue.take_opt m.m_waiters with
              | Some w ->
                  m.m_owner <- w.thread_tid;
                  wake w
              | None -> m.m_owner <- -1);
              suspend_charged k (mutex_port m))
      | Rd_lock l ->
          Some
            (fun k ->
              if l.writer = -1 && Queue.is_empty l.rw_waiters then begin
                l.readers <- l.readers + 1;
                suspend_charged k (rw_port l)
              end
              else begin
                Queue.push (th, R) l.rw_waiters;
                th.cont <- Some k;
                th.pending <- P_blocked
              end)
      | Rd_unlock l ->
          Some
            (fun k ->
              assert (l.readers > 0);
              l.readers <- l.readers - 1;
              drain_rwlock l;
              suspend_charged k (rw_port l))
      | Wr_lock l ->
          Some
            (fun k ->
              if l.writer = -1 && l.readers = 0 && Queue.is_empty l.rw_waiters
              then begin
                l.writer <- th.thread_tid;
                suspend_charged k (rw_port l)
              end
              else begin
                Queue.push (th, W) l.rw_waiters;
                th.cont <- Some k;
                th.pending <- P_blocked
              end)
      | Wr_unlock l ->
          Some
            (fun k ->
              if l.writer <> th.thread_tid then
                failwith "Mcsim.wr_unlock: not the writer";
              l.writer <- -1;
              drain_rwlock l;
              suspend_charged k (rw_port l))
      | Await cond ->
          Some
            (fun k ->
              awaiting := !awaiting @ [ (cond, th) ];
              th.cont <- Some k;
              th.pending <- P_blocked)
      | My_tid -> Some (fun k -> Effect.Deep.continue k th.thread_tid)
      | Now -> Some (fun k -> Effect.Deep.continue k (!now + !seg_acc))
      | _ -> None
  in
  let start th =
    Effect.Deep.match_with
      (fun () -> bodies.(th.thread_tid) th.thread_tid)
      ()
      {
        retc = (fun () -> th.pending <- P_finished);
        exnc = raise;
        effc = (fun eff -> handler eff);
      }
  in
  let run_segment th =
    current := th;
    (match arena with Some a -> Arena.set_tid a th.thread_tid | None -> ());
    let acc = seg_acc in
    acc := 0;
    let result = ref None in
    while !result = None do
      th.pending <- P_none;
      (match th.cont with
      | None -> start th
      | Some k ->
          th.cont <- None;
          Effect.Deep.continue k ());
      (match th.pending with
      | P_charged ns ->
          acc := !acc + ns;
          if !acc >= quantum_ns then result := Some (`Ran !acc)
      | P_blocked -> result := Some (`Blocked !acc)
      | P_finished -> result := Some (`Done !acc)
      | P_none -> assert false)
    done;
    match !result with Some r -> r | None -> assert false
  in
  (match arena with
  | Some a -> Arena.set_yield_hook a (Some (fun ns -> charge ns))
  | None -> ());
  let finished = ref 0 in
  for c = 0 to cores - 1 do
    Heap.push events 0 (`Free c)
  done;
  let rec loop () =
    if !finished < n then
      match Heap.pop events with
      | None -> failwith "Mcsim.run: deadlock (no runnable thread)"
      | Some (t, `Wake th) ->
          now := t;
          wake th;
          loop ()
      | Some (t, `Free c) ->
          now := t;
          if Vec.is_empty runq then idle := c :: !idle
          else begin
            let th = take_runnable () in
            let outcome = run_segment th in
            (* Only a segment can change what an [await] condition
               reads: re-check them after every one, waking the ready
               waiters when the segment ends. *)
            if !awaiting <> [] then begin
              let (`Ran cost | `Blocked cost | `Done cost) = outcome in
              let ready, still = List.partition (fun (cond, _) -> cond ()) !awaiting in
              awaiting := still;
              List.iter (fun (_, w) -> Heap.push events (t + cost) (`Wake w)) ready
            end;
            (match outcome with
            | `Ran cost ->
                (* The thread occupies this core until t + cost; it
                   may not be picked up elsewhere before then. *)
                Heap.push events (t + cost) (`Wake th);
                Heap.push events (t + cost) (`Free c)
            | `Blocked cost -> Heap.push events (t + cost) (`Free c)
            | `Done cost ->
                th.end_ns <- t + cost;
                incr finished;
                Heap.push events (t + cost) (`Free c));
          end;
          loop ()
  in
  let cleanup () =
    decr running;
    match arena with
    | Some a ->
        Arena.set_yield_hook a None;
        Arena.set_tid a 0
    | None -> ()
  in
  incr running;
  (try loop ()
   with e ->
     cleanup ();
     raise e);
  cleanup ();
  let makespan = Array.fold_left (fun m th -> max m th.end_ns) 0 threads in
  {
    makespan_ns = makespan;
    thread_end_ns = Array.map (fun th -> th.end_ns) threads;
  }
