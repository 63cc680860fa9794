module Arena = Ff_pmem.Arena
module Txlog = Ff_pmem.Txlog
module Intf = Ff_index.Intf
module Trace = Ff_trace.Trace

type path = Logged | Shadow

exception Abort of string

type t = {
  arena : Arena.t;
  log : Txlog.t;
  ops : Intf.ops;
  path : path;
  mutable tracer : Trace.t option;
  mutable commits : int;
  mutable aborts : int;
  mutable replays : int;
}

type tx = {
  mgr : t;
  id : int;
  mutable live : bool;
  mutable scoped : bool; (* Logged path: holds the arena's group scope *)
  mutable nops : int;
  mutable undos : (int * int option) list; (* eager path: (key, pre), newest first *)
  mutable staged : Txlog.record list; (* deferred path, newest first *)
  overlay : (int, int option) Hashtbl.t; (* deferred read-your-writes *)
}

let create ?(path = Logged) ?capacity arena ops =
  let log = Txlog.ensure ?capacity arena in
  { arena; log; ops; path; tracer = None; commits = 0; aborts = 0; replays = 0 }

let path t = t.path
let set_tracer t tr = t.tracer <- Some tr
let txlog t = t.log
let set_torn_commit t b = Txlog.set_torn_commit t.log b
let commits t = t.commits
let aborts t = t.aborts
let replays t = t.replays

let in_span t id detail f =
  match t.tracer with
  | None -> f ()
  | Some tr ->
      Trace.span_begin tr id detail;
      Fun.protect ~finally:(fun () -> Trace.span_end tr id) f

let instant t id detail =
  match t.tracer with None -> () | Some tr -> Trace.instant tr id detail

(* Log-record value encoding: 0 = absent/delete (legal because index
   values are nonzero by contract). *)
let enc = function None -> 0 | Some v -> v
let dec v = if v = 0 then None else Some v

(* A Shadow manager's transactions stage privately until commit (the
   deferred path); a Logged manager's install eagerly under undo. *)
let deferred tx = tx.mgr.path = Shadow

let begin_tx t =
  let id = Txlog.begin_tx t.log in
  instant t Trace.id_tx_begin id;
  {
    mgr = t;
    id;
    live = true;
    scoped = false;
    nops = 0;
    undos = [];
    staged = [];
    overlay = Hashtbl.create 16;
  }

let check_live tx =
  if not tx.live then invalid_arg "Tx: transaction already retired"

let get tx k =
  check_live tx;
  if deferred tx then
    match Hashtbl.find_opt tx.overlay k with
    | Some post -> post
    | None -> tx.mgr.ops.Intf.search k
  else tx.mgr.ops.Intf.search k

let visible_pre tx k =
  if deferred tx then
    match Hashtbl.find_opt tx.overlay k with
    | Some post -> post
    | None -> tx.mgr.ops.Intf.read_for_update k
  else tx.mgr.ops.Intf.read_for_update k

let write ?payload tx k post =
  check_live tx;
  let m = tx.mgr in
  let pre = visible_pre tx k in
  let r = { Txlog.key = k; old_v = enc pre; new_v = enc post } in
  if deferred tx then begin
    (* Shadow path: stage volatile, persist nothing yet. *)
    Txlog.append ~persist:false ?payload m.log r;
    tx.staged <- r :: tx.staged;
    Hashtbl.replace tx.overlay k post;
    tx.nops <- tx.nops + 1
  end
  else begin
    (* Logged path: the transaction runs under one group-flush scope
       (its own, or a caller's already open), so every write-back below
       is a [clwb].  The append's fence makes the undo record durable
       before the in-place write; commit fences the payload cells and
       the installs once, before truncation.  The write is counted and its
       undo pushed before the install runs: an install that applies and
       then raises must still be rolled back before the log is
       truncated. *)
    if not (Arena.in_group m.arena) then begin
      Arena.group_begin m.arena;
      tx.scoped <- true
    end;
    in_span m Trace.id_tx_log tx.nops (fun () -> Txlog.append ?payload m.log r);
    tx.nops <- tx.nops + 1;
    tx.undos <- (k, pre) :: tx.undos;
    m.ops.Intf.install k post
  end;
  pre

let put ?payload tx k v =
  if v = 0 then invalid_arg "Tx.put: values must be nonzero";
  ignore (write ?payload tx k (Some v))

let del tx k = write tx k None <> None
let abort ?(reason = "aborted") _tx = raise (Abort reason)

(* Close the transaction's own group scope, if it opened one; commit
   and rollback call this on every exit. *)
let release tx =
  if tx.scoped then begin
    tx.scoped <- false;
    Arena.group_end tx.mgr.arena
  end

let retire tx = tx.live <- false

let apply_staged tx =
  let m = tx.mgr in
  let own = not (Arena.in_group m.arena) in
  if own then Arena.group_begin m.arena;
  List.iter
    (fun r -> m.ops.Intf.install r.Txlog.key (dec r.Txlog.new_v))
    (List.rev tx.staged);
  if own then Arena.group_end m.arena

let commit tx =
  check_live tx;
  let m = tx.mgr in
  if tx.nops = 0 then begin
    (* Read-only: nothing was logged, nothing needs ordering. *)
    Txlog.abandon m.log;
    retire tx;
    m.commits <- m.commits + 1
  end
  else begin
  in_span m Trace.id_tx_commit tx.nops (fun () ->
      Fun.protect ~finally:(fun () -> release tx) (fun () ->
          if deferred tx then begin
            if Txlog.torn_commit m.log then
              (* Mutant: the decision record goes durable with no ordered
                 persist of the payload it covers. *)
              Txlog.set_commit m.log
            else begin
              Txlog.persist_payload m.log;
              Txlog.set_commit m.log
            end;
            apply_staged tx
          end
          else begin
            (* The payload cells' and the installs' write-backs are
               [clwb]s inside the scope: one fence makes them durable
               before the store that truncates the log, which is the
               commit point.  The mutant skips the payload's. *)
            if not (Txlog.torn_commit m.log) then
              Txlog.write_back_payload m.log;
            Arena.fence m.arena
          end;
          Txlog.discard m.log));
  retire tx;
  m.commits <- m.commits + 1
  end

(* A rollback that raises leaves the log un-truncated for {!recover};
   the scope still closes, so the arena stays usable.  With no write
   counted the scope may still be open: a first write's append can
   raise after opening it. *)
let rollback tx =
  check_live tx;
  let m = tx.mgr in
  Fun.protect ~finally:(fun () -> release tx) (fun () ->
      if tx.nops = 0 then Txlog.abandon m.log
      else
        in_span m Trace.id_tx_abort tx.nops (fun () ->
            if not (deferred tx) then begin
              List.iter (fun (k, pre) -> m.ops.Intf.install k pre) tx.undos;
              (* Same ordering as commit: the restored images are
                 durable before truncation. *)
              Arena.fence m.arena
            end;
            Txlog.discard m.log));
  retire tx;
  m.aborts <- m.aborts + 1

let run t f =
  let tx = begin_tx t in
  match f tx with
  | v ->
      commit tx;
      Ok v
  | exception Abort reason ->
      rollback tx;
      Error reason
  | exception e ->
      (* A crash mid-append or mid-commit leaves the arena refusing
         further stores; the original exception must win over the
         secondary failure of a best-effort rollback.  Such a rollback
         has already closed the scope; the transaction retires with
         its log left for {!recover}. *)
      if tx.live then (try rollback tx with _ -> retire tx);
      raise e

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let recover t =
  let redo r = t.ops.Intf.install r.Txlog.key (dec r.Txlog.new_v) in
  let undo r = t.ops.Intf.install r.Txlog.key (dec r.Txlog.old_v) in
  let outcome =
    in_span t Trace.id_tx_replay 0 (fun () ->
        Txlog.resolve t.log ~redo ~undo)
  in
  (match outcome with
  | `Clean -> ()
  | `Redone n | `Undone n ->
      t.replays <- t.replays + 1;
      instant t Trace.id_tx_replay n);
  outcome
