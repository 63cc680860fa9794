module Arena = Ff_pmem.Arena
module Storelog = Ff_pmem.Storelog
module Prng = Ff_util.Prng
module Trace = Ff_trace.Trace
module Metrics = Ff_trace.Metrics
module Shard = Ff_shard.Shard
module Fabric = Ff_net.Fabric
module Rpc = Ff_net.Rpc

(* Reserved root slots (see lib/pmem/arena.ml's slot map). *)
let slot_term = 71
let slot_applied = 72
let slot_resync = 73
let reserved_slots = [ slot_term; slot_applied; slot_resync ]

let mutant_ack_before_replicate = ref false

type config = {
  nodes : int;
  shards : int;
  inner : string;
  words : int;
  seed : int;
  faults : Fabric.faults;
  heartbeat_ns : int;
  heartbeat_timeout_ns : int;
  rpc_timeout_ns : int;
  rpc_retries : int;
  rpc_backoff_ns : int;
  log_cap : int;
  ship_ns_per_word : int;
  read_only_when_solo : bool;
}

let default =
  {
    nodes = 3;
    shards = 4;
    inner = "fastfair";
    words = 1 lsl 16;
    seed = 42;
    faults = Fabric.default_faults;
    heartbeat_ns = 50_000;
    heartbeat_timeout_ns = 200_000;
    rpc_timeout_ns = 20_000;
    rpc_retries = 4;
    rpc_backoff_ns = 2_000;
    log_cap = 8192;
    ship_ns_per_word = 10;
    read_only_when_solo = true;
  }

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

type wop = Put of int * int | Del of int

type msg =
  | M_write of { ms : int; mterm : int; mop : wop }
  | M_read of { ms : int; mterm : int; mkey : int }
  | M_repl of { ms : int; mterm : int; mseq : int; mop : wop }
  | M_promote of { ms : int; mterm : int }
  | M_demote of { ms : int; mterm : int }

type reply =
  | R_ok
  | R_val of int option
  | R_ack of int
  | R_gap of int  (** backup is missing records; payload = its high-water *)
  | R_stale of int  (** term fence: request's term below the replica's *)
  | R_not_primary of int
  | R_read_only

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type role = Primary | Backup | Idle

type rep = {
  rshard : int;
  mutable role : role;
  mutable rterm : int;
  mutable issued : int;  (* primary: last issued record seq *)
  mutable applied : int;  (* backup: last durably applied seq *)
  mutable acked : int;  (* primary's view of the backup high-water *)
  rlog : (int, wop) Hashtbl.t;  (* retained tail, seq -> op *)
  mutable rlog_lo : int;  (* smallest seq still retained *)
}

type node = {
  nid : int;
  ens : Shard.t;
  mutable nup : bool;
  nep : (msg, reply) Rpc.endpoint;
  reps : rep array;
}

type route = {
  mutable term : int;
  mutable primary : int;
  mutable backup : int;
  mutable ro : bool;  (* read-only degradation: no live backup *)
}

type werr = Read_only | Unavailable

type stats = {
  s_acks : int;
  s_read_only : int;
  s_unavailable : int;
  s_failovers : int;
  s_resyncs : int;
  s_repl_records : int;
  s_repl_resent : int;
  s_rpc_sent : int;
  s_rpc_dropped : int;
  s_rpc_dup : int;
  s_last_blackout_ns : int;
}

type t = {
  cfg : config;
  tracer : Trace.t;
  fab : Fabric.t;
  rng : Prng.t;  (* RPC backoff jitter *)
  nodes : node array;
  routes : route array;
  last_heard : int array;
  mutable next_hb : int;
  mutable acks : int;
  mutable read_only_rejections : int;
  mutable unavailable : int;
  mutable failovers : int;
  mutable resyncs : int;
  mutable repl_records : int;
  mutable repl_resent : int;
  mutable last_ack_ns : int;
  mutable blackout_start : int;  (* -1 = no blackout pending *)
  mutable last_blackout : int;
}

let config t = t.cfg
let fabric t = t.fab
let now_ns t = Fabric.now t.fab
let control_id t = t.cfg.nodes
let client_id t = t.cfg.nodes + 1

let metric t name = Metrics.incr (Trace.metrics t.tracer) name
let metric_add t name v = Metrics.add (Trace.metrics t.tracer) name v

let role_code = function Idle -> 0 | Backup -> 1 | Primary -> 2
let role_of_code = function 1 -> Backup | 2 -> Primary | _ -> Idle

(* Persist a replica's term/role word: one failure-atomic root_set in
   the PR-9 decision-word style. *)
let set_role t nd s role term =
  let rep = nd.reps.(s) in
  rep.role <- role;
  rep.rterm <- term;
  Arena.root_set (Shard.instance_arena nd.ens s) slot_term
    ((term lsl 2) lor role_code role);
  ignore t

(* Apply [op] to shard [s] under one group-flush scope on its arena:
   the op's flushes become clwbs and the closing fence makes it
   durable.  Exceptions follow [Shard.exec_batch]: [Arena.Crashed]
   escapes with the scope open ([power_fail] clears it), while a
   [Shard.Degraded] op still fences what it wrote before re-raising. *)
let apply_op nd s op =
  let a = Shard.instance_arena nd.ens s in
  Arena.group_begin a;
  (try
     match op with
     | Put (k, v) -> Shard.insert nd.ens ~key:k ~value:v
     | Del k -> ignore (Shard.delete nd.ens k : bool)
   with Shard.Degraded _ as e ->
     Arena.group_end a;
     raise e);
  Arena.group_end a

let log_add t rep seq op =
  Hashtbl.replace rep.rlog seq op;
  if rep.rlog_lo = 0 then rep.rlog_lo <- seq;
  while Hashtbl.length rep.rlog > t.cfg.log_cap do
    Hashtbl.remove rep.rlog rep.rlog_lo;
    rep.rlog_lo <- rep.rlog_lo + 1
  done

(* ------------------------------------------------------------------ *)
(* RPC plumbing                                                        *)
(* ------------------------------------------------------------------ *)

let rpc t ~src ep msg =
  let c = t.cfg in
  Rpc.call ~timeout_ns:c.rpc_timeout_ns ~retries:c.rpc_retries
    ~backoff_ns:c.rpc_backoff_ns ~fabric:t.fab ~rng:t.rng ~src ep msg

(* Control-plane liveness probe: a few raw transmits, uncharged (the
   orchestrator rides a management channel); deterministic given the
   call sequence. *)
let probe t n =
  t.nodes.(n).nup
  && (let rec go k =
        k < 3
        && ((Fabric.transmit t.fab ~src:(control_id t) ~dst:n).Fabric.v_deliveries
            <> []
           || go (k + 1))
      in
      go 0)

(* ------------------------------------------------------------------ *)
(* Replication (primary -> backup)                                     *)
(* ------------------------------------------------------------------ *)

(* Ship record [seq] of shard [s] to the backup; on a gap answer,
   re-ship the missing tail from the retained log.  Returns true iff
   the backup durably acked everything up to [seq]. *)
let replicate t nd s seq =
  let rep = nd.reps.(s) in
  let r = t.routes.(s) in
  let b = r.backup in
  if b < 0 || b = nd.nid || not t.nodes.(b).nup then false
  else begin
    let send one_seq op =
      match
        rpc t ~src:nd.nid t.nodes.(b).nep
          (M_repl { ms = s; mterm = rep.rterm; mseq = one_seq; mop = op })
      with
      | Ok (R_ack a) ->
          rep.acked <- max rep.acked a;
          `Acked a
      | Ok (R_gap a) -> `Gap a
      | Ok (R_stale term) ->
          (* Term fence: we have been deposed. Step down. *)
          rep.role <- Idle;
          ignore term;
          `Deposed
      | Ok _ | Error Rpc.Timeout -> `Dead
    in
    let rec ship from =
      if from > seq then true
      else
        match Hashtbl.find_opt rep.rlog from with
        | None -> false (* tail fell out of retention: needs full resync *)
        | Some op -> (
            match send from op with
            | `Acked a ->
                if Trace.enabled t.tracer then begin
                  Trace.instant t.tracer Trace.id_repl a;
                  metric t "cluster.repl.records"
                end;
                t.repl_records <- t.repl_records + 1;
                if from < seq then begin
                  t.repl_resent <- t.repl_resent + 1;
                  if Trace.enabled t.tracer then metric t "cluster.repl.resent"
                end;
                ship (max (from + 1) (a + 1))
            | `Gap a ->
                if a < from then false (* backup went backwards: resync *)
                else ship (a + 1)
            | `Deposed | `Dead -> false)
    in
    let start = max rep.rlog_lo (rep.acked + 1) in
    let ok = ship start in
    if Trace.enabled t.tracer then
      Metrics.set_gauge (Trace.metrics t.tracer)
        (Metrics.shard_label "cluster.repl.lag" s)
        (float_of_int (rep.issued - rep.acked));
    ok
  end

(* ------------------------------------------------------------------ *)
(* Request handlers (run inline on the caller's simulated thread)      *)
(* ------------------------------------------------------------------ *)

let handle t nd msg =
  match msg with
  | M_write { ms; mterm; mop } ->
      let rep = nd.reps.(ms) in
      if rep.role <> Primary || mterm <> rep.rterm then R_not_primary rep.rterm
      else begin
        (* Local apply first, durable at its group fence before the
           record ships; the client ack is withheld until the backup
           is durable too. *)
        apply_op nd ms mop;
        rep.issued <- rep.issued + 1;
        log_add t rep rep.issued mop;
        if !mutant_ack_before_replicate then begin
          (* BUG, armed only by Replcheck's mutant sweep: externalize
             the ack whether or not the backup is durable. *)
          ignore (replicate t nd ms rep.issued : bool);
          R_ok
        end
        else if replicate t nd ms rep.issued then R_ok
        else if t.cfg.read_only_when_solo then begin
          t.routes.(ms).ro <- true;
          R_read_only
        end
        else R_ok
      end
  | M_read { ms; mterm; mkey } ->
      let rep = nd.reps.(ms) in
      if rep.role <> Primary || mterm <> rep.rterm then R_not_primary rep.rterm
      else R_val (Shard.search nd.ens mkey)
  | M_repl { ms; mterm; mseq; mop } ->
      let rep = nd.reps.(ms) in
      if mterm < rep.rterm then R_stale rep.rterm (* term fencing *)
      else begin
        if mterm > rep.rterm || rep.role = Idle then
          set_role t nd ms Backup mterm;
        if mseq <= rep.applied then R_ack rep.applied
        else if mseq = rep.applied + 1 then begin
          apply_op nd ms mop;
          rep.applied <- mseq;
          (* Durable high-water after the op's group fence, never
             inside the scope: a clwb there would not order this word
             after the op's lines, so a crash could persist [applied]
             without the op and the retry would be acked unapplied.  A
             crash between the two replays this record, and applies
             are idempotent. *)
          Arena.root_set (Shard.instance_arena nd.ens ms) slot_applied mseq;
          R_ack mseq
        end
        else R_gap rep.applied
      end
  | M_promote { ms; mterm } ->
      let rep = nd.reps.(ms) in
      if mterm <= rep.rterm then R_stale rep.rterm
      else begin
        (* Crash-atomic failover decision: one persisted word. *)
        set_role t nd ms Primary mterm;
        rep.issued <- rep.applied;
        rep.acked <- rep.applied;
        Hashtbl.reset rep.rlog;
        rep.rlog_lo <- 0;
        R_ok
      end
  | M_demote { ms; mterm } ->
      let rep = nd.reps.(ms) in
      if mterm < rep.rterm then R_stale rep.rterm
      else begin
        set_role t nd ms Idle mterm;
        R_ok
      end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?(tracer = Trace.null) (cfg : config) =
  if cfg.nodes < 2 then invalid_arg "Cluster.create: nodes < 2";
  if cfg.shards < 1 then invalid_arg "Cluster.create: shards < 1";
  let fab =
    Fabric.create ~faults:cfg.faults ~seed:cfg.seed
      ~endpoints:(cfg.nodes + 2) ()
  in
  let nodes =
    Array.init cfg.nodes (fun nid ->
        let ens =
          Shard.create ~words:cfg.words ~tracer ~inner:cfg.inner
            ~shards:cfg.shards ()
        in
        {
          nid;
          ens;
          nup = true;
          nep = Rpc.endpoint ~node:nid (fun _ -> R_ok);
          reps =
            Array.init cfg.shards (fun s ->
                {
                  rshard = s;
                  role = Idle;
                  rterm = 0;
                  issued = 0;
                  applied = 0;
                  acked = 0;
                  rlog = Hashtbl.create 256;
                  rlog_lo = 0;
                });
        })
  in
  let routes =
    Array.init cfg.shards (fun s ->
        {
          term = 1;
          primary = s mod cfg.nodes;
          backup = (s + 1) mod cfg.nodes;
          ro = false;
        })
  in
  let t =
    {
      cfg;
      tracer;
      fab;
      rng = Prng.create (cfg.seed lxor 0x7ee1);
      nodes;
      routes;
      last_heard = Array.make cfg.nodes 0;
      next_hb = 0;
      acks = 0;
      read_only_rejections = 0;
      unavailable = 0;
      failovers = 0;
      resyncs = 0;
      repl_records = 0;
      repl_resent = 0;
      last_ack_ns = 0;
      blackout_start = -1;
      last_blackout = -1;
    }
  in
  Array.iter (fun nd -> Rpc.set_handler nd.nep (fun m -> handle t nd m)) nodes;
  (* Persist the initial term words. *)
  Array.iteri
    (fun s r ->
      set_role t nodes.(r.primary) s Primary r.term;
      set_role t nodes.(r.backup) s Backup r.term)
    routes;
  t

let shard_of_key t key =
  Shard.shard_of_key t.nodes.(0).ens key

(* ------------------------------------------------------------------ *)
(* Failover and the failure detector                                   *)
(* ------------------------------------------------------------------ *)

let failover t ~shard =
  let r = t.routes.(shard) in
  if r.backup < 0 || not (probe t r.backup) then false
  else begin
    let nt = r.term + 1 in
    match
      rpc t ~src:(control_id t) t.nodes.(r.backup).nep
        (M_promote { ms = shard; mterm = nt })
    with
    | Ok R_ok ->
        if t.blackout_start < 0 then t.blackout_start <- max 0 t.last_ack_ns;
        let oldp = r.primary in
        r.term <- nt;
        r.primary <- r.backup;
        r.backup <- oldp;
        r.ro <- t.cfg.read_only_when_solo;
        t.failovers <- t.failovers + 1;
        if Trace.enabled t.tracer then begin
          Trace.instant t.tracer Trace.id_failover shard;
          metric t "cluster.failovers"
        end;
        true
    | _ -> false
  end

let suspect t s =
  let r = t.routes.(s) in
  if (not (probe t r.primary)) && r.backup >= 0 && probe t r.backup then
    ignore (failover t ~shard:s : bool)

let tick t =
  let nnow = Fabric.now t.fab in
  if nnow >= t.next_hb then begin
    t.next_hb <- nnow + t.cfg.heartbeat_ns;
    Array.iter
      (fun nd -> if probe t nd.nid then t.last_heard.(nd.nid) <- nnow)
      t.nodes;
    let stale n =
      n < 0 || nnow - t.last_heard.(n) > t.cfg.heartbeat_timeout_ns
    in
    Array.iteri
      (fun s r ->
        if stale r.primary && (not (stale r.backup)) && not (probe t r.primary)
        then ignore (failover t ~shard:s : bool))
      t.routes
  end

(* ------------------------------------------------------------------ *)
(* Client operations                                                   *)
(* ------------------------------------------------------------------ *)

let record_ack t =
  t.acks <- t.acks + 1;
  t.last_ack_ns <- Fabric.now t.fab;
  if Trace.enabled t.tracer then metric t "cluster.writes.acked";
  if t.blackout_start >= 0 then begin
    let b = t.last_ack_ns - t.blackout_start in
    t.last_blackout <- b;
    t.blackout_start <- -1;
    if Trace.enabled t.tracer then
      Metrics.observe (Trace.metrics t.tracer) "cluster.blackout_ns" b
  end

let write_op t key op =
  tick t;
  let s = shard_of_key t key in
  let rec go attempts =
    if attempts > 3 then begin
      t.unavailable <- t.unavailable + 1;
      if Trace.enabled t.tracer then metric t "cluster.unavail.timeout";
      Error Unavailable
    end
    else begin
      let r = t.routes.(s) in
      if r.ro then begin
        t.read_only_rejections <- t.read_only_rejections + 1;
        if Trace.enabled t.tracer then metric t "cluster.unavail.read_only";
        Error Read_only
      end
      else
        match
          rpc t ~src:(client_id t) t.nodes.(r.primary).nep
            (M_write { ms = s; mterm = r.term; mop = op })
        with
        | Ok R_ok ->
            record_ack t;
            Ok ()
        | Ok R_read_only ->
            r.ro <- true;
            t.read_only_rejections <- t.read_only_rejections + 1;
            if Trace.enabled t.tracer then metric t "cluster.unavail.read_only";
            Error Read_only
        | Ok (R_not_primary _) ->
            suspect t s;
            go (attempts + 1)
        | Ok _ ->
            t.unavailable <- t.unavailable + 1;
            Error Unavailable
        | Error Rpc.Timeout ->
            suspect t s;
            go (attempts + 1)
    end
  in
  if Trace.enabled t.tracer then metric t "cluster.ops.write";
  go 0

let put t k v = write_op t k (Put (k, v))
let del t k = write_op t k (Del k)

let get t key =
  tick t;
  let s = shard_of_key t key in
  if Trace.enabled t.tracer then metric t "cluster.ops.read";
  let rec go attempts =
    if attempts > 3 then begin
      t.unavailable <- t.unavailable + 1;
      Error Unavailable
    end
    else
      let r = t.routes.(s) in
      match
        rpc t ~src:(client_id t) t.nodes.(r.primary).nep
          (M_read { ms = s; mterm = r.term; mkey = key })
      with
      | Ok (R_val v) -> Ok v
      | Ok (R_not_primary _) ->
          suspect t s;
          go (attempts + 1)
      | Ok _ ->
          t.unavailable <- t.unavailable + 1;
          Error Unavailable
      | Error Rpc.Timeout ->
          suspect t s;
          go (attempts + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Partitions, crashes, catch-up                                       *)
(* ------------------------------------------------------------------ *)

let partition t ~a ~b = Fabric.partition t.fab ~a ~b
let partition_for t ~a ~b ~ns = Fabric.partition_for t.fab ~a ~b ~ns
let heal t = Fabric.heal t.fab

let kill_node ?(mode = Storelog.Keep_all) t n =
  let nd = t.nodes.(n) in
  nd.nup <- false;
  Rpc.set_up nd.nep false;
  Shard.power_fail nd.ens mode

(* Reload a node's volatile replica state from its persisted words. *)
let reload_reps nd =
  Array.iter
    (fun rep ->
      let a = Shard.instance_arena nd.ens rep.rshard in
      let w = Arena.root_get a slot_term in
      rep.rterm <- w lsr 2;
      rep.role <- role_of_code (w land 3);
      rep.applied <- Arena.root_get a slot_applied;
      rep.issued <- rep.applied;
      rep.acked <- rep.applied;
      Hashtbl.reset rep.rlog;
      rep.rlog_lo <- 0)
    nd.reps

let demote t ~shard =
  let r = t.routes.(shard) in
  if r.backup >= 0 && t.nodes.(r.backup).nup then
    ignore
      (rpc t ~src:(control_id t) t.nodes.(r.backup).nep
         (M_demote { ms = shard; mterm = r.term })
        : (reply, Rpc.error) result)

(* Ship the primary's quiesced shard image into a fresh arena on the
   joiner ({!Shard.ship_image}, freezing at the primary's issued
   seqno), then stream the records issued during the copy from the
   primary's retained log. *)
let resync t ~shard =
  let s = shard in
  let r = t.routes.(s) in
  if r.primary < 0 || r.backup < 0 then false
  else begin
    let p = t.nodes.(r.primary) and j = t.nodes.(r.backup) in
    if (not p.nup) || not j.nup then false
    else begin
      let prep = p.reps.(s) in
      if prep.role <> Primary then false
      else begin
        if Trace.enabled t.tracer then
          Trace.span_begin t.tracer Trace.id_catchup s;
        let src = Shard.instance_arena p.ens s in
        let dst =
          Arena.create ~config:(Arena.config src) ~words:(Arena.capacity src)
            ()
        in
        let last = ref 0 in
        let fseq, ops, words =
          Shard.ship_image p.ens ~shard:s
            ~freeze:(fun () -> prep.issued)
            ~dst
            ~between:(fun copied ->
              (* the ship crosses the network: charge transfer time *)
              Fabric.charge t.fab ((copied - !last) * t.cfg.ship_ns_per_word);
              last := copied)
        in
        (* The image carries the primary's term word; rewrite it as
           Backup before the replica goes live, and seed the applied
           high-water at the freeze point. *)
        Arena.root_set dst slot_term ((r.term lsl 2) lor 1);
        Arena.root_set dst slot_applied fseq;
        Shard.quiesce j.ens (fun () ->
            Shard.splice_replace j.ens ~shard:s ~ops ~arena:dst);
        let jrep = j.reps.(s) in
        jrep.role <- Backup;
        jrep.rterm <- r.term;
        jrep.applied <- fseq;
        jrep.issued <- fseq;
        prep.acked <- max prep.acked fseq;
        t.resyncs <- t.resyncs + 1;
        if Trace.enabled t.tracer then begin
          metric t "cluster.resyncs";
          metric_add t "cluster.catchup.words" words;
          Trace.span_end t.tracer Trace.id_catchup
        end;
        (* Stream the tail issued since the freeze. *)
        let ok = prep.issued = fseq || replicate t p s prep.issued in
        if ok then r.ro <- false;
        ok
      end
    end
  end

let restart_node t n =
  let nd = t.nodes.(n) in
  Shard.recover nd.ens;
  nd.nup <- true;
  Rpc.set_up nd.nep true;
  t.last_heard.(n) <- Fabric.now t.fab;
  reload_reps nd;
  (* A deposed primary's persisted word may still claim primacy at a
     superseded term: fence it before it rejoins. *)
  Array.iteri
    (fun s r ->
      let rep = nd.reps.(s) in
      if rep.rterm < r.term && rep.role = Primary then rep.role <- Idle;
      if r.backup = n then ignore (resync t ~shard:s : bool)
      else if r.primary = n && rep.role = Primary then begin
        (* The node resumes primacy with issued/acked reloaded from
           slot_applied — a word only backups advance — so the live
           backup's applied high-water may exceed the reborn issued
           counter and its [mseq <= applied] branch would falsely ack
           fresh seqnos without applying them.  Re-image the backup,
           which coherently resets both sides' watermarks, before the
           shard takes writes again; if that fails, degrade rather
           than risk acks that are durable on one node only. *)
        if not (resync t ~shard:s) then r.ro <- t.cfg.read_only_when_solo
      end)
    t.routes

let recover_all t =
  Array.iter
    (fun nd ->
      if not nd.nup then begin
        Shard.recover nd.ens;
        nd.nup <- true;
        Rpc.set_up nd.nep true;
        t.last_heard.(nd.nid) <- Fabric.now t.fab
      end;
      reload_reps nd)
    t.nodes;
  (* Resolve each shard's authority from the persisted words alone:
     highest (term, role, applied) wins. *)
  Array.iteri
    (fun s r ->
      let best = ref (-1) and best_key = ref (-1, -1, -1) in
      let second = ref (-1) and second_key = ref (-1, -1, -1) in
      Array.iter
        (fun nd ->
          let a = Shard.instance_arena nd.ens s in
          let w = Arena.root_get a slot_term in
          let code = w land 3 in
          if code > 0 then begin
            let key =
              (w lsr 2, (if code = 2 then 1 else 0), Arena.root_get a slot_applied)
            in
            if key > !best_key then begin
              second := !best;
              second_key := !best_key;
              best := nd.nid;
              best_key := key
            end
            else if key > !second_key then begin
              second := nd.nid;
              second_key := key
            end
          end)
        t.nodes;
      if !best >= 0 then begin
        let term, _, _ = !best_key in
        (* Recovery epoch bump: the resolved authority re-asserts
           primacy at a fresh term, fencing any deposed claimant. *)
        let nt = term + 1 in
        set_role t t.nodes.(!best) s Primary nt;
        let rep = t.nodes.(!best).reps.(s) in
        rep.issued <- rep.applied;
        rep.acked <- rep.applied;
        r.term <- nt;
        r.primary <- !best;
        r.backup <- !second;
        r.ro <- t.cfg.read_only_when_solo
      end)
    t.routes

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let read_only t ~shard = t.routes.(shard).ro
let term_of t ~shard = t.routes.(shard).term
let primary_of t ~shard = t.routes.(shard).primary
let backup_of t ~shard = t.routes.(shard).backup

let shard_arena t ~node ~shard = Shard.instance_arena t.nodes.(node).ens shard

let repl_lag t ~shard =
  let r = t.routes.(shard) in
  if r.primary < 0 then 0
  else
    let rep = t.nodes.(r.primary).reps.(shard) in
    rep.issued - rep.acked

let stats t =
  {
    s_acks = t.acks;
    s_read_only = t.read_only_rejections;
    s_unavailable = t.unavailable;
    s_failovers = t.failovers;
    s_resyncs = t.resyncs;
    s_repl_records = t.repl_records;
    s_repl_resent = t.repl_resent;
    s_rpc_sent = Fabric.sends t.fab;
    s_rpc_dropped = Fabric.drops t.fab;
    s_rpc_dup = Fabric.dups t.fab;
    s_last_blackout_ns = t.last_blackout;
  }

let fences t =
  Array.fold_left
    (fun acc nd ->
      Array.fold_left
        (fun acc a -> acc + (Arena.total_stats a).Ff_pmem.Stats.fences)
        acc (Shard.arenas nd.ens))
    0 t.nodes

let close t = Array.iter (fun nd -> Shard.close nd.ens) t.nodes
