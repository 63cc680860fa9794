(** Simulated multi-node cluster: per-shard primary/backup replication
    over the fault-injected {!Ff_net.Fabric}.

    [nodes] simulated nodes each host a serving-mode {!Ff_shard.Shard}
    ensemble (one arena per logical shard) built over the same
    partition, so a key routes to the same shard index on every node.
    Each logical shard has a {e primary} and a {e backup} replica;
    the client write path is

    {v client --RPC--> primary: apply, group fence (durable)
                       primary --RPC--> backup: apply, group fence,
                                                then persist seq
                       backup durable ack --> primary
                                          \-> client ack v}

    so an acknowledged write is durable on {e both} replicas — the
    NVTraverse discipline lifted across nodes: nothing is
    externalized before it is persistent at its destination.  The
    backup's durable ack is the client's ack (chain replication's tail
    ack): it leaves the backup together with its ack to the primary,
    so a put costs three one-way fabric delays and a get two.  The
    client gets it only once the primary has seen the backup's ack.
    Every other reply comes from the primary: a read, a refusal, and the
    answer to a retry after the backup's ack to the client was lost,
    which the primary serves from the call's cache without applying
    or replicating again.

    The fabric has [nodes + 2] endpoints: node [i] is endpoint [i],
    the control plane (heartbeats, failover) is endpoint [nodes] and
    the client is endpoint [nodes + 1], so {!partition} can cut a
    node's link to the client too.

    {b Term fencing.}  Every replica persists a term/role word in its
    shard arena (root slot {!slot_term}, PR-9 decision-word style:
    one failure-atomic [root_set]).  Requests carry the issuer's
    term; a replica rejects terms below its own, so a deposed primary
    cannot ack writes or serve reads after a failover — its first
    replication attempt is refused by the promoted backup and it
    steps down.

    {b Failover.}  A heartbeat failure detector (control-plane probes
    over the same lossy fabric) promotes the backup when the primary
    goes quiet: the backup persists [term+1, Primary] crash-atomically
    and the route flips.  Acked writes survive because they were
    durable on the backup before the ack.  With no live backup the
    shard degrades to read-only service instead of acking unreplicated
    writes.

    {b Catch-up.}  A rejoining or lagging replica is resynced with a
    {!Ff_pmem.Segment} identity-offset ship of the primary's quiesced
    image into a fresh arena (charged to the fabric as transfer
    time), spliced into its ensemble, then the records issued during
    the copy are streamed from the primary's retained log. *)

module Fabric = Ff_net.Fabric

val slot_term : int
(** Root slot 71: the persisted term/role word, [4*term + role] with
    role 0 = idle, 1 = backup, 2 = primary. *)

val slot_applied : int
(** Root slot 72: the backup's durably-applied replication seqno. *)

val reserved_slots : int list
(** [[71; 72; 73]] for the slot-map audit; slot 73 is reserved for a
    resync epoch marker. *)

type config = {
  nodes : int;  (** simulated nodes (>= 2) *)
  shards : int;  (** logical shards, each with one primary + one backup *)
  inner : string;  (** registry inner index, e.g. ["fastfair"] *)
  words : int;  (** arena words per shard replica *)
  seed : int;
  faults : Fabric.faults;
  log_cap : int;  (** replication-log tail records retained per shard *)
}

val default : config
(** 3 nodes, 4 shards over ["fastfair"], {!Fabric.default_faults}. *)

type t

type werr =
  | Read_only  (** the shard has no live backup and refuses write acks *)
  | Unavailable  (** no reachable primary after retries *)

type stats = {
  s_acks : int;  (** client writes acknowledged *)
  s_read_only : int;  (** writes refused in read-only degradation *)
  s_unavailable : int;  (** ops that exhausted routing retries *)
  s_failovers : int;
  s_resyncs : int;
  s_repl_records : int;  (** replication records durably acked *)
  s_repl_resent : int;  (** records re-shipped to close gaps *)
  s_rpc_sent : int;
  s_rpc_dropped : int;
  s_rpc_dup : int;
  s_last_blackout_ns : int;  (** last ack gap bridged by a failover; -1 if none *)
}

val create : ?tracer:Ff_trace.Trace.t -> config -> t
val config : t -> config
val fabric : t -> Fabric.t
val shard_of_key : t -> int -> int

(** {1 Client operations} *)

val put : t -> int -> int -> (unit, werr) result
val del : t -> int -> (unit, werr) result
val get : t -> int -> (int option, werr) result
(** Routed to the shard's current primary with the route's term; a
    deposed primary answers [not_primary] and the client re-routes,
    so reads never observe a stale authority. *)

(** {1 Control plane} *)

val tick : t -> unit
(** Heartbeat round + failure detector, paced on the fabric clock
    (also invoked opportunistically by client ops). *)

val partition : t -> a:int -> b:int -> unit
(** Cut the fabric link between endpoints [a] and [b] (a node, or the
    client at [nodes + 1]) until {!heal}. *)

val partition_for : t -> a:int -> b:int -> ns:int -> unit
val heal : t -> unit

val kill_node : ?mode:Ff_pmem.Storelog.crash_mode -> t -> int -> unit
(** Power-fail every shard arena of the node (default [Keep_all]) and
    mark it down; its endpoint swallows requests. *)

val restart_node : t -> int -> unit
(** Recover the node's ensemble, re-derive its replica state from the
    persisted term words, and resync every shard it backs from the
    current primary (segment ship + log-tail stream), lifting
    read-only degradation where the resync succeeds.  Where the node
    instead {e resumes primacy} (it restarted without being deposed),
    its backup is re-imaged first so both sides' replication
    watermarks restart coherently — its volatile issued counter
    reloads from a word only backups advance, and a live backup left
    ahead of it would falsely ack recycled seqnos; if that resync
    fails the shard degrades to read-only instead. *)

val failover : t -> shard:int -> bool
(** Explicit promote of the shard's backup (the detector's action);
    [false] when the backup is unreachable. *)

val demote : t -> shard:int -> unit
(** Persist an idle role on the route's {e backup} replica — the
    explicit fencing of a deposed primary after a heal, before its
    resync. *)

val resync : t -> shard:int -> bool
(** Force a catch-up of the route's backup from its primary. *)

val recover_all : t -> unit
(** After a full-cluster crash: recover every down node, then resolve
    each shard's authority from the persisted term words alone —
    highest [(term, role, applied)] wins, PR-9 [resolve] style — bump
    its term, and restore routes.  Shards come back read-only until
    their backups resync. *)

val read_only : t -> shard:int -> bool
val term_of : t -> shard:int -> int
val primary_of : t -> shard:int -> int
val backup_of : t -> shard:int -> int

val shard_arena : t -> node:int -> shard:int -> Ff_pmem.Arena.t
(** The arena currently holding [node]'s replica of [shard] (a resync
    replaces it). *)

val stats : t -> stats
val fences : t -> int
(** Total fences across every node arena (replication overhead). *)

val now_ns : t -> int
val close : t -> unit

val mutant_ack_before_replicate : bool ref
(** Test-only fault: the primary acknowledges client writes {e before}
    (and regardless of) backup replication.  {!Ff_check.Replcheck}
    must catch the lost acks this produces. *)
