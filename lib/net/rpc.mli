(** Request/response RPC over the {!Fabric} with timeouts, per-call
    idempotency and jittered exponential backoff.

    Calls are executed inline on the caller's simulated thread: the
    fabric decides delivery, the caller charges the delays, and the
    endpoint's handler runs synchronously.  A lost request or reply
    costs the caller a timeout and triggers a retry after a
    jittered exponential backoff.  Each call keeps its own idempotency
    cache: the handler runs on the first delivered copy, and duplicate
    deliveries and retries of a request whose {e reply} was lost return
    the cached response instead of re-executing the handler —
    exactly-once effects over an at-least-once fabric.  Every copy and
    retry of a request is delivered before {!call} returns, so the
    cache dies with the call and an endpoint holds no per-request
    state.

    A reply need not come from the callee: a handler may answer that
    another node sent it (chain replication's tail ack), and that
    reply then crosses the sender's link to the caller.  A cached
    answer to a retry is always re-sent by the callee. *)

type 'resp answer =
  | Reply of 'resp  (** sent by the callee once the handler returns *)
  | Reply_from of { node : int; sent_ns : int; resp : 'resp }
      (** sent by fabric address [node] at simulated time [sent_ns]
          (at most {!Fabric.now}); the caller charges only the part of
          its delay that reaches past now *)

type ('req, 'resp) endpoint

val endpoint : node:int -> ('req -> 'resp answer) -> ('req, 'resp) endpoint
(** An endpoint living at fabric address [node], initially up. *)

val set_handler : ('req, 'resp) endpoint -> ('req -> 'resp answer) -> unit
val node : ('req, 'resp) endpoint -> int

val up : ('req, 'resp) endpoint -> bool
val set_up : ('req, 'resp) endpoint -> bool -> unit
(** A down endpoint swallows requests (the caller sees timeouts). *)

val served : ('req, 'resp) endpoint -> int
(** Handler executions (cache misses). *)

val deduped : ('req, 'resp) endpoint -> int
(** Duplicate deliveries and retries answered from their call's
    idempotency cache. *)

type error = Timeout

val retries : int
(** 4: the retransmissions {!call} makes after its first transmit. *)

val call :
  fabric:Fabric.t ->
  rng:Ff_util.Prng.t ->
  src:int ->
  ('req, 'resp) endpoint ->
  'req ->
  ('resp, error) result
(** [call ep req] with up to {!retries} retransmissions.  Each lost
    leg charges a 20us timeout; retry [n] first charges
    [2us lsl (n-1)] plus a uniform jitter of the same magnitude, drawn
    from [rng] — so concurrent callers do not retry in lockstep. *)
