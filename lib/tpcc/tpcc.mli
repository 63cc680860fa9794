(** TPC-C-style ACID workload driver (paper Section 5.6, Figure 6).

    A self-contained OLTP workload with the five TPC-C transaction
    types over warehouse / district / customer / order / order-line /
    stock / item / history tables.  All tables live in {e one} index
    instance (the structure under test) using table-tagged composite
    integer keys; row payloads are 8-byte PM cells, and every row
    update allocates a fresh {e shadow cell} and swings the index
    binding through the transaction layer — cell addresses stay unique
    (the index value contract) and the pre-image cell survives for
    rollback.

    Each of the five transaction types runs as a real {!Ff_tx.Tx}
    transaction: multi-key updates are failure-atomic (a crash at any
    point recovers to whole transactions), ~1% of New-Orders carry an
    invalid item and roll back (TPC-C 2.4.1.5), a small slice of
    Payments hit a simulated lock conflict and retry, and the driver's
    volatile bookkeeping is snapshotted around each transaction so an
    abort is observationally a no-op.

    Scales are reduced from full TPC-C (configurable); the transaction
    logic preserves each type's index-operation profile: New-Order is
    insert-heavy, Payment is update-heavy, Order-Status is
    search/range-heavy, Delivery mixes deletes with updates, and
    Stock-Level is two range scans merge-joined on the item id (see
    {!low_stock}). *)

type config = {
  warehouses : int;
  districts : int;       (** per warehouse (TPC-C: 10) *)
  customers : int;       (** per district *)
  items : int;
  seed : int;
}

val default_config : config

type t

val load :
  ?path:Ff_tx.Tx.path ->
  arena:Ff_pmem.Arena.t ->
  Ff_index.Intf.ops ->
  config ->
  t
(** Populate items, warehouses, districts, customers and stock (bulk
    load runs outside transactions), and bind a transaction manager
    using commit path [path] (default [Logged]). *)

(** {1 Transactions}

    Each call runs one full ACID transaction (begin, body, commit)
    and absorbs its aborts/retries into the driver statistics. *)

val new_order : t -> unit
val payment : t -> unit
val order_status : t -> unit
val delivery : t -> unit
val stock_level : t -> unit

val low_stock : t -> w:int -> d:int -> threshold:int -> int
(** The Stock-Level query (TPC-C 2.8.2.2): the number of distinct
    items in the order lines of district [(w, d)]'s last 20 orders
    whose stock in warehouse [w] is below [threshold].  Read-only and
    outside any transaction: one range scan over those order lines,
    then one over the stock rows spanning the smallest to the largest
    item id, merge-joined so each matching stock row is read once.
    {!stock_level} runs it on a random district and threshold. *)

type mix = {
  new_order_pct : int;
  payment_pct : int;
  status_pct : int;
  delivery_pct : int;
  stock_pct : int;
}

val w1 : mix
(** NewOrder 34, Payment 43, Status 5, Delivery 4, StockLevel 14. *)

val w2 : mix  (** 27 / 43 / 15 / 4 / 11 *)

val w3 : mix  (** 20 / 43 / 25 / 4 / 8 *)

val w4 : mix  (** 13 / 43 / 35 / 4 / 5 *)

val run : t -> mix -> txns:int -> unit
(** Execute a randomized transaction stream with the given mix. *)

val orders_created : t -> int
val checksum : t -> int
(** Stable digest of reads performed (keeps work observable and lets
    tests compare runs). *)

val commits : t -> int
val aborts : t -> int
(** Rolled-back transactions (invalid items plus unretried
    conflicts). *)

val retries : t -> int
(** Re-executions after a simulated transient conflict. *)
