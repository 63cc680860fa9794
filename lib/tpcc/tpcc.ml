module Arena = Ff_pmem.Arena
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module Descriptor = Ff_index.Descriptor
module Tx = Ff_tx.Tx

type config = {
  warehouses : int;
  districts : int;
  customers : int;
  items : int;
  seed : int;
}

let default_config =
  { warehouses = 4; districts = 10; customers = 300; items = 3000; seed = 42 }

(* Composite keys: tag in bits 56..59, warehouse bits 48..55, district
   bits 40..47, and table-specific low bits; always < 2^60 so every
   index (including WORT) accepts them. *)

let tag_warehouse = 1
let tag_district = 2
let tag_customer = 3
let tag_order = 4
let tag_orderline = 5
let tag_stock = 6
let tag_item = 7
let tag_history = 8
let tag_neworder = 9

let key ~tag ?(w = 0) ?(d = 0) ?(x = 0) ?(y = 0) () =
  (tag lsl 56) lor (w lsl 48) lor (d lsl 40) lor (x lsl 8) lor y

let warehouse_key w = key ~tag:tag_warehouse ~w ()
let district_key w d = key ~tag:tag_district ~w ~d ()
let customer_key w d c = key ~tag:tag_customer ~w ~d ~x:c ()
let order_key w d o = key ~tag:tag_order ~w ~d ~x:o ()
let orderline_key w d o l = key ~tag:tag_orderline ~w ~d ~x:o ~y:l ()
let stock_key w i = key ~tag:tag_stock ~w ~x:i ()
let item_key i = key ~tag:tag_item ~x:i ()
let history_key h = key ~tag:tag_history ~x:h ()
let neworder_key w d o = key ~tag:tag_neworder ~w ~d ~x:o ()

(* Row payloads are single PM words allocated from line-grained pools
   so that every transaction's record writes hit PM like the index
   stores do. *)
type cellpool = { arena : Arena.t; mutable line : int; mutable used : int }

let new_pool arena = { arena; line = 0; used = Arena.words_per_line }

let alloc_cell pool init =
  if pool.used = Arena.words_per_line then begin
    pool.line <- Arena.alloc_raw pool.arena Arena.words_per_line;
    pool.used <- 0
  end;
  let cell = pool.line + pool.used in
  pool.used <- pool.used + 1;
  Arena.write pool.arena cell init;
  cell

type t = {
  cfg : config;
  index : Intf.ops;
  arena : Arena.t;
  pool : cellpool;
  rng : Prng.t;
  tx : Tx.t;
  next_oid : int array; (* per (w, d) *)
  frontier : int array; (* oldest undelivered order per (w, d) *)
  mutable history_seq : int;
  mutable orders : int;
  mutable digest : int;
  mutable retries : int;
}

let wd_index t w d = ((w - 1) * t.cfg.districts) + (d - 1)

let absorb t v = t.digest <- (t.digest * 31) + (v land 0xffff)

(* Bulk load runs outside transactions: each put is a single
   failure-atomic index insert, exactly as before the tx layer. *)
let put_row t k init =
  let cell = alloc_cell t.pool init in
  Arena.flush t.arena cell;
  t.index.Intf.insert k cell

let load ?(path = Tx.Logged) ~arena index cfg =
  let t =
    {
      cfg;
      index;
      arena;
      pool = new_pool arena;
      rng = Prng.create cfg.seed;
      tx = Tx.create ~path arena index;
      next_oid = Array.make (cfg.warehouses * cfg.districts) 1;
      frontier = Array.make (cfg.warehouses * cfg.districts) 1;
      history_seq = 1;
      orders = 0;
      digest = 0;
      retries = 0;
    }
  in
  for i = 1 to cfg.items do
    put_row t (item_key i) (100 + (i mod 900))
  done;
  for w = 1 to cfg.warehouses do
    put_row t (warehouse_key w) 300_000;
    for d = 1 to cfg.districts do
      put_row t (district_key w d) 30_000;
      for c = 1 to cfg.customers do
        put_row t (customer_key w d c) (-10)
      done
    done;
    for i = 1 to cfg.items do
      put_row t (stock_key w i) (10 + Prng.int t.rng 91)
    done
  done;
  t

(* Order-Status and Stock-Level scan; a structure without ordered
   range queries cannot host the tables, and the ACID driver needs the
   transaction hooks to be declared sound. *)
let load_descriptor ?(path = Tx.Logged) ~arena
    ?(dconfig = Descriptor.default_config) d cfg =
  if not d.Descriptor.caps.Descriptor.has_range then
    invalid_arg ("Tpcc: index " ^ d.Descriptor.name ^ " lacks range scans");
  if not d.Descriptor.caps.Descriptor.txnable then
    invalid_arg ("Tpcc: index " ^ d.Descriptor.name ^ " is not txnable");
  load ~path ~arena (d.Descriptor.build dconfig arena) cfg

(* ------------------------------------------------------------------ *)
(* Transactional row access                                            *)
(* ------------------------------------------------------------------ *)

(* Rows update by shadow cell: a new payload cell is allocated, then
   the index binding swings to it through the transaction, which
   persists the cell together with its log record.  Cell addresses
   stay unique (the index value contract), the pre-image cell survives
   untouched for rollback, and a cell orphaned by an abort is ordinary
   leaked garbage the scrub pass reclaims. *)

let read_row t tx k =
  match Tx.get tx k with
  | Some cell ->
      let v = Arena.read t.arena cell in
      absorb t v;
      Some v
  | None -> None

let write_row t tx k v =
  let cell = alloc_cell t.pool v in
  Tx.put ~payload:cell tx k cell

(* ------------------------------------------------------------------ *)
(* Transaction bodies                                                  *)
(* ------------------------------------------------------------------ *)

let rand_w t = 1 + Prng.int t.rng t.cfg.warehouses
let rand_d t = 1 + Prng.int t.rng t.cfg.districts
let rand_c t = 1 + Prng.int t.rng t.cfg.customers
let rand_i t = 1 + Prng.int t.rng t.cfg.items

let new_order_body t tx =
  let w = rand_w t and d = rand_d t and c = rand_c t in
  ignore (read_row t tx (warehouse_key w));
  ignore (read_row t tx (district_key w d));
  ignore (read_row t tx (customer_key w d c));
  let idx = wd_index t w d in
  let o = t.next_oid.(idx) in
  t.next_oid.(idx) <- o + 1;
  t.orders <- t.orders + 1;
  let nlines = 5 + Prng.int t.rng 11 in
  (* TPC-C 2.4.1.5: ~1% of New-Order requests carry an unused item
     number and must roll back after doing their work so far. *)
  let invalid = Prng.int t.rng 100 = 0 in
  write_row t tx (order_key w d o) ((c lsl 8) lor nlines);
  write_row t tx (neworder_key w d o) 1;
  for l = 1 to nlines do
    let i =
      if invalid && l = nlines then t.cfg.items + 1 + Prng.int t.rng 100
      else rand_i t
    in
    (match read_row t tx (item_key i) with
    | Some _ -> ()
    | None -> Tx.abort ~reason:"invalid item" tx);
    let qty = 1 + Prng.int t.rng 10 in
    (match read_row t tx (stock_key w i) with
    | Some s ->
        let s' = if s >= qty + 10 then s - qty else s - qty + 91 in
        write_row t tx (stock_key w i) s'
    | None -> ());
    write_row t tx (orderline_key w d o l) ((i lsl 8) lor qty)
  done

let payment_body t tx =
  let w = rand_w t and d = rand_d t and c = rand_c t in
  (* Simulated lock conflict: a small slice of payments lose their row
     lock and retry — deterministic via the driver PRNG. *)
  if Prng.int t.rng 200 = 0 then Tx.abort ~reason:"transient" tx;
  let amount = 1 + Prng.int t.rng 5000 in
  (match read_row t tx (warehouse_key w) with
  | Some v -> write_row t tx (warehouse_key w) (v + amount)
  | None -> ());
  (match read_row t tx (district_key w d) with
  | Some v -> write_row t tx (district_key w d) (v + amount)
  | None -> ());
  (match read_row t tx (customer_key w d c) with
  | Some v -> write_row t tx (customer_key w d c) (v - amount)
  | None -> ());
  let h = t.history_seq in
  t.history_seq <- h + 1;
  write_row t tx (history_key h) amount

let last_orders t w d n =
  let idx = wd_index t w d in
  let hi_o = t.next_oid.(idx) - 1 in
  let lo_o = max 1 (hi_o - n + 1) in
  if hi_o < 1 then []
  else begin
    let acc = ref [] in
    t.index.Intf.range (order_key w d lo_o) (order_key w d hi_o + 0xff)
      (fun k cell ->
        let o = (k lsr 8) land 0xffffffff in
        acc := (o, cell) :: !acc);
    List.rev !acc
  end

let read_order_lines t w d o =
  t.index.Intf.range (orderline_key w d o 0) (orderline_key w d o 255)
    (fun _ cell -> absorb t (Arena.read t.arena cell))

let order_status_body t tx =
  let w = rand_w t and d = rand_d t in
  let c = rand_c t in
  ignore (read_row t tx (customer_key w d c));
  match List.rev (last_orders t w d 1) with
  | (o, cell) :: _ ->
      absorb t (Arena.read t.arena cell);
      read_order_lines t w d o
  | [] -> ()

let delivery_body t tx =
  let w = rand_w t in
  for d = 1 to t.cfg.districts do
    let idx = wd_index t w d in
    let o = t.frontier.(idx) in
    if o < t.next_oid.(idx) then begin
      match Tx.get tx (neworder_key w d o) with
      | Some _ ->
          ignore (Tx.del tx (neworder_key w d o));
          (match read_row t tx (order_key w d o) with
          | Some v -> write_row t tx (order_key w d o) (v lor (1 lsl 30))
          | None -> ());
          read_order_lines t w d o;
          let c = 1 + (o mod t.cfg.customers) in
          (match read_row t tx (customer_key w d c) with
          | Some v -> write_row t tx (customer_key w d c) (v + 1)
          | None -> ());
          t.frontier.(idx) <- o + 1
      | None -> t.frontier.(idx) <- o + 1
    end
  done

let stock_level_body t tx =
  let w = rand_w t and d = rand_d t in
  let threshold = 10 + Prng.int t.rng 11 in
  let low = ref 0 in
  List.iter
    (fun (o, _) ->
      t.index.Intf.range (orderline_key w d o 0) (orderline_key w d o 255)
        (fun _ cell ->
          let line = Arena.read t.arena cell in
          let i = (line lsr 8) land 0xffffff in
          match read_row t tx (stock_key w i) with
          | Some s -> if s < threshold then incr low
          | None -> ()))
    (last_orders t w d 20);
  absorb t !low

(* ------------------------------------------------------------------ *)
(* ACID execution: commit, abort, retry                                *)
(* ------------------------------------------------------------------ *)

(* Driver-side state (digest, order counters, delivery frontier) is
   snapshotted around each transaction so an abort leaves the driver
   exactly as consistent as the index the tx layer just rolled back.
   "transient" aborts (simulated conflicts) retry with a fresh draw;
   logical rollbacks (invalid item) are final, per the TPC-C spec. *)
let max_retries = 3

let exec t body =
  let rec go attempts =
    let digest = t.digest
    and history_seq = t.history_seq
    and orders = t.orders in
    let next_oid = Array.copy t.next_oid and frontier = Array.copy t.frontier in
    match Tx.run t.tx (fun tx -> body t tx) with
    | Ok () -> true
    | Error reason ->
        t.digest <- digest;
        t.history_seq <- history_seq;
        t.orders <- orders;
        Array.blit next_oid 0 t.next_oid 0 (Array.length next_oid);
        Array.blit frontier 0 t.frontier 0 (Array.length frontier);
        if reason = "transient" && attempts < max_retries then begin
          t.retries <- t.retries + 1;
          go (attempts + 1)
        end
        else false
  in
  go 0

let new_order t = ignore (exec t new_order_body)
let payment t = ignore (exec t payment_body)
let order_status t = ignore (exec t order_status_body)
let delivery t = ignore (exec t delivery_body)
let stock_level t = ignore (exec t stock_level_body)

(* ------------------------------------------------------------------ *)
(* Mixes                                                               *)
(* ------------------------------------------------------------------ *)

type mix = {
  new_order_pct : int;
  payment_pct : int;
  status_pct : int;
  delivery_pct : int;
  stock_pct : int;
}

let w1 = { new_order_pct = 34; payment_pct = 43; status_pct = 5; delivery_pct = 4; stock_pct = 14 }
let w2 = { new_order_pct = 27; payment_pct = 43; status_pct = 15; delivery_pct = 4; stock_pct = 11 }
let w3 = { new_order_pct = 20; payment_pct = 43; status_pct = 25; delivery_pct = 4; stock_pct = 8 }
let w4 = { new_order_pct = 13; payment_pct = 43; status_pct = 35; delivery_pct = 4; stock_pct = 5 }

let run t mix ~txns =
  assert (
    mix.new_order_pct + mix.payment_pct + mix.status_pct + mix.delivery_pct
    + mix.stock_pct
    = 100);
  for _ = 1 to txns do
    let d = Prng.int t.rng 100 in
    if d < mix.new_order_pct then new_order t
    else if d < mix.new_order_pct + mix.payment_pct then payment t
    else if d < mix.new_order_pct + mix.payment_pct + mix.status_pct then
      order_status t
    else if
      d < mix.new_order_pct + mix.payment_pct + mix.status_pct + mix.delivery_pct
    then delivery t
    else stock_level t
  done

let orders_created t = t.orders
let checksum t = t.digest land max_int
let tx_manager t = t.tx
let commits t = Tx.commits t.tx
let aborts t = Tx.aborts t.tx
let retries t = t.retries
