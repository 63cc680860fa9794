(* The four workloads.  Each builds its system through the registry
   (inner structure "perfbench-fastfair", see tap.ml), generates its
   requests from the seed alone, and keeps a model of what every read
   must return and every acknowledged write must leave behind. *)

module Arena = Ff_pmem.Arena
module Stats = Ff_pmem.Stats
module Config = Ff_pmem.Config
module Storelog = Ff_pmem.Storelog
module Prng = Ff_util.Prng
module Zipf = Ff_util.Zipf
module Histogram = Ff_util.Histogram
module Registry = Ff_index.Registry
module Intf = Ff_index.Intf
module W = Ff_workload.Workload
module Shard = Ff_shard.Shard
module Tx = Ff_tx.Tx
module Tpcc = Ff_tpcc.Tpcc
module Cluster = Ff_cluster.Cluster
module Fabric = Ff_net.Fabric

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* Span aggregates over the measured window, indexed by span name. *)
type agg = {
  calls : int array;
  host : int array;
  sim : int array;
  self : int array;
  stores : int array;
  allocs : int array;
}

type t = {
  arenas : unit -> Arena.t list;
  live_keys : unit -> int;
  gen : unit -> unit;  (** draw the next request (untimed) *)
  exec : unit -> unit;  (** issue it: the timed part *)
  settle : unit -> int * int;
      (** check the last request's result against the model (untimed);
          returns (units completed as intended, units failed) *)
  sim_now : unit -> int;  (** simulated clock a request's latency is read on *)
  elapsed_from : unit -> unit -> int;
      (** start a window; the closure returns the simulated time
          [sim_kops] divides by *)
  latency : (unit -> Histogram.t) option;
      (** per-op latencies kept by the system (cumulative); [None] =
          per-request [sim_now] deltas *)
  layer : unit -> agg -> reqs:int -> units:int -> (string * float) list;
      (** start a window; the closure returns this workload's layer
          metrics over it *)
  final_check : unit -> int;
      (** full read check, crash, recovery, durability audit; returns
          the violations, raises [Wrong] on a read mismatch *)
}

(* Every arena of a built system is a TSO PM device with 300 ns reads
   and writes.  Only accounting context 0 is ever used (no Mcsim), so
   one context replaces the default 64 — same simulated costs, 1/64 of
   the cache-simulator memory. *)
let pm = { (Config.pm ~read_ns:300 ~write_ns:300 ()) with Config.max_threads = 1 }

let sum_arenas f arenas = List.fold_left (fun acc a -> acc + f a) 0 arenas
let fences a = (Arena.total_stats a).Stats.fences
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Draw a mix from shuffled decks ([(card, copies)]), as TPC-C's
   clause 5.2.4.2 keys its transaction mix: the proportions are exact
   per deck, so seeds differ in order and keys, not in mix. *)
let deck rng cards =
  let a = Array.of_list (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) cards) in
  let i = ref (Array.length a) in
  fun () ->
    if !i = Array.length a then begin
      Prng.shuffle rng a;
      i := 0
    end;
    incr i;
    a.(!i - 1)

let crash_mode seed = Storelog.Random_eviction (Prng.create (seed lxor 0xc4a54))

(* ------------------------------------------------------------------ *)
(* Serving shard: ingest and lookup                                    *)
(* ------------------------------------------------------------------ *)

type shard_kind = Ingest | Lookup

let shards = 4
let ingest_preload = 200_000
let lookup_preload = 600_000
let ingest_space = 1 lsl 40
let request_ops = 128
let scan_len = 50

(* Shard.submit scans [lo, lo + 4*len]: a key space four times the key
   count makes that about [len] keys. *)
let lookup_space = 4 * lookup_preload

(* Full ascending scan of a serving ensemble into [f]. *)
let scan sh f = Shard.range sh ~lo:1 ~hi:Shard.key_space_hi f

(* 8 MiB of PM per shard: room for ingest's growth over a long loop. *)
let shard_words = 1 lsl 20

(* Preload every shard with the bottom-up bulk loader (leaves 85% full)
   on a fresh arena, reopened through the registry and spliced in place
   of the empty instance Shard.create built. *)
let preload sh keys =
  let d = Registry.find_exn Tap.name in
  let parts = Array.make (Shard.shards sh) [] in
  Array.iter
    (fun k ->
      let i = Shard.shard_of_key sh k in
      parts.(i) <- (k, W.value_of k) :: parts.(i))
    keys;
  Array.iteri
    (fun i kv ->
      let a = Arena.create ~config:pm ~words:shard_words () in
      ignore (Ff_fastfair.Bulk.load ~node_bytes:512 a (Array.of_list kv));
      let ops = d.Ff_index.Descriptor.open_existing Tap.config a in
      ops.Intf.recover ();
      Shard.splice_replace sh ~shard:i ~ops ~arena:a)
    parts

let shard_workload kind ~seed =
  let keys_rng = Prng.create seed in
  let n_pre, space =
    match kind with
    | Ingest -> (ingest_preload, ingest_space)
    | Lookup -> (lookup_preload, lookup_space)
  in
  let keys = W.distinct_uniform keys_rng ~n:n_pre ~space in
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  let partition =
    match kind with
    | Ingest -> Shard.Partition.hash ~shards
    | Lookup -> Shard.Partition.even_range ~shards ~space
  in
  fun () ->
    let rng = Prng.create (W.shard_seed ~base:seed ~shard:1) in
    let sh =
      Shard.create ~pm_config:pm ~words:4096 ~inner_config:Tap.config ~partition
        ~batch_cap:64 ~group:true ~inner:Tap.name ~shards ()
    in
    preload sh keys;
    let arenas () = Array.to_list (Shard.arenas sh) in
    (* The model: live keys (every value is [value_of key]). *)
    let live = Hashtbl.create (2 * n_pre) in
    Array.iter (fun k -> Hashtbl.replace live k ()) keys;
    let zipf = Zipf.create ~n:n_pre ~theta:0.99 in
    let hot () = keys.(Zipf.sample zipf rng) in
    let count_in lo hi =
      (* keys of [sorted] in [lo, hi]; lookup never writes *)
      let rec first l h x = if l >= h then l
        else let m = (l + h) / 2 in
          if sorted.(m) < x then first (m + 1) h x else first l m x in
      first 0 n_pre (hi + 1) - first 0 n_pre lo
    in
    let reads k = if Hashtbl.mem live k then W.value_of k land 0xff else 0 in
    let ops = Array.make request_ops (W.Search 1) in
    let expected = ref 0 and got = ref 0 in
    let ingest_mix = deck rng [ (`Insert, 10); (`Overwrite, 6); (`Read, 3); (`Delete, 1) ] in
    let draw_ingest () =
      match ingest_mix () with
      | `Insert ->
          let rec fresh () =
            let k = 1 + Prng.int rng space in
            if Hashtbl.mem live k then fresh () else k
          in
          let k = fresh () in
          Hashtbl.replace live k ();
          (W.Insert k, 1)
      | `Overwrite ->
          let k = hot () in
          Hashtbl.replace live k ();
          (W.Insert k, 1)
      | `Read ->
          let k = hot () in
          (W.Search k, reads k)
      | `Delete ->
          let k = keys.(Prng.int rng n_pre) in
          if Hashtbl.mem live k then begin
            Hashtbl.remove live k;
            (W.Delete k, 1)
          end
          else (W.Delete k, 0)
    in
    let lookup_mix = deck rng [ (true, 1); (false, 9) ] in
    let draw_lookup () =
      if lookup_mix () then
        let lo = 1 + Prng.int rng space in
        (W.Range (lo, scan_len), count_in lo (lo + (4 * scan_len)))
      else
        let k = keys.(Prng.int rng n_pre) in
        (W.Search k, reads k)
    in
    let draw = match kind with Ingest -> draw_ingest | Lookup -> draw_lookup in
    let rejected () =
      Array.fold_left (fun acc (_, _, r) -> acc + r) 0 (Shard.degraded_stats sh)
    in
    let gen () =
      expected := 0;
      for j = 0 to request_ops - 1 do
        let op, e = draw () in
        ops.(j) <- op;
        expected := !expected + e
      done
    in
    let exec () =
      got := Tap.Spans.with_ Tap.Spans.submit
          (fun () -> sum_arenas Tap.sim_ns (arenas ()))
          (fun () -> Shard.submit sh ops)
    in
    let rejected_before = ref (rejected ()) in
    let settle () =
      (* submit's checksum equals sequential execution of the ops *)
      if !got <> !expected then
        wrong "submit checksum %d, model expects %d" !got !expected;
      let r = rejected () in
      let failed = r - !rejected_before in
      rejected_before := r;
      (request_ops - failed, failed)
    in
    let clocks () = Array.map Tap.sim_ns (Shard.arenas sh) in
    let elapsed_from () =
      let c0 = clocks () in
      fun () ->
        let c = clocks () in
        let m = ref 0 in
        Array.iteri (fun i x -> m := max !m (x - c0.(i))) c;
        !m
    in
    let layer () =
      let b0 = Shard.batches sh and r0 = Shard.routed sh in
      let f0 = sum_arenas fences (arenas ()) in
      let l0 = Histogram.copy (Shard.merged_latency sh) in
      fun agg ~reqs ~units ->
        let batches = Shard.batches sh - b0 in
        let routed = Array.mapi (fun i r -> r - r0.(i)) (Shard.routed sh) in
        let mx = Array.fold_left max 0 routed in
        let total = Array.fold_left ( + ) 0 routed in
        let lat = Histogram.delta (Shard.merged_latency sh) l0 in
        let service =
          let s = ref 0 in
          Array.iteri (fun i v -> if Tap.Spans.is_index i then s := !s + v) agg.sim;
          ratio !s units
        in
        [
          ("shard.self_host_us_per_request",
           ratio agg.self.(Tap.Spans.submit) reqs /. 1000.);
          ("shard.ops_per_batch", ratio units batches);
          ("shard.fences_per_batch",
           ratio (sum_arenas fences (arenas ()) - f0) batches);
          ("shard.route_imbalance",
           ratio (mx * Array.length routed) total);
          ("shard.queue_wait_sim_ns", Float.max 0. (Histogram.mean lat -. service));
        ]
    in
    (* Compare a full scan with the model; returns the mismatches. *)
    let audit () =
      let bad = ref 0 and seen = ref 0 in
      scan sh (fun k v ->
          incr seen;
          if not (Hashtbl.mem live k && v = W.value_of k) then incr bad);
      !bad + abs (Hashtbl.length live - (!seen - !bad))
    in
    let final_check () =
      let m = audit () in
      if m > 0 then wrong "full scan disagrees with the model on %d keys" m;
      Shard.power_fail sh (crash_mode seed);
      Shard.recover sh;
      audit ()
    in
    {
      arenas;
      live_keys = (fun () -> Hashtbl.length live);
      gen;
      exec;
      settle;
      sim_now = (fun () -> sum_arenas Tap.sim_ns (arenas ()));
      elapsed_from;
      latency = Some (fun () -> Shard.merged_latency sh);
      layer;
      final_check;
    }

(* ------------------------------------------------------------------ *)
(* TPC-C over one index through Tx                                     *)
(* ------------------------------------------------------------------ *)

let tpcc_words = 1 lsl 22

(* W1: NewOrder 34, Payment 43, Order-Status 5, Delivery 4, Stock-Level 14. *)
let tpcc_types =
  [|
    ("tpcc.new_order", Tpcc.new_order, 34); ("tpcc.payment", Tpcc.payment, 43);
    ("tpcc.order_status", Tpcc.order_status, 5); ("tpcc.delivery", Tpcc.delivery, 4);
    ("tpcc.stock_level", Tpcc.stock_level, 14);
  |]

(* Composite keys as documented in Tpcc: table tag in bits 56..59,
   warehouse 48..55, district 40..47, order id from bit 8, line below. *)
let tag k = (k lsr 56) land 0xf
let tag_order = 4
let tag_orderline = 5
let tag_stock = 6
let tag_item = 7
let tag_neworder = 9

let tpcc_workload ~seed =
  let cfg = { Tpcc.default_config with Tpcc.seed } in
  fun () ->
    let rng = Prng.create (W.shard_seed ~base:seed ~shard:1) in
    let a = Arena.create ~config:pm ~words:tpcc_words () in
    let idx = Registry.build ~config:Tap.config Tap.name a in
    let t = Tpcc.load ~path:Tx.Logged ~arena:a idx cfg in
    let next = ref 0 in
    let mix = deck rng (Array.to_list (Array.mapi (fun i (_, _, pct) -> (i, pct)) tpcc_types)) in
    let gen () = next := mix () in
    let span_ids = Array.map (fun (n, _, _) -> Tap.Spans.id n) tpcc_types in
    let clock () = Tap.sim_ns a in
    let exec () =
      let _, f, _ = tpcc_types.(!next) in
      Tap.Spans.with_ span_ids.(!next) clock (fun () -> f t)
    in
    let layer () =
      let s0 = Arena.total_stats a in
      let ab0 = Tpcc.aborts t and re0 = Tpcc.retries t in
      fun agg ~reqs ~units:_ ->
        let s = Stats.diff (Arena.total_stats a) s0 in
        let index_calls = ref 0 and self = ref 0 in
        Array.iteri
          (fun i c -> if Tap.Spans.is_index i then index_calls := !index_calls + c)
          agg.calls;
        Array.iter (fun id -> self := !self + agg.self.(id)) span_ids;
        [
          ("tx.fences_per_txn", ratio s.Stats.fences reqs);
          ("tx.flushes_per_txn", ratio s.Stats.flushes reqs);
          ("tx.index_calls_per_txn", ratio !index_calls reqs);
          ("tx.self_host_us_per_txn", ratio !self reqs /. 1000.);
          ("tx.abort_ratio", ratio (Tpcc.aborts t - ab0) reqs);
          ("tx.retry_ratio", ratio (Tpcc.retries t - re0) reqs);
        ]
        @ List.concat_map
            (fun id ->
              let n = agg.calls.(id) in
              [
                (Tap.Spans.names.(id) ^ ".sim_us", ratio agg.sim.(id) n /. 1000.);
                (Tap.Spans.names.(id) ^ ".host_us", ratio agg.host.(id) n /. 1000.);
              ])
            (Array.to_list span_ids)
    in
    let dump ops =
      let m = Hashtbl.create 65536 in
      ops.Intf.range 1 max_int (fun k cell -> Hashtbl.replace m k (cell, Arena.peek a cell));
      m
    in
    (* TPC-C consistency over a scan: every committed order has exactly
       the lines its row announces, plus the static table sizes. *)
    let consistency m =
      let lines = Hashtbl.create 65536 and orders = ref 0 and items = ref 0
      and stock = ref 0 and neworders = ref 0 in
      Hashtbl.iter
        (fun k _ ->
          match tag k with
          | x when x = tag_orderline ->
              let o = k lsr 8 in
              Hashtbl.replace lines o (1 + Option.value ~default:0 (Hashtbl.find_opt lines o))
          | x when x = tag_order -> incr orders
          | x when x = tag_item -> incr items
          | x when x = tag_stock -> incr stock
          | x when x = tag_neworder -> incr neworders
          | _ -> ())
        m;
      if !orders <> Tpcc.orders_created t then
        wrong "%d order rows, driver created %d" !orders (Tpcc.orders_created t);
      if !items <> cfg.Tpcc.items || !stock <> cfg.Tpcc.items * cfg.Tpcc.warehouses then
        wrong "static tables changed: %d items, %d stock rows" !items !stock;
      if !neworders > !orders then wrong "%d new-order rows for %d orders" !neworders !orders;
      Hashtbl.iter
        (fun k (_, v) ->
          if tag k = tag_order then begin
            let olk = ((tag_orderline lsl 56) lor (k land lnot (0xf lsl 56))) lsr 8 in
            let have = Option.value ~default:0 (Hashtbl.find_opt lines olk) in
            if have <> v land 0xff then
              wrong "order %x announces %d lines, has %d" k (v land 0xff) have
          end)
        m
    in
    let final_check () =
      let m = dump idx in
      Hashtbl.iter
        (fun k (cell, _) ->
          if idx.Intf.search k <> Some cell then wrong "search %x disagrees with scan" k)
        m;
      consistency m;
      Arena.power_fail a (crash_mode seed);
      let o = (Registry.find_exn Tap.name).Ff_index.Descriptor.open_existing Tap.config a in
      o.Intf.recover ();
      ignore (Tx.recover (Tx.create ~path:Tx.Logged a o));
      let after = dump o in
      let bad = ref (abs (Hashtbl.length after - Hashtbl.length m)) in
      Hashtbl.iter
        (fun k x -> if Hashtbl.find_opt after k <> Some x then incr bad)
        m;
      !bad
    in
    {
      arenas = (fun () -> [ a ]);
      live_keys = (fun () -> Intf.range_count idx 1 max_int);
      gen;
      exec;
      settle = (fun () -> (1, 0));
      sim_now = clock;
      elapsed_from =
        (fun () ->
          let c0 = clock () in
          fun () -> clock () - c0);
      latency = None;
      layer;
      final_check;
    }

(* ------------------------------------------------------------------ *)
(* Replicated cluster                                                  *)
(* ------------------------------------------------------------------ *)

let repl_preload = 20_000
let repl_space = 4 * repl_preload

let replicated_workload ~seed =
  let pre = W.distinct_uniform (Prng.create seed) ~n:repl_preload ~space:repl_space in
  let cfg =
    {
      Cluster.default with
      Cluster.nodes = 3;
      shards = 4;
      inner = Tap.name;
      words = 1 lsl 18;
      seed;
      faults = Fabric.calm;
    }
  in
  fun () ->
    let rng = Prng.create (W.shard_seed ~base:seed ~shard:1) in
    let c = Cluster.create cfg in
    let model = Hashtbl.create (2 * repl_space) in
    (* Values must be unique per index: a global odd counter. *)
    let serial = ref 0 in
    let fresh_value () =
      incr serial;
      (2 * !serial) + 1
    in
    Array.iter
      (fun k ->
        let v = fresh_value () in
        match Cluster.put c k v with
        | Ok () -> Hashtbl.replace model k v
        | Error _ -> failwith "replicated: preload put refused")
      pre;
    let arenas () = !Tap.arenas in
    let clock () = Cluster.now_ns c + sum_arenas Tap.sim_ns (arenas ()) in
    let put = ref true and key = ref 0 and value = ref 0 in
    let res_put = ref (Ok ()) and res_get = ref (Ok None) in
    let mix = deck rng [ (true, 3); (false, 1) ] in
    let gen () =
      put := mix ();
      key := 1 + Prng.int rng repl_space;
      if !put then value := fresh_value ()
    in
    let exec () =
      if !put then
        res_put :=
          Tap.Spans.with_ Tap.Spans.cluster_put clock (fun () ->
              Cluster.put c !key !value)
      else
        res_get :=
          Tap.Spans.with_ Tap.Spans.cluster_get clock (fun () -> Cluster.get c !key)
    in
    let settle () =
      if !put then (
        match !res_put with
        | Ok () ->
            Hashtbl.replace model !key !value;
            (1, 0)
        | Error _ ->
            (* Unacknowledged: the write may or may not have landed. *)
            Hashtbl.remove model !key;
            (0, 1))
      else
        match !res_get with
        | Ok v ->
            if v <> Hashtbl.find_opt model !key then wrong "get %d: stale or missing" !key;
            (1, 0)
        | Error _ -> (0, 1)
    in
    let layer () =
      let s0 = Cluster.stats c and f0 = Cluster.fences c and n0 = Cluster.now_ns c in
      fun agg ~reqs ~units:_ ->
        let s = Cluster.stats c in
        let acks = s.Cluster.s_acks - s0.Cluster.s_acks in
        let records = s.Cluster.s_repl_records - s0.Cluster.s_repl_records in
        let index_calls = ref 0 in
        Array.iteri
          (fun i n -> if Tap.Spans.is_index i then index_calls := !index_calls + n)
          agg.calls;
        let self = agg.self.(Tap.Spans.cluster_put) + agg.self.(Tap.Spans.cluster_get) in
        [
          ("net.rpc_per_op", ratio (s.Cluster.s_rpc_sent - s0.Cluster.s_rpc_sent) reqs);
          ("net.fabric_ns_per_op", ratio (Cluster.now_ns c - n0) reqs);
          ("cluster.fences_per_ack", ratio (Cluster.fences c - f0) acks);
          ("cluster.repl_records_per_ack", ratio records acks);
          ("cluster.repl_resent_ratio",
           ratio (s.Cluster.s_repl_resent - s0.Cluster.s_repl_resent) records);
          ("cluster.index_calls_per_op", ratio !index_calls reqs);
          ("cluster.self_host_us_per_op", ratio self reqs /. 1000.);
        ]
    in
    let audit () =
      let bad = ref 0 in
      Hashtbl.iter
        (fun k v -> match Cluster.get c k with Ok (Some x) when x = v -> () | _ -> incr bad)
        model;
      !bad
    in
    let final_check () =
      let m = audit () in
      if m > 0 then wrong "%d keys read back stale or missing" m;
      for n = 0 to cfg.Cluster.nodes - 1 do
        Cluster.kill_node ~mode:(crash_mode (seed + n)) c n
      done;
      Cluster.recover_all c;
      audit ()
    in
    {
      arenas;
      live_keys = (fun () -> Hashtbl.length model);
      gen;
      exec;
      settle;
      sim_now = clock;
      elapsed_from =
        (fun () ->
          let c0 = clock () in
          fun () -> clock () - c0);
      latency = None;
      layer;
      final_check;
    }

let names = [ "ingest"; "lookup"; "tpcc"; "replicated" ]

let prepare name ~seed =
  match name with
  | "ingest" -> shard_workload Ingest ~seed
  | "lookup" -> shard_workload Lookup ~seed
  | "tpcc" -> tpcc_workload ~seed
  | "replicated" -> replicated_workload ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
