(* perfbench: one run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   --trace 0 builds the system five times (set-up time is the median),
   runs a warm-up, then a closed loop of requests for S seconds, checks
   every result, crashes, recovers and audits.  Simulated metrics come
   from the first [window] requests, so they repeat exactly per seed;
   host metrics cover the whole loop.

   --trace 1 runs the plain loop, then the window again through the
   timing wrapper with spans on, requires the two windows' simulated
   numbers to agree exactly, and reports the per-layer metrics (the
   host timings from the plain loop).

   Prints a metric table, writes DIR/<workload>-<seed>-trace<T>.json
   (plus the spans of a traced run), and ends with one JSON line. *)

module Arena = Ff_pmem.Arena
module Stats = Ff_pmem.Stats
module Histogram = Ff_util.Histogram
module Spans = Tap.Spans
module Wl = Workloads

(* Requests in the deterministic measurement window, and warm-up
   requests before it. *)
let window = function
  | "ingest" | "lookup" -> 400
  | "tpcc" -> 10_000
  | _ -> 20_000

let warmup name = window name / 20

(* Upper bound on requests in one loop: keeps ingest's growing trees
   inside their arenas however fast the host is. *)
let max_requests = function
  | "ingest" -> 12_000
  | "tpcc" -> 60_000
  | _ -> max_int

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of raw samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (r - 1)))

(* Percentile of a log-bucketed histogram, linearly interpolated inside
   its bucket (as Prometheus' histogram_quantile does).  Bucket edges
   and counts are recovered from Histogram.percentile, which maps a
   rank to its bucket's upper bound. *)
let hist_percentile h p =
  let n = Histogram.count h in
  let at r = Histogram.percentile h (100. *. (float_of_int r -. 0.5) /. float_of_int n) in
  let r = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))) in
  let v = at r in
  (* first and last rank inside v's bucket *)
  let rec lo a b = if a >= b then a else let m = (a + b) / 2 in if at m >= v then lo a m else lo (m + 1) b in
  let rec hi a b = if a >= b then a else let m = (a + b + 1) / 2 in if at m <= v then hi m b else hi a (m - 1) in
  let r0 = lo 1 r and r1 = hi r n in
  let b = Histogram.bucket_of v in
  let floor_ = if b = 0 then 0 else Histogram.bound (b - 1) in
  let top = min v (Histogram.bound b) in
  float_of_int floor_
  +. (float_of_int (top - floor_) *. float_of_int (r - r0 + 1) /. float_of_int (r1 - r0 + 1))

let ratio = Wl.ratio

(* ------------------------------------------------------------------ *)
(* Metrics                                                           *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let m ?(samples = 0) name unit_ value = { name; value; unit_; samples }

let index_ops = [ "insert"; "search"; "range"; "delete"; "install" ]
let tpcc_types = [ "new_order"; "payment"; "order_status"; "delivery"; "stock_level" ]

(* Every per-layer metric, in report order, with its unit; a workload
   that does not exercise a layer reports 0 for it. *)
let per_layer_units =
  [
    ("pmem.loads_per_op", "count"); ("pmem.stores_per_op", "count");
    ("pmem.flushes_per_op", "count"); ("pmem.fences_per_op", "count");
    ("pmem.flush_ns_per_op", "ns"); ("pmem.fence_ns_per_op", "ns");
    ("pmem.search_ns_per_op", "ns"); ("pmem.update_ns_per_op", "ns");
    ("pmem.miss_ratio", "ratio"); ("pmem.host_ns_per_access", "ns");
  ]
  @ List.concat_map
      (fun op ->
        [
          ("index." ^ op ^ ".calls_per_op", "count");
          ("index." ^ op ^ ".host_ns", "ns");
          ("index." ^ op ^ ".sim_ns", "ns");
        ])
      index_ops
  @ [
      ("index.stores_per_insert", "count"); ("fastfair.allocs_per_insert", "count");
      ("shard.self_host_us_per_request", "us"); ("shard.ops_per_batch", "count");
      ("shard.fences_per_batch", "count"); ("shard.route_imbalance", "ratio");
      ("shard.queue_wait_sim_ns", "ns"); ("tx.fences_per_txn", "count");
      ("tx.flushes_per_txn", "count"); ("tx.index_calls_per_txn", "count");
      ("tx.self_host_us_per_txn", "us"); ("tx.abort_ratio", "ratio");
      ("tx.retry_ratio", "ratio");
    ]
  @ List.concat_map
      (fun ty -> [ ("tpcc." ^ ty ^ ".sim_us", "us"); ("tpcc." ^ ty ^ ".host_us", "us") ])
      tpcc_types
  @ [
      ("net.rpc_per_op", "count"); ("net.fabric_ns_per_op", "ns");
      ("cluster.fences_per_ack", "count"); ("cluster.repl_records_per_ack", "count");
      ("cluster.repl_resent_ratio", "ratio"); ("cluster.index_calls_per_op", "count");
      ("cluster.self_host_us_per_op", "us"); ("trace.overhead_ratio", "ratio");
      ("fail_ratio", "ratio"); ("durability_violations", "count");
      ("host_kops", "kops"); ("host_p50_us", "us"); ("host_p99_us", "us");
    ]

(* The host timings sit with the unbounded per-layer metrics: on a
   shared host their run-to-run spread exceeds any allowed bound. *)
let end_to_end =
  [
    "sim_kops"; "sim_p50_ns"; "sim_p99_ns"; "sim_p999_ns"; "pm_bytes_per_key";
    "setup_s"; "heap_mb";
  ]

let setups = 5

let total_stats arenas =
  let acc = Stats.create () in
  List.iter (fun a -> Stats.add acc (Arena.total_stats a)) arenas;
  acc

(* pmem.* over a window: simulated, so exactly repeatable per seed. *)
let pmem_metrics (s : Stats.t) units =
  let per x = ratio x units in
  [
    m "pmem.loads_per_op" "count" (per s.loads);
    m "pmem.stores_per_op" "count" (per s.stores);
    m "pmem.flushes_per_op" "count" (per s.flushes);
    m "pmem.fences_per_op" "count" (per s.fences);
    m "pmem.flush_ns_per_op" "ns" (per s.flush_ns);
    m "pmem.fence_ns_per_op" "ns" (per s.fence_ns);
    m "pmem.search_ns_per_op" "ns" (per s.search_ns);
    m "pmem.update_ns_per_op" "ns" (per s.update_ns);
    m "pmem.miss_ratio" "ratio" (ratio s.line_misses (s.line_misses + s.line_hits));
  ]

let aggregate () =
  let k = Array.length Spans.names in
  let agg =
    {
      Wl.calls = Array.make k 0;
      host = Array.make k 0;
      sim = Array.make k 0;
      self = Array.make k 0;
      stores = Array.make k 0;
      allocs = Array.make k 0;
    }
  in
  let self = Spans.self_host () in
  for i = 0 to !Spans.n - 1 do
    let nm = Spans.name i in
    agg.calls.(nm) <- agg.calls.(nm) + 1;
    agg.host.(nm) <- agg.host.(nm) + Spans.host_dur i;
    agg.sim.(nm) <- agg.sim.(nm) + Spans.sim_dur i;
    agg.self.(nm) <- agg.self.(nm) + self.(i);
    agg.stores.(nm) <- agg.stores.(nm) + Spans.stores i;
    agg.allocs.(nm) <- agg.allocs.(nm) + Spans.allocs i
  done;
  agg

let index_metrics (agg : Wl.agg) (s : Stats.t) units =
  let id op = Spans.id ("index." ^ op) in
  let self = ref 0 in
  Array.iteri (fun i v -> if Spans.is_index i then self := !self + v) agg.self;
  let ins = id "insert" in
  List.concat_map
    (fun op ->
      let i = id op in
      let n = agg.calls.(i) in
      [
        m ("index." ^ op ^ ".calls_per_op") "count" (ratio n units);
        m ("index." ^ op ^ ".host_ns") "ns" (ratio agg.host.(i) n);
        m ("index." ^ op ^ ".sim_ns") "ns" (ratio agg.sim.(i) n);
      ])
    index_ops
  @ [
      m "index.stores_per_insert" "count" (ratio agg.stores.(ins) agg.calls.(ins));
      m "fastfair.allocs_per_insert" "count" (ratio agg.allocs.(ins) agg.calls.(ins));
      m "pmem.host_ns_per_access" "ns" (ratio !self (s.loads + s.stores));
    ]

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type loop = {
  sim : metric list;  (** sim_* and pmem.* over the window *)
  layers : metric list;  (** workload layer metrics over the window *)
  window_host_ns : int;  (** host time of the window's requests *)
  window_units : int;
  heap_mb : float;  (** major-heap high-water mark at the window's end *)
  reqs : int;
  units : int;
  failed : int;
  host_ns : int;
  host_lat : float array;  (** per request, us, in loop order *)
  req_units : int array;  (** units per request, in loop order *)
}

let run_loop name (w : Wl.t) ~seconds ~traced ~continue =
  let step () =
    w.gen ();
    w.exec ();
    w.settle ()
  in
  for _ = 1 to warmup name do
    ignore (step ())
  done;
  let win = window name in
  let stats0 = total_stats (w.arenas ()) in
  let elapsed = w.elapsed_from () in
  let layer = w.layer () in
  let hist0 = Option.map (fun h -> Histogram.copy (h ())) w.latency in
  Spans.reset ();
  Spans.on := traced;
  let host_lat = ref (Array.make 4096 0.) and req_units = ref (Array.make 4096 0) in
  let sim_lat = Array.make win 0 in
  let reqs = ref 0 and units = ref 0 and failed = ref 0 and host = ref 0 in
  let snap = ref None in
  let deadline = Tap.host_ns () + int_of_float (seconds *. 1e9) in
  let limit = max_requests name in
  let finished () =
    !reqs >= win
    && ((not continue) || !reqs >= limit || Tap.host_ns () >= deadline)
  in
  while not (finished ()) do
    w.gen ();
    let s0 = w.sim_now () in
    if traced then Spans.req := !reqs;
    let rq = if traced then Spans.open_ ~name:Spans.request ~sim:s0 else 0 in
    let h0 = Tap.host_ns () in
    w.exec ();
    let h1 = Tap.host_ns () in
    let s1 = w.sim_now () in
    if traced then Spans.close rq ~sim:s1;
    let ok, bad = w.settle () in
    if !reqs < win then sim_lat.(!reqs) <- s1 - s0;
    if !reqs >= Array.length !host_lat then begin
      let grow a z = let b = Array.make (2 * !reqs) z in Array.blit a 0 b 0 !reqs; b in
      host_lat := grow !host_lat 0.;
      req_units := grow !req_units 0
    end;
    !host_lat.(!reqs) <- float_of_int (h1 - h0) /. 1000.;
    !req_units.(!reqs) <- ok + bad;
    host := !host + (h1 - h0);
    units := !units + ok + bad;
    failed := !failed + bad;
    incr reqs;
    if !reqs = win then begin
      Spans.on := false;
      let sim_elapsed = elapsed () in
      let s = Stats.diff (total_stats (w.arenas ())) stats0 in
      let percentiles, n =
        match (w.latency, hist0) with
        | Some h, Some h0 ->
            let d = Histogram.delta (h ()) h0 in
            ((fun p -> hist_percentile d p), Histogram.count d)
        | _ ->
            let a = Array.map float_of_int sim_lat in
            Array.sort compare a;
            ((fun p -> percentile a p), win)
      in
      let agg = aggregate () in
      let sim =
        [
          m "sim_kops" "kops" (ratio !units sim_elapsed *. 1e6);
          m ~samples:n "sim_p50_ns" "ns" (percentiles 50.);
          m ~samples:n "sim_p99_ns" "ns" (percentiles 99.);
          m ~samples:n "sim_p999_ns" "ns" (percentiles 99.9);
          m "fail_ratio" "ratio" (ratio !failed !units);
        ]
        @ pmem_metrics s !units
      in
      let layers =
        List.map (fun (k, v) -> m k "" v) (layer agg ~reqs:!reqs ~units:!units)
        @ (if traced then index_metrics agg s !units else [])
      in
      let heap = (Gc.quick_stat ()).Gc.top_heap_words * 8 in
      snap := Some (sim, layers, !host, !units, float_of_int heap /. 1048576.)
    end
  done;
  let sim, layers, window_host_ns, window_units, heap_mb = Option.get !snap in
  {
    sim;
    layers;
    window_host_ns;
    window_units;
    heap_mb;
    reqs = !reqs;
    units = !units;
    failed = !failed;
    host_ns = !host;
    host_lat = Array.sub !host_lat 0 !reqs;
    req_units = Array.sub !req_units 0 !reqs;
  }

(* Host metrics over ten equal consecutive slices of the loop, each
   reported as the median of its per-slice values: the host is shared,
   and the median keeps a slow second or two out of the result. *)
let slices = 10

let host_metrics r =
  let per = r.reqs / slices in
  let slice s =
    let lo = s * per in
    let len = if s = slices - 1 then r.reqs - lo else per in
    let lat = Array.sub r.host_lat lo len in
    let units = Array.fold_left ( + ) 0 (Array.sub r.req_units lo len) in
    let kops = float_of_int units /. Array.fold_left ( +. ) 0. lat *. 1e3 in
    Array.sort compare lat;
    (kops, percentile lat 50., percentile lat 99.)
  in
  let ss = Array.init slices slice in
  let med f = median (Array.map f ss) in
  [
    m "host_kops" "kops" (med (fun (k, _, _) -> k));
    m ~samples:r.reqs "host_p50_us" "us" (med (fun (_, p, _) -> p));
    m ~samples:r.reqs "host_p99_us" "us" (med (fun (_, _, p) -> p));
  ]

let pm_bytes_per_key (w : Wl.t) =
  let words = List.fold_left (fun acc a -> acc + Arena.used_words a) 0 (w.arenas ()) in
  m "pm_bytes_per_key" "B" (ratio (8 * words) (w.live_keys ()))

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line carries value and unit only; the file adds sample
   counts. *)
let json_metrics ~samples ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S%s}" x.name (num x.value)
             x.unit_
             (if samples && x.samples > 0 then Printf.sprintf ", \"samples\": %d" x.samples
              else ""))
         ms)
  ^ "}"

let result_line ?(samples = false) ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (json_metrics ~samples ms)

let print_table ms =
  List.iter
    (fun x ->
      Printf.printf "  %-36s %16s %-6s%s\n" x.name (num x.value) x.unit_
        (if x.samples > 0 then Printf.sprintf " (n=%d)" x.samples else ""))
    ms

(* Fill units from the declared per-layer list and order by it. *)
let per_layer_of ms =
  List.map
    (fun (k, u) ->
      match List.find_opt (fun x -> x.name = k) ms with
      | Some x -> { x with unit_ = u }
      | None -> m k u 0.)
    per_layer_units

let pick names ms = List.filter_map (fun k -> List.find_opt (fun x -> x.name = k) ms) names

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0
  and out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Wl.names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed loop");
      ("--trace", Arg.Set_int trace, " 1 = traced per-layer run");
      ("--out", Arg.Set_string out, " output directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let name = !workload and seed = !seed and traced = !trace = 1 in
  if not (List.mem name Wl.names) then begin
    prerr_endline ("unknown workload: " ^ name);
    exit 2
  end;
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let build = Wl.prepare name ~seed in
  let make ~timing =
    Tap.fresh ~timing;
    Gc.compact ();
    let t0 = Tap.host_ns () in
    let w = build () in
    (w, float_of_int (Tap.host_ns () - t0) /. 1e9)
  in
  let correct = ref true and notes = ref [] in
  let fail msg =
    correct := false;
    notes := msg :: !notes
  in
  let checked (w : Wl.t) =
    match w.final_check () with
    | v ->
        if v > 0 then fail (Printf.sprintf "%d durability violations" v);
        v
    | exception Wl.Wrong msg ->
        fail msg;
        0
  in
  let guarded f = try f () with Wl.Wrong msg -> fail msg; raise Exit in
  let metrics, shown, attempted, failed =
    try
      if not traced then begin
        (* set up several times; keep the last system *)
        let times = Array.make setups 0. and sys = ref None in
        for i = 0 to setups - 1 do
          sys := None;
          let w, dt = make ~timing:false in
          times.(i) <- dt;
          sys := Some w
        done;
        let w = Option.get !sys in
        let r = guarded (fun () -> run_loop name w ~seconds:!seconds ~traced:false ~continue:true) in
        let host = host_metrics r @ [ m "setup_s" "s" (median times) ] in
        let space = [ pm_bytes_per_key w; m "heap_mb" "MiB" r.heap_mb ] in
        let v = checked w in
        let all = r.sim @ host @ space @ [ m "durability_violations" "count" (float_of_int v) ] in
        (all, pick end_to_end all, r.units, r.failed)
      end
      else begin
        let plain, _ = make ~timing:false in
        let p =
          guarded (fun () -> run_loop name plain ~seconds:!seconds ~traced:false ~continue:true)
        in
        let w, _ = make ~timing:true in
        let t = guarded (fun () -> run_loop name w ~seconds:0. ~traced:true ~continue:false) in
        let sig_ r = List.map (fun x -> (x.name, num x.value)) r.sim in
        List.iter2
          (fun (k, a) (_, b) ->
            if a <> b then fail (Printf.sprintf "wrapped run changed %s: %s -> %s" k a b))
          (sig_ p) (sig_ t);
        let kops r = ratio r.window_units r.window_host_ns in
        Spans.write (Filename.concat !out (Printf.sprintf "%s-%d-spans.tsv" name seed));
        let v = checked w in
        let all =
          t.sim @ t.layers @ host_metrics p
          @ [
              m "trace.overhead_ratio" "ratio" (kops t /. kops p);
              m "durability_violations" "count" (float_of_int v);
            ]
        in
        (all, per_layer_of all, t.units, t.failed)
      end
    with Exit -> ([], [], 1, 0)
  in
  Printf.printf "perfbench %s seed=%d trace=%d\n" name seed !trace;
  print_table (if traced then shown else metrics);
  List.iter (fun s -> Printf.printf "  CHECK FAILED: %s\n" s) (List.rev !notes);
  let file = Filename.concat !out (Printf.sprintf "%s-%d-trace%d.json" name seed !trace) in
  let oc = open_out file in
  output_string oc (result_line ~samples:true ~correct:!correct ~attempted ~failed metrics);
  output_char oc '\n';
  close_out oc;
  print_endline (result_line ~correct:!correct ~attempted ~failed shown);
  if not !correct then exit 1
