(* Benchmark-side instrumentation: a monotonic host clock, an in-memory
   span store, and the "perfbench-fastfair" registry descriptor — a
   wrapper that delegates to "fastfair" and, while [timed] is set,
   records one span per Intf.ops call.  Nothing here charges simulated
   time, so a timed run must reproduce the plain run's simulated
   numbers exactly (main.ml checks that it does). *)

module Arena = Ff_pmem.Arena
module Stats = Ff_pmem.Stats
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry

let host_ns () = Int64.to_int (Monotonic_clock.now ())

(* Simulated clock of one arena.  Outside Mcsim every access is charged
   to accounting context 0, so its bucket sum is the arena's elapsed
   simulated time; reading it allocates nothing. *)
let sim_ns a = Stats.total_ns (Arena.stats a 0)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

module Spans = struct
  let names =
    [|
      "request"; "shard.submit"; "tpcc.new_order"; "tpcc.payment";
      "tpcc.order_status"; "tpcc.delivery"; "tpcc.stock_level"; "cluster.put";
      "cluster.get"; "index.insert"; "index.search"; "index.range";
      "index.delete"; "index.install"; "index.update"; "index.read_for_update";
      "index.bulk_insert"; "index.recover";
    |]

  let id s =
    let rec go i = if names.(i) = s then i else go (i + 1) in
    go 0

  let request = id "request"
  let submit = id "shard.submit"
  let cluster_put = id "cluster.put"
  let cluster_get = id "cluster.get"
  let first_index = id "index.insert"
  let is_index name = name >= first_index

  (* One span = [stride] ints: name, parent, request id, host start/end
     (ns), simulated start/end (ns), and, for index spans, the PM stores
     and allocations the call made. *)
  let stride = 9
  let buf = ref (Array.make (stride * 4096) 0)
  let n = ref 0
  let stack = ref []
  let req = ref 0
  let on = ref false

  let reset () =
    n := 0;
    stack := [];
    req := 0

  let field i f = !buf.((i * stride) + f)
  let name i = field i 0
  let parent i = field i 1
  let host_dur i = field i 4 - field i 3
  let sim_dur i = field i 6 - field i 5
  let stores i = field i 7
  let allocs i = field i 8

  let open_ ~name ~sim =
    if (!n + 1) * stride > Array.length !buf then begin
      let nb = Array.make (2 * Array.length !buf) 0 in
      Array.blit !buf 0 nb 0 (Array.length !buf);
      buf := nb
    end;
    let i = !n in
    incr n;
    let b = !buf and o = i * stride in
    b.(o) <- name;
    b.(o + 1) <- (match !stack with p :: _ -> p | [] -> -1);
    b.(o + 2) <- !req;
    b.(o + 5) <- sim;
    stack := i :: !stack;
    b.(o + 3) <- host_ns ();
    i

  let close ?(stores = 0) ?(allocs = 0) i ~sim =
    let h = host_ns () in
    let b = !buf and o = i * stride in
    b.(o + 4) <- h;
    b.(o + 6) <- sim;
    b.(o + 7) <- stores;
    b.(o + 8) <- allocs;
    stack := List.tl !stack

  (* [with_ name clock f] runs [f] inside a span when spans are on. *)
  let with_ name clock f =
    if not !on then f ()
    else begin
      let i = open_ ~name ~sim:(clock ()) in
      match f () with
      | r ->
          close i ~sim:(clock ());
          r
      | exception e ->
          close i ~sim:(clock ());
          raise e
    end

  (* Self time per span: its duration minus the part its children
     cover (children nest strictly inside their parent). *)
  let self_host () =
    let self = Array.init !n host_dur in
    for i = 0 to !n - 1 do
      let p = parent i in
      if p >= 0 then self.(p) <- self.(p) - host_dur i
    done;
    self

  (* Write the first 100k spans as TSV (a TPC-C window makes ~600k). *)
  let write path =
    let oc = open_out path in
    output_string oc "id\tname\tparent\treq\thost_start_ns\thost_end_ns\tsim_start_ns\tsim_end_ns\tstores\tallocs\n";
    for i = 0 to min !n 100_000 - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n" i
        names.(name i) (parent i) (field i 2) (field i 3) (field i 4)
        (field i 5) (field i 6) (stores i) (allocs i)
    done;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* The wrapper descriptor                                              *)
(* ------------------------------------------------------------------ *)

let name = "perfbench-fastfair"
let inner = "fastfair"

(* Off: [build] returns the "fastfair" handle itself, so a plain run
   executes exactly the registry structure.  On: every Intf.ops call is
   a span, and the arenas count allocations through an event sink. *)
let timed = ref false

(* Every arena the descriptor built or reopened an instance on — how
   the benchmark reaches the PM of ensembles it did not build itself
   (the cluster's nodes). *)
let arenas : Arena.t list ref = ref []
let allocs = ref 0

let sink =
  {
    Arena.ev_store = ignore;
    ev_flush = ignore;
    ev_fence = ignore;
    ev_alloc = (fun _ _ -> incr allocs);
    ev_free = (fun _ _ -> ());
    ev_crash = ignore;
  }

let attach a =
  if not (List.memq a !arenas) then arenas := a :: !arenas;
  if !timed then Arena.set_event_sink a (Some sink)

let span a name f =
  if not !Spans.on then f ()
  else begin
    let st = Arena.stats a 0 in
    let s0 = st.Stats.stores and a0 = !allocs in
    let i = Spans.open_ ~name ~sim:(Stats.total_ns st) in
    let close () =
      Spans.close i ~sim:(Stats.total_ns st) ~stores:(st.Stats.stores - s0)
        ~allocs:(!allocs - a0)
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let wrap a (o : Intf.ops) =
  if not !timed then o
  else
    let s = Spans.id in
    let insert = s "index.insert" and search = s "index.search"
    and range = s "index.range" and delete = s "index.delete"
    and install = s "index.install" and update = s "index.update"
    and rfu = s "index.read_for_update" and bulk = s "index.bulk_insert"
    and recover = s "index.recover" in
    {
      o with
      Intf.insert = (fun k v -> span a insert (fun () -> o.Intf.insert k v));
      search = (fun k -> span a search (fun () -> o.Intf.search k));
      delete = (fun k -> span a delete (fun () -> o.Intf.delete k));
      range = (fun lo hi f -> span a range (fun () -> o.Intf.range lo hi f));
      update = (fun k v -> span a update (fun () -> o.Intf.update k v));
      bulk_insert = (fun kv -> span a bulk (fun () -> o.Intf.bulk_insert kv));
      read_for_update =
        (fun k -> span a rfu (fun () -> o.Intf.read_for_update k));
      install = (fun k v -> span a install (fun () -> o.Intf.install k v));
      recover = (fun () -> span a recover (fun () -> o.Intf.recover ()));
    }

let () =
  let d = Registry.find_exn inner in
  Registry.register
    {
      d with
      D.name;
      summary = "fastfair behind the benchmark's timing wrapper";
      build =
        (fun cfg a ->
          attach a;
          wrap a (d.D.build cfg a));
      open_existing =
        (fun cfg a ->
          attach a;
          wrap a (d.D.open_existing cfg a));
    };
  match Registry.scrub_provider inner with
  | Some p -> Registry.register_scrub name p
  | None -> failwith "perfbench: fastfair registered no scrub provider"

(* Reset per-instance state before building a fresh system. *)
let fresh ~timing =
  timed := timing;
  Spans.on := false;
  Spans.reset ();
  arenas := [];
  allocs := 0

(* 512-byte nodes, as in the paper's evaluation. *)
let config = { D.default_config with D.node_bytes = Some 512 }
