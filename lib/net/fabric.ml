module Prng = Ff_util.Prng
module Mcsim = Ff_mcsim.Mcsim

type faults = {
  drop_per_1k : int;
  dup_per_1k : int;
  delay_ns : int;
  jitter_ns : int;
  reorder_per_1k : int;
  reorder_extra_ns : int;
}

let default_faults =
  {
    drop_per_1k = 20;
    dup_per_1k = 10;
    delay_ns = 1_500;
    jitter_ns = 500;
    reorder_per_1k = 30;
    reorder_extra_ns = 4_000;
  }

let calm =
  {
    drop_per_1k = 0;
    dup_per_1k = 0;
    delay_ns = 1_000;
    jitter_ns = 0;
    reorder_per_1k = 0;
    reorder_extra_ns = 0;
  }

type verdict = {
  v_seq : int;
  v_src : int;
  v_dst : int;
  v_deliveries : int list;
  v_cut : bool;
}

(* A pairwise cut; [cut_until < 0] means "until heal". *)
type cut = { cut_a : int; cut_b : int; cut_until : int }

type t = {
  n : int;
  faults : faults;
  rng : Prng.t;
  mutable seq : int;
  mutable cuts : cut list;
  mutable sent : int;
  mutable dropped : int;
  mutable dupped : int;
  mutable vclock : int; (* fallback clock outside Mcsim *)
}

let create ?(faults = default_faults) ~seed ~endpoints () =
  if endpoints < 1 then invalid_arg "Fabric.create: endpoints < 1";
  {
    n = endpoints;
    faults;
    rng = Prng.create seed;
    seq = 0;
    cuts = [];
    sent = 0;
    dropped = 0;
    dupped = 0;
    vclock = 0;
  }

let endpoints t = t.n

let now t =
  match Mcsim.sim_now () with Some ns -> ns | None -> t.vclock

let charge t ns =
  if ns > 0 then
    match Mcsim.sim_now () with
    | Some _ -> Mcsim.charge ns
    | None -> t.vclock <- t.vclock + ns

let check_ep t e name =
  if e < 0 || e >= t.n then
    invalid_arg (Printf.sprintf "Fabric.%s: endpoint %d out of range" name e)

let partition t ~a ~b =
  check_ep t a "partition";
  check_ep t b "partition";
  t.cuts <- { cut_a = a; cut_b = b; cut_until = -1 } :: t.cuts

let partition_for t ~a ~b ~ns =
  check_ep t a "partition_for";
  check_ep t b "partition_for";
  t.cuts <- { cut_a = a; cut_b = b; cut_until = now t + ns } :: t.cuts

let heal t = t.cuts <- []

let cut_live t c = c.cut_until < 0 || now t < c.cut_until

let partitioned t ~a ~b =
  List.exists
    (fun c ->
      cut_live t c
      && ((c.cut_a = a && c.cut_b = b) || (c.cut_a = b && c.cut_b = a)))
    t.cuts

let transmit t ~src ~dst =
  check_ep t src "transmit";
  check_ep t dst "transmit";
  let f = t.faults in
  let seq = t.seq in
  t.seq <- seq + 1;
  t.sent <- t.sent + 1;
  (* Fixed number and order of PRNG draws per call, whatever the
     outcome: the fault plan is a pure function of (seed, call
     sequence) and replays identically. *)
  let r_drop = Prng.int t.rng 1000 in
  let r_dup = Prng.int t.rng 1000 in
  let r_reord = Prng.int t.rng 1000 in
  let j1 = if f.jitter_ns > 0 then Prng.int t.rng f.jitter_ns else 0 in
  let j2 = if f.jitter_ns > 0 then Prng.int t.rng f.jitter_ns else 0 in
  let cut = partitioned t ~a:src ~b:dst in
  let deliveries =
    if cut || r_drop < f.drop_per_1k then []
    else begin
      let d1 =
        f.delay_ns + j1
        + (if r_reord < f.reorder_per_1k then f.reorder_extra_ns else 0)
      in
      if r_dup < f.dup_per_1k then [ d1; f.delay_ns + j2 ] else [ d1 ]
    end
  in
  if deliveries = [] then t.dropped <- t.dropped + 1;
  if List.length deliveries > 1 then t.dupped <- t.dupped + 1;
  { v_seq = seq; v_src = src; v_dst = dst; v_deliveries = deliveries;
    v_cut = cut }

let sends t = t.sent
let drops t = t.dropped
let dups t = t.dupped
