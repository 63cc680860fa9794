module Arena = Ff_pmem.Arena
module Storelog = Ff_pmem.Storelog
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module Descriptor = Ff_index.Descriptor

type outcome = {
  points : int;
  tolerated : int;
  recovered : int;
  store_span : int;
  failed_tolerance : int list;
  failed_recovery : int list;
}

(* The default per-point crash mode derives its PRNG directly from the
   crash-point index with Prng.create (SplitMix64), never from
   Hashtbl.hash or any other value that may differ between OCaml
   versions: the (point index, mode) pair is everything a recorded
   counterexample stores, so the same pair must rebuild the identical
   crash state anywhere. *)
let default_mode k = Storelog.Random_eviction (Prng.create k)

(* Evenly spaced, both ends included: i * span / (m - 1) for i < m.
   Once span >= m the gap between neighbours is at least 1, so the
   points stay distinct. *)
let crash_points ~max_points span =
  let m = max 2 max_points in
  if span < m then List.init (span + 1) Fun.id
  else List.init m (fun i -> i * span / (m - 1))

let enumerate ?(max_points = 256) ?(exhaustive = false) ?mode ~base ~reopen
    ~batch ~validate () =
  let mode = match mode with Some m -> m | None -> default_mode in
  (* A reader that cannot tolerate the crash state may raise rather
     than miss; count that as failed validation, not a harness error. *)
  let validate t = try validate t with _ -> false in
  let store_span = Arena.store_span base ~reopen batch in
  let points =
    if exhaustive then List.init (store_span + 1) Fun.id
    else crash_points ~max_points store_span
  in
  let tolerated = ref 0 and recovered = ref 0 in
  let failed_tolerance = ref [] and failed_recovery = ref [] in
  List.iter
    (fun k ->
      let t = reopen (Arena.crash_image base ~reopen batch ~at:k (mode k)) in
      if validate t then incr tolerated else failed_tolerance := k :: !failed_tolerance;
      t.Intf.recover ();
      if validate t then incr recovered else failed_recovery := k :: !failed_recovery)
    points;
  {
    points = List.length points;
    tolerated = !tolerated;
    recovered = !recovered;
    store_span;
    failed_tolerance = List.rev !failed_tolerance;
    failed_recovery = List.rev !failed_recovery;
  }

let enumerate_descriptor ?max_points ?exhaustive ?mode
    ?(config = Descriptor.default_config) ~base ~descriptor ~batch ~validate () =
  if not descriptor.Descriptor.caps.Descriptor.has_recovery then None
  else
    Some
      (enumerate ?max_points ?exhaustive ?mode ~base
         ~reopen:(descriptor.Descriptor.open_existing config)
         ~batch ~validate ())
