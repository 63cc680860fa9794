module Histogram = Ff_util.Histogram

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 8; hists = Hashtbl.create 16 }

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.hists

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr t name = Stdlib.incr (counter t name)
let add t name n = counter t name := !(counter t name) + n

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* Per-shard counters fold a dimension into the name
   ("shard.degraded.shard3"); summing a prefix recovers the
   ensemble-wide total without the caller enumerating shards. *)
let counter_prefix_sum t prefix =
  let plen = String.length prefix in
  Hashtbl.fold
    (fun k r acc ->
      if String.length k >= plen && String.sub k 0 plen = prefix then acc + !r
      else acc)
    t.counters 0

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.add t.gauges name (ref v)

let observe t name sample =
  let h =
    match Hashtbl.find_opt t.hists name with
    | Some h -> h
    | None ->
        let h = Histogram.create () in
        Hashtbl.add t.hists name h;
        h
  in
  Histogram.add h sample

let histogram t name = Hashtbl.find_opt t.hists name

(* Per-shard metric names appear on hot paths; memoize so repeated
   lookups don't allocate a fresh string each op. *)
let shard_label =
  let tbl = Hashtbl.create 64 in
  fun base shard ->
    match Hashtbl.find_opt tbl (base, shard) with
    | Some s -> s
    | None ->
        let s = Printf.sprintf "%s.shard%d" base shard in
        Hashtbl.add tbl (base, shard) s;
        s

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("mean", Json.Float (Histogram.mean h));
      ("p50", Json.Int (Histogram.percentile h 50.));
      ("p90", Json.Int (Histogram.percentile h 90.));
      ("p99", Json.Int (Histogram.percentile h 99.));
      ("max", Json.Int (Histogram.max_sample h));
    ]

let to_json t =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, r) -> (k, Json.Int !r)) (sorted_bindings t.counters)) );
      ( "gauges",
        Json.Obj (List.map (fun (k, r) -> (k, Json.Float !r)) (sorted_bindings t.gauges)) );
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) (sorted_bindings t.hists)) );
    ]

let to_json_string t = Json.to_string (to_json t)

let pp_text ppf t =
  List.iter
    (fun (k, r) -> Format.fprintf ppf "%s %d@." k !r)
    (sorted_bindings t.counters);
  List.iter
    (fun (k, r) -> Format.fprintf ppf "%s %g@." k !r)
    (sorted_bindings t.gauges);
  List.iter
    (fun (k, h) ->
      Format.fprintf ppf "%s count=%d mean=%.1f p50=%d p90=%d p99=%d max=%d@." k
        (Histogram.count h) (Histogram.mean h)
        (Histogram.percentile h 50.) (Histogram.percentile h 90.)
        (Histogram.percentile h 99.) (Histogram.max_sample h))
    (sorted_bindings t.hists)
