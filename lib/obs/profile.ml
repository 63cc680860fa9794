module Trace = Ff_trace.Trace

(* The fence-attribution table: per code site (insert, split, scrub,
   batch, ...), how many ordered stores / flushes / fences ran under
   it, normalised per op.  MOD's observation that fence count is the
   cost model for PM structures makes this the table a fence audit
   reads first. *)

type row = {
  site : string;
  spans : int;
  stores : int;
  flushes : int;
  fences : int;
  fences_per_op : float;
}

type t = {
  ops : int;
  total_stores : int;
  total_flushes : int;
  total_fences : int;
  rows : row list; (* sorted by site name *)
}

let of_trace ~ops tracer =
  let per v = if ops <= 0 then 0. else float_of_int v /. float_of_int ops in
  let rows =
    List.map
      (fun (r : Trace.site_row) ->
        {
          site = r.Trace.site;
          spans = r.Trace.spans;
          stores = r.Trace.stores;
          flushes = r.Trace.flushes;
          fences = r.Trace.fences;
          fences_per_op = per r.Trace.fences;
        })
      (Trace.site_table tracer)
  in
  {
    ops;
    total_stores = List.fold_left (fun a r -> a + r.stores) 0 rows;
    total_flushes = List.fold_left (fun a r -> a + r.flushes) 0 rows;
    total_fences = List.fold_left (fun a r -> a + r.fences) 0 rows;
    rows;
  }

let fences_per_op t =
  if t.ops <= 0 then 0. else float_of_int t.total_fences /. float_of_int t.ops

let flushes_per_op t =
  if t.ops <= 0 then 0. else float_of_int t.total_flushes /. float_of_int t.ops

let pp ppf t =
  Format.fprintf ppf "%-14s %8s %9s %9s %8s %10s@." "site" "spans" "stores"
    "flushes" "fences" "fences/op";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s %8d %9d %9d %8d %10.3f@." r.site r.spans
        r.stores r.flushes r.fences r.fences_per_op)
    t.rows;
  Format.fprintf ppf "%-14s %8s %9d %9d %8d %10.3f  (%d ops)@." "total" ""
    t.total_stores t.total_flushes t.total_fences (fences_per_op t) t.ops
