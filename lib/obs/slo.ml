module Histogram = Ff_util.Histogram
module Trace = Ff_trace.Trace
module Metrics = Ff_trace.Metrics
module Json = Ff_trace.Json

(* Declarative SLO rules over a tracer's metrics registry.

   Latency: a percentile of a named latency histogram must stay under
   a bound.  Burn_rate: bad events (summed over a counter prefix, so
   per-shard labels work) per 1000 ops must stay under a budget — the
   error-budget view of degraded/media-fault events. *)

type rule =
  | Latency of {
      rule : string;
      metric : string;
      percentile : float;
      bound_ns : int;
    }
  | Burn_rate of {
      rule : string;
      events : string; (* counter prefix *)
      ops : string; (* counter prefix *)
      max_per_1k : float;
    }
  | Burn_rate_multi of {
      rule : string;
      events : string;
      ops : string;
      max_per_1k : float;
      short_ns : int;
      long_ns : int;
    }
      (* SRE-style multi-window burn rate: fire only when the rate
         exceeds the budget over BOTH the short window (the problem is
         happening now) and the long window (it has been happening
         long enough to matter).  Windowed rates need sample history,
         which lives in the Monitor; the stateless check degrades to
         the lifetime rate. *)

type violation = {
  rule : string;
  detail : string;
  observed : float;
  bound : float;
  at_ns : int;
}

type report = {
  evaluated : int;
  at_ns : int;
  violations : violation list;
}

let ok r = r.violations = []

let check_rule m ~now rule =
  match rule with
  | Latency { rule; metric; percentile; bound_ns } -> (
      match Metrics.histogram m metric with
      | None -> None
      | Some h when Histogram.count h = 0 -> None
      | Some h ->
          let v = Histogram.percentile h percentile in
          if v > bound_ns then
            Some
              {
                rule;
                detail =
                  Printf.sprintf "p%g(%s) = %dns > bound %dns" percentile
                    metric v bound_ns;
                observed = float_of_int v;
                bound = float_of_int bound_ns;
                at_ns = now;
              }
          else None)
  | Burn_rate { rule; events; ops; max_per_1k }
  | Burn_rate_multi { rule; events; ops; max_per_1k; _ } ->
      (* The stateless check sees no history: a multi-window rule
         degrades to its lifetime rate here. *)
      let ev = Metrics.counter_prefix_sum m events in
      let n = Metrics.counter_prefix_sum m ops in
      if n = 0 then None
      else
        let per_1k = 1000. *. float_of_int ev /. float_of_int n in
        if per_1k > max_per_1k then
          Some
            {
              rule;
              detail =
                Printf.sprintf "%d %s events over %d ops = %.3f/1k > budget %g"
                  ev events n per_1k max_per_1k;
              observed = per_1k;
              bound = max_per_1k;
              at_ns = now;
            }
        else None

let evaluate ~tracer ~now rules =
  let m = Trace.metrics tracer in
  {
    evaluated = List.length rules;
    at_ns = now;
    violations = List.filter_map (check_rule m ~now) rules;
  }

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

let violation_json v =
  Json.Obj
    [
      ("rule", Json.Str v.rule);
      ("detail", Json.Str v.detail);
      ("observed", Json.Float v.observed);
      ("bound", Json.Float v.bound);
      ("at_ns", Json.Int v.at_ns);
    ]

let report_to_json r =
  Json.Obj
    [
      ("ok", Json.Bool (ok r));
      ("evaluated", Json.Int r.evaluated);
      ("at_ns", Json.Int r.at_ns);
      ("violations", Json.Arr (List.map violation_json r.violations));
    ]

let pp_report ppf r =
  if ok r then
    Format.fprintf ppf "SLO: ok (%d rules, checked at %dns)@." r.evaluated
      r.at_ns
  else begin
    Format.fprintf ppf "SLO: %d violation(s) of %d rules@."
      (List.length r.violations) r.evaluated;
    List.iter
      (fun v -> Format.fprintf ppf "  VIOLATED %s: %s@." v.rule v.detail)
      r.violations
  end

(* ------------------------------------------------------------------ *)
(* Continuous monitor                                                  *)
(* ------------------------------------------------------------------ *)

module Monitor = struct
  (* Counter readings at past checks, for windowed burn rates. *)
  type sample = { s_at : int; s_ev : int; s_ops : int }

  type nonrec t = {
    rules : rule array;
    tracer : Trace.t;
    window_ns : int;
    mutable next_ns : int;
    mutable checks : int;
    (* Worst observed violation per rule index; a rule fires at most
       one instant event per window (the per-rule counter still counts
       every violating window). *)
    worst : violation option array;
    (* Per-rule sample history, newest first (multi-window rules
       only); pruned to the long window plus one straddling sample. *)
    hist : sample list array;
  }

  let create ?(window_ns = 100_000) ~tracer rules =
    if window_ns <= 0 then invalid_arg "Slo.Monitor.create: window_ns <= 0";
    {
      rules = Array.of_list rules;
      tracer;
      window_ns;
      next_ns = 0;
      checks = 0;
      worst = Array.make (max 1 (List.length rules)) None;
      hist = Array.make (max 1 (List.length rules)) [];
    }

  (* Rate per 1k ops since the newest sample at or before
     [now - window_ns] (the oldest retained sample when history is
     still shorter than the window). *)
  let windowed_rate hist ~now ~window_ns ~ev ~ops =
    let boundary = now - window_ns in
    let rec anchor = function
      | [] -> { s_at = 0; s_ev = 0; s_ops = 0 }
      | [ s ] -> s
      | s :: rest -> if s.s_at <= boundary then s else anchor rest
    in
    let a = anchor hist in
    let dev = ev - a.s_ev and dops = ops - a.s_ops in
    if dev <= 0 then 0.
    else 1000. *. float_of_int dev /. float_of_int (max 1 dops)

  let prune ~boundary hist =
    let rec go = function
      | [] -> []
      | s :: rest -> if s.s_at > boundary then s :: go rest else [ s ]
    in
    go hist

  (* Multi-window burn rate: both the short and the long window must
     exceed the budget.  Needs the monitor's history, so it lives
     here rather than in the stateless [check_rule]. *)
  let check_multi m i ~now ~reg ~rule ~events ~ops ~max_per_1k ~short_ns
      ~long_ns =
    let ev = Metrics.counter_prefix_sum reg events in
    let n = Metrics.counter_prefix_sum reg ops in
    let hist = m.hist.(i) in
    let short_r = windowed_rate hist ~now ~window_ns:short_ns ~ev ~ops:n in
    let long_r = windowed_rate hist ~now ~window_ns:long_ns ~ev ~ops:n in
    m.hist.(i) <-
      prune ~boundary:(now - long_ns)
        ({ s_at = now; s_ev = ev; s_ops = n } :: hist);
    if short_r > max_per_1k && long_r > max_per_1k then
      Some
        {
          rule;
          detail =
            Printf.sprintf
              "%s burning at %.3f/1k (%dns window) and %.3f/1k (%dns window) \
               > budget %g"
              events short_r short_ns long_r long_ns max_per_1k;
          observed = short_r;
          bound = max_per_1k;
          at_ns = now;
        }
    else None

  let check m ~now =
    m.checks <- m.checks + 1;
    let reg = Trace.metrics m.tracer in
    Array.iteri
      (fun i rule ->
        let result =
          match rule with
          | Burn_rate_multi { rule; events; ops; max_per_1k; short_ns; long_ns }
            ->
              check_multi m i ~now ~reg ~rule ~events ~ops ~max_per_1k
                ~short_ns ~long_ns
          | rule -> check_rule reg ~now rule
        in
        match result with
        | None -> ()
        | Some v ->
            Trace.instant m.tracer Trace.id_slo_violation i;
            Metrics.incr reg ("slo.violations." ^ v.rule);
            let keep =
              match m.worst.(i) with
              | Some w when w.observed >= v.observed -> w
              | _ -> v
            in
            m.worst.(i) <- Some keep)
      m.rules;
    m.next_ns <- now + m.window_ns

  let tick m ~now = if now >= m.next_ns then check m ~now
  let checks m = m.checks

  let report m ~now =
    {
      evaluated = Array.length m.rules;
      at_ns = now;
      violations =
        Array.to_list m.worst |> List.filter_map (fun v -> v);
    }
end
