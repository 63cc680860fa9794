module Mcsim = Ff_mcsim.Mcsim
module Prng = Ff_util.Prng

type decision = { arity : int; choice : int }

type recorder = { mutable rev : decision list; mutable count : int }

let recorder () = { rev = []; count = 0 }
let decisions r = Array.of_list (List.rev r.rev)
let choices r = Array.map (fun d -> d.choice) (decisions r)

let chooser_of_policy = function
  | Mcsim.Fifo -> fun _ -> 0
  | Mcsim.Random rng -> fun tids -> Prng.int rng (Array.length tids)
  | Mcsim.Choose f -> f

(* A policy that replays [prefix] decision-for-decision, falls back to
   [fallback] past the end, records everything it does, and clamps
   out-of-range prefix entries (a replay against a diverged execution
   cannot index past the runnable set; divergence is then visible as a
   mismatched recording rather than a crash of the checker itself). *)
let record_policy ?(prefix = [||]) ~fallback r =
  let fallback = chooser_of_policy fallback in
  Mcsim.Choose
    (fun tids ->
      let arity = Array.length tids in
      let pos = r.count in
      let choice =
        if pos < Array.length prefix then min prefix.(pos) (arity - 1)
        else fallback tids
      in
      let choice = if choice < 0 then 0 else choice in
      r.rev <- { arity; choice } :: r.rev;
      r.count <- r.count + 1;
      choice)

type 'a exploration = { results : 'a list; schedules : int; exhausted : bool }

(* Stateless bounded-exhaustive DFS: re-execute from scratch with a
   decision prefix, let the fallback (first runnable) extend it, then
   backtrack on the deepest decision that still has an untried
   alternative.  With a deterministic simulator the prefix uniquely
   determines the execution, so no state is saved between schedules.
   [max_schedules] bounds the walk; [exhausted] reports whether the
   full (depth-unbounded) tree was covered within the budget. *)
let dfs ~max_schedules run =
  let results = ref [] in
  let schedules = ref 0 in
  let exhausted = ref false in
  let prefix = ref [||] in
  let continue = ref true in
  while !continue && !schedules < max_schedules do
    incr schedules;
    let decisions, result = run ~prefix:!prefix in
    results := result :: !results;
    let pos = ref (Array.length decisions - 1) in
    while !pos >= 0 && decisions.(!pos).choice + 1 >= decisions.(!pos).arity do
      decr pos
    done;
    if !pos < 0 then begin
      continue := false;
      exhausted := true
    end
    else begin
      let p = Array.init (!pos + 1) (fun i -> decisions.(i).choice) in
      p.(!pos) <- p.(!pos) + 1;
      prefix := p
    end
  done;
  { results = List.rev !results; schedules = !schedules; exhausted = !exhausted }

(* PCT sampling: one run per derived seed.  Never exhaustive. *)
let pct ~schedules ~seed run =
  let results = ref [] in
  for i = 0 to schedules - 1 do
    let policy = Mcsim.pct_policy ~seed:(seed + i) in
    results := run ~policy :: !results
  done;
  { results = List.rev !results; schedules; exhausted = false }
