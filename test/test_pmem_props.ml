(* Property-based tests of the PM simulator's semantics — the crash
   experiments are only as trustworthy as these foundations. *)

open Ff_pmem
module Prng = Ff_util.Prng

let base = Arena.reserved_words

(* Random programs of stores/flushes over a small window. *)
type step = Store of int * int | Flush of int | Fence

let gen_program =
  QCheck.Gen.(
    list_size (int_range 1 120)
      (frequency
         [
           (6, map2 (fun a v -> Store (a land 63, (v land 0xffff) + 1)) int int);
           (2, map (fun a -> Flush (a land 63)) int);
           (1, return Fence);
         ]))

let arbitrary_program =
  QCheck.make gen_program
    ~print:(fun steps ->
      String.concat ";"
        (List.map
           (function
             | Store (a, v) -> Printf.sprintf "S(%d,%d)" a v
             | Flush a -> Printf.sprintf "F(%d)" a
             | Fence -> "mf")
           steps))

let run_program a steps =
  List.iter
    (function
      | Store (addr, v) -> Arena.write a (base + addr) v
      | Flush addr -> Arena.flush a (base + addr)
      | Fence -> Arena.fence a)
    steps

let prop_volatile_read_your_writes =
  QCheck.Test.make ~count:200 ~name:"volatile image = last store per word"
    arbitrary_program
    (fun steps ->
      let a = Arena.create ~words:4096 () in
      run_program a steps;
      let model = Hashtbl.create 64 in
      List.iter
        (function Store (addr, v) -> Hashtbl.replace model addr v | Flush _ | Fence -> ())
        steps;
      Hashtbl.fold
        (fun addr v ok -> ok && Arena.read a (base + addr) = v)
        model true)

let prop_flushed_stores_survive_keep_none =
  QCheck.Test.make ~count:200 ~name:"flushed stores survive Keep_none"
    arbitrary_program
    (fun steps ->
      let a = Arena.create ~words:4096 () in
      run_program a steps;
      (* model: value persisted for word w = last store to w at or
         before the last flush covering w's line *)
      let persisted = Hashtbl.create 64 in
      let pending = Hashtbl.create 64 in
      List.iter
        (function
          | Store (addr, v) -> Hashtbl.replace pending addr v
          | Flush addr ->
              let line = (base + addr) / Arena.words_per_line in
              Hashtbl.iter
                (fun w v ->
                  if (base + w) / Arena.words_per_line = line then
                    Hashtbl.replace persisted w v)
                pending;
              Hashtbl.iter
                (fun w _ ->
                  if (base + w) / Arena.words_per_line = line then Hashtbl.remove pending w)
                (Hashtbl.copy pending)
          | Fence -> ())
        steps;
      Arena.power_fail a Storelog.Keep_none;
      Hashtbl.fold
        (fun addr v ok -> ok && Arena.read a (base + addr) = v)
        persisted true)

let prop_keep_all_equals_volatile =
  QCheck.Test.make ~count:200 ~name:"Keep_all crash preserves the volatile image"
    arbitrary_program
    (fun steps ->
      let a = Arena.create ~words:4096 () in
      run_program a steps;
      let snapshot = Array.init 64 (fun i -> Arena.peek a (base + i)) in
      Arena.power_fail a Storelog.Keep_all;
      Array.for_all
        (fun i -> Arena.read a (base + i) = snapshot.(i))
        (Array.init 64 (fun i -> i)))

let prop_random_eviction_per_word_monotone =
  QCheck.Test.make ~count:200
    ~name:"Random_eviction yields per-word store prefixes"
    (QCheck.pair arbitrary_program QCheck.small_int)
    (fun (steps, seed) ->
      let a = Arena.create ~words:4096 () in
      run_program a steps;
      Arena.power_fail a (Storelog.Random_eviction (Prng.create seed));
      (* every word's persisted value is one of the values that word
         held at some point (including its initial 0) *)
      let history = Hashtbl.create 64 in
      for w = 0 to 63 do
        Hashtbl.replace history w [ 0 ]
      done;
      List.iter
        (function
          | Store (addr, v) ->
              Hashtbl.replace history addr (v :: Hashtbl.find history addr)
          | Flush _ | Fence -> ())
        steps;
      Hashtbl.fold
        (fun w vals ok -> ok && List.mem (Arena.read a (base + w)) vals)
        history true)

let prop_clone_equivalence =
  QCheck.Test.make ~count:100 ~name:"clone is observationally identical"
    arbitrary_program
    (fun steps ->
      let a = Arena.create ~words:4096 () in
      run_program a steps;
      Arena.drain a;
      let c = Arena.clone a in
      let same = ref true in
      for w = 0 to 63 do
        if Arena.peek a (base + w) <> Arena.peek c (base + w) then same := false;
        if Arena.peek_persisted a (base + w) <> Arena.peek_persisted c (base + w) then
          same := false
      done;
      !same)

let prop_drain_then_keep_none_is_identity =
  QCheck.Test.make ~count:100 ~name:"drain + Keep_none preserves everything"
    arbitrary_program
    (fun steps ->
      let a = Arena.create ~words:4096 () in
      run_program a steps;
      let snapshot = Array.init 64 (fun i -> Arena.peek a (base + i)) in
      Arena.drain a;
      Arena.power_fail a Storelog.Keep_none;
      Array.for_all (fun i -> Arena.read a (base + i) = snapshot.(i))
        (Array.init 64 (fun i -> i)))

(* [peek_persisted] is the image a crash that loses every pending store
   leaves, and [peek] the one a crash that keeps them all leaves, also
   after a flood of unflushed stores past the store log's high-water
   mark has written the oldest back. *)
let prop_peeks_predict_crashed_images =
  let h = Storelog.high_water in
  QCheck.Test.make ~count:40 ~name:"peek_persisted and peek predict Keep_none and Keep_all"
    QCheck.(
      triple arbitrary_program
        (make
           ~print:(Printf.sprintf "flood of %d")
           Gen.(frequency [ (3, return 0); (1, int_range (h + 1) (h * 3 / 2)) ]))
        small_nat)
    (fun (steps, flood, seed) ->
      let words = 4096 in
      let run () =
        let a = Arena.create ~words () in
        let r = Prng.create seed in
        for i = 1 to flood do
          Arena.write a (base + Prng.int r 64) i;
          if i mod 1000 = 0 then Arena.fence a
        done;
        run_program a steps;
        a
      in
      let agree mode view =
        let a = run () in
        let before = Array.init words (view a) in
        Arena.power_fail a mode;
        Array.for_all Fun.id (Array.init words (fun i -> Arena.peek a i = before.(i)))
      in
      agree Storelog.Keep_none Arena.peek_persisted && agree Storelog.Keep_all Arena.peek)

(* Non-TSO: a fenced store sequence to distinct words can only persist
   downward-closed cuts. *)
let prop_non_tso_respects_fences =
  QCheck.Test.make ~count:300 ~name:"non-TSO crash states respect fences"
    QCheck.(pair small_int (int_bound 6))
    (fun (seed, nwrites) ->
      let nwrites = nwrites + 2 in
      let config = Config.arm () in
      let a = Arena.create ~config ~words:4096 () in
      (* write to one word per line, fence between each *)
      for i = 0 to nwrites - 1 do
        Arena.write a (base + (i * Arena.words_per_line)) (i + 1);
        Arena.fence a
      done;
      Arena.power_fail a (Storelog.Non_tso_random (Prng.create seed));
      (* persisted values must form a prefix: if word i survived, all
         earlier (fence-ordered) words survived *)
      let ok = ref true in
      let seen_zero = ref false in
      for i = 0 to nwrites - 1 do
        let v = Arena.read a (base + (i * Arena.words_per_line)) in
        if v = 0 then seen_zero := true
        else if !seen_zero then ok := false
      done;
      !ok)

(* Differential tests: the flat [Cachesim] and [Storelog] against
   naive list-based references kept here. *)

(* LRU over a list, most recent first. *)
module Lru_ref = struct
  type t = { cap : int; mutable lines : int list; mutable last_miss : int }

  let create cap = { cap; lines = []; last_miss = min_int }

  let access m line =
    if List.mem line m.lines then begin
      m.lines <- line :: List.filter (( <> ) line) m.lines;
      Cachesim.Hit
    end
    else begin
      m.lines <- List.filteri (fun i _ -> i < m.cap) (line :: m.lines);
      let sequential = line = m.last_miss + 1 in
      m.last_miss <- line;
      if sequential then Cachesim.Seq_miss else Cachesim.Miss
    end

  let clear m =
    m.lines <- [];
    m.last_miss <- min_int
end

(* A line stream over [0, 4 * capacity): random lines, sequential
   runs, and an occasional clear (-1). *)
let gen_stream =
  QCheck.Gen.(
    int_range 1 64 >>= fun cap ->
    list_size (int_range 1 600)
      (frequency
         [ (8, int_bound ((4 * cap) - 1)); (3, return (-2)); (1, return (-1)) ])
    >|= fun steps -> (cap, steps))

let prop_cachesim_matches_list_lru =
  QCheck.Test.make ~count:300 ~name:"Cachesim = list LRU"
    (QCheck.make gen_stream ~print:(fun (cap, steps) ->
         Printf.sprintf "cap %d: %s" cap (String.concat " " (List.map string_of_int steps))))
    (fun (cap, steps) ->
      let c = Cachesim.create ~capacity:cap and m = Lru_ref.create cap in
      let prev = ref 0 in
      List.for_all
        (fun step ->
          if step = -1 then begin
            Cachesim.clear c;
            Lru_ref.clear m;
            true
          end
          else begin
            (* -2 continues a sequential run. *)
            let line = if step = -2 then (!prev + 1) mod (4 * cap) else step in
            prev := line;
            Cachesim.access c line = Lru_ref.access m line
            && List.for_all
                 (fun l -> Cachesim.resident c l = List.mem l m.lines)
                 (List.init (4 * cap) Fun.id)
          end)
        steps)

(* The list-and-Hashtbl store log that the flat one replaced. *)
module Log_ref = struct
  type entry = { seq : int; addr : int; value : int; epoch : int }
  type t = { lines : (int, entry list ref) Hashtbl.t; mutable next_seq : int; mutable pending : int }

  let create () = { lines = Hashtbl.create 64; next_seq = 0; pending = 0 }

  let apply t persisted e =
    persisted.(e.addr) <- e.value;
    t.pending <- t.pending - 1

  let iter_stores t f = Hashtbl.iter (fun _ cell -> List.iter f (List.rev !cell)) t.lines
  let fold_stores t f acc = Hashtbl.fold (fun _ cell acc -> List.fold_left f acc !cell) t.lines acc
  let dirty_lines t = List.sort Int.compare (Hashtbl.fold (fun line _ acc -> line :: acc) t.lines [])

  let flush_line t persisted line =
    match Hashtbl.find_opt t.lines line with
    | None -> ()
    | Some cell ->
        List.iter (apply t persisted) (List.rev !cell);
        Hashtbl.remove t.lines line

  let evict_to t persisted target =
    let seqs = List.sort Int.compare (fold_stores t (fun acc e -> e.seq :: acc) []) in
    let cutoff = List.nth seqs (t.pending - target - 1) in
    Hashtbl.filter_map_inplace
      (fun _ cell ->
        let newer, older = List.partition (fun e -> e.seq > cutoff) !cell in
        List.iter (apply t persisted) (List.rev older);
        match newer with
        | [] -> None
        | _ ->
            cell := newer;
            Some cell)
      t.lines

  let record t persisted ~addr ~value ~line ~epoch =
    let e = { seq = t.next_seq; addr; value; epoch } in
    t.next_seq <- t.next_seq + 1;
    t.pending <- t.pending + 1;
    (match Hashtbl.find_opt t.lines line with
    | Some cell -> cell := e :: !cell
    | None -> Hashtbl.add t.lines line (ref [ e ]));
    if t.pending > Storelog.high_water then evict_to t persisted (Storelog.high_water / 2)

  let pending_epochs t = List.sort_uniq Int.compare (fold_stores t (fun acc e -> e.epoch :: acc) [])

  let apply_prefix t persisted rng stores =
    let k = Prng.int rng (List.length stores + 1) in
    List.iteri (fun i e -> if i < k then apply t persisted e) stores

  let apply_non_tso_cutoff t persisted cutoff rng =
    iter_stores t (fun e -> if e.epoch < cutoff then apply t persisted e);
    let by_word = Hashtbl.create 16 in
    iter_stores t (fun e ->
        if e.epoch = cutoff then
          Hashtbl.replace by_word e.addr
            (e :: Option.value ~default:[] (Hashtbl.find_opt by_word e.addr)));
    let words = List.sort Int.compare (Hashtbl.fold (fun addr _ acc -> addr :: acc) by_word []) in
    List.iter (fun addr -> apply_prefix t persisted rng (List.rev (Hashtbl.find by_word addr))) words

  let apply_crash t persisted (mode : Storelog.crash_mode) =
    match mode with
    | Keep_none -> ()
    | Keep_all -> iter_stores t (apply t persisted)
    | Random_eviction rng ->
        List.iter
          (fun line -> apply_prefix t persisted rng (List.rev !(Hashtbl.find t.lines line)))
          (dirty_lines t)
    | Non_tso_random rng ->
        let lo, hi =
          fold_stores t (fun (lo, hi) e -> (Int.min lo e.epoch, Int.max hi e.epoch)) (max_int, min_int)
        in
        if lo <= hi then apply_non_tso_cutoff t persisted (Prng.in_range rng lo (hi + 2)) rng
    | Non_tso_cutoff (cutoff, rng) -> apply_non_tso_cutoff t persisted cutoff rng
end

(* A store-log program over 64 lines: stores, fences (the epoch) and
   line flushes. *)
type log_step = Record of int * int | Bump_epoch | Flush_line of int

let log_words = 512

let gen_log_program ?(flushes = 3) n =
  QCheck.Gen.(
    list_size n
      (frequency
         [
           (12, map2 (fun a v -> Record (a, v + 1)) (int_bound (log_words - 1)) (int_bound 0xffff));
           (1, return Bump_epoch);
           (flushes, map (fun l -> Flush_line l) (int_bound ((log_words / 8) - 1)));
         ]))

(* Run [steps] on both logs, then crash both under every mode built
   from [seed]; every persisted image and the logs' observable state
   must agree.  [Storelog] keeps the image with every store in it, the
   reference the persisted image. *)
let logs_agree steps seed =
  let run () =
    let log = Storelog.create () and p = Array.make log_words 0 in
    let r = Log_ref.create () and q = Array.make log_words 0 in
    let epoch = ref 0 in
    List.iter
      (function
        | Record (addr, value) ->
            let undo = p.(addr) in
            p.(addr) <- value;
            Storelog.record log ~addr ~value ~undo ~line:(addr / 8) ~epoch:!epoch;
            Log_ref.record r q ~addr ~value ~line:(addr / 8) ~epoch:!epoch
        | Bump_epoch -> incr epoch
        | Flush_line line ->
            Storelog.flush_line log line;
            Log_ref.flush_line r q line)
      steps;
    (log, p, r, q)
  in
  let log, p, r, q = run () in
  let epochs = Storelog.pending_epochs log in
  let rolled_back = Array.copy p in
  Storelog.roll_back log ~image:rolled_back;
  let same_state =
    rolled_back = q
    && Array.for_all Fun.id
         (Array.init log_words (fun addr ->
              Storelog.persisted log ~image:p ~line:(addr / 8) addr = q.(addr)))
    && Storelog.pending log = r.Log_ref.pending
    && epochs = Log_ref.pending_epochs r
    && List.sort Int.compare (Storelog.dirty_lines log) = Log_ref.dirty_lines r
    && Storelog.dirty_line_count log = List.length (Log_ref.dirty_lines r)
  in
  let modes =
    [
      (fun () -> Storelog.Keep_none);
      (fun () -> Storelog.Keep_all);
      (fun () -> Storelog.Random_eviction (Prng.create seed));
      (fun () -> Storelog.Non_tso_random (Prng.create seed));
    ]
    (* Every pending epoch as a cutoff, or about eight evenly spread. *)
    @ List.filteri
        (fun i _ -> i mod max 1 (List.length epochs / 8) = 0)
        (List.map (fun e () -> Storelog.Non_tso_cutoff (e, Prng.create seed)) epochs)
  in
  same_state
  && List.for_all
       (fun mode ->
         let log, p, r, q = run () in
         Storelog.apply_crash log ~image:p (mode ());
         Log_ref.apply_crash r q (mode ());
         p = q && Storelog.pending log = 0 && Storelog.dirty_lines log = [])
       modes

let print_log_program steps =
  Printf.sprintf "%d steps: %s" (List.length steps)
    (String.concat ";"
       (List.filteri (fun i _ -> i < 200)
          (List.map
             (function
               | Record (a, v) -> Printf.sprintf "R(%d,%d)" a v
               | Bump_epoch -> "mf"
               | Flush_line l -> Printf.sprintf "F(%d)" l)
             steps)))

let prop_storelog_matches_reference =
  QCheck.Test.make ~count:200 ~name:"Storelog = list store log, every crash mode"
    (QCheck.make ~print:(fun (s, seed) -> Printf.sprintf "seed %d, %s" seed (print_log_program s))
       QCheck.Gen.(pair (gen_log_program (int_range 1 400)) small_nat))
    (fun (steps, seed) -> logs_agree steps seed)

(* Past [high_water] pending stores both logs write back the oldest: a
   flood without flushes crosses the mark, then an ordinary program
   runs on the written-back log. *)
let prop_storelog_matches_reference_past_high_water =
  let h = Storelog.high_water in
  QCheck.Test.make ~count:3 ~name:"Storelog = list store log past high_water"
    (QCheck.make ~print:(fun (s, seed) -> Printf.sprintf "seed %d, %s" seed (print_log_program s))
       QCheck.Gen.(
         pair
           (map2 ( @ )
              (gen_log_program ~flushes:0 (int_range (h * 11 / 10) (h * 3 / 2)))
              (gen_log_program (int_range 1 400)))
           small_nat))
    (fun (steps, seed) ->
      List.length (List.filter (function Record _ -> true | _ -> false) steps) > h
      && logs_agree steps seed)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_volatile_read_your_writes;
      prop_flushed_stores_survive_keep_none;
      prop_keep_all_equals_volatile;
      prop_random_eviction_per_word_monotone;
      prop_clone_equivalence;
      prop_drain_then_keep_none_is_identity;
      prop_peeks_predict_crashed_images;
      prop_non_tso_respects_fences;
      prop_cachesim_matches_list_lru;
      prop_storelog_matches_reference;
      prop_storelog_matches_reference_past_high_water;
    ]
