module Prng = Ff_util.Prng

(* One entry per dirty cache line: the line's pending stores, newest
   first.  Flushing a line applies its stores and drops the entry, so
   the log holds the dirty state and nothing else.  [seq] numbers
   stores in program order across lines; only the high-water write-back
   reads it. *)

type entry = { seq : int; addr : int; value : int; epoch : int }

type t = {
  lines : (int, entry list ref) Hashtbl.t;
  mutable next_seq : int;
  mutable pending : int;
}

let high_water = 1 lsl 16

let create () = { lines = Hashtbl.create 64; next_seq = 0; pending = 0 }
let pending t = t.pending

let apply t persisted e =
  persisted.(e.addr) <- e.value;
  t.pending <- t.pending - 1

(* Lines hold disjoint words, so only the order within a line matters:
   [iter_stores] visits each line's stores in program order. *)
let iter_stores t f = Hashtbl.iter (fun _ cell -> List.iter f (List.rev !cell)) t.lines
let fold_stores t f acc = Hashtbl.fold (fun _ cell acc -> List.fold_left f acc !cell) t.lines acc
let dirty_lines t = Hashtbl.fold (fun line _ acc -> line :: acc) t.lines []

let flush_line t ~persisted line =
  match Hashtbl.find_opt t.lines line with
  | None -> ()
  | Some cell ->
      List.iter (apply t persisted) (List.rev !cell);
      Hashtbl.remove t.lines line

(* Wirth's FIND: the [k]-th smallest element of [a] (0-based), in
   linear expected time; reorders [a]. *)
let select (a : int array) k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let x = a.(k) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < x do incr i done;
      while x < a.(!j) do decr j done;
      if !i <= !j then begin
        let y = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- y;
        incr i;
        decr j
      end
    done;
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done;
  a.(k)

(* Persist the globally oldest stores until [target] remain.  A line's
   oldest stores are a prefix of its program order, so each line
   persists its stores up to one [seq] cutoff.  The cutoff is selected,
   not sorted for: a bulk load that flushes only at the end crosses the
   mark every [high_water / 2] stores, and a sort per crossing doubled
   its host time. *)
let evict_to t ~persisted ~target =
  let seqs = Array.make t.pending 0 in
  ignore (fold_stores t (fun i e -> seqs.(i) <- e.seq; i + 1) 0);
  let cutoff = select seqs (t.pending - target - 1) in
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

let record t ~persisted ~addr ~value ~line ~epoch =
  let e = { seq = t.next_seq; addr; value; epoch } in
  t.next_seq <- t.next_seq + 1;
  t.pending <- t.pending + 1;
  (match Hashtbl.find_opt t.lines line with
  | Some cell -> cell := e :: !cell
  | None -> Hashtbl.add t.lines line (ref [ e ]));
  if t.pending > high_water then evict_to t ~persisted ~target:(high_water / 2)

type fault_spec = {
  fault_seed : int;
  flip_words : int;
  stuck_words : int;
  fault_lo : int;
  fault_hi : int;
}

type crash_mode =
  | Keep_none
  | Keep_all
  | Random_eviction of Prng.t
  | Non_tso_random of Prng.t
  | Non_tso_cutoff of int * Prng.t
  | Media_fault of fault_spec * crash_mode

(* Media faults draw word addresses from a private PRNG seeded by
   [fault_seed] alone, so a recorded (seed, index) pair replays the
   identical fault sequence regardless of what the base crash mode
   did: flips first (index order), then stuck words. *)
let apply_faults ~persisted spec =
  let rng = Prng.create spec.fault_seed in
  let span = spec.fault_hi - spec.fault_lo in
  if span <= 0 then []
  else begin
    let faults = ref [] in
    for _ = 1 to spec.flip_words do
      let addr = spec.fault_lo + Prng.int rng span in
      let bit = Prng.int rng 62 in
      persisted.(addr) <- persisted.(addr) lxor (1 lsl bit);
      faults := (`Flip, addr) :: !faults
    done;
    for _ = 1 to spec.stuck_words do
      let addr = spec.fault_lo + Prng.int rng span in
      persisted.(addr) <- max_int;
      faults := (`Stuck, addr) :: !faults
    done;
    List.rev !faults
  end

let pending_epochs t =
  List.sort_uniq Int.compare (fold_stores t (fun acc e -> e.epoch :: acc) [])

(* All randomized modes iterate lines/words in sorted order, never in
   Hashtbl order: the PRNG draw sequence is then a function of the
   logged stores alone, so a recorded (seed, crash point) pair replays
   to the identical persisted image on any OCaml version (Hashtbl
   iteration order depends on Hashtbl.hash internals and is not a
   cross-version contract). *)

(* Persist a random prefix of [stores], given in program order. *)
let apply_prefix t persisted rng stores =
  let k = Prng.int rng (List.length stores + 1) in
  List.iteri (fun i e -> if i < k then apply t persisted e) stores

let apply_non_tso_cutoff t persisted cutoff rng =
  iter_stores t (fun e -> if e.epoch < cutoff then apply t persisted e);
  (* Per-word random prefixes at the cutoff epoch. *)
  let by_word = Hashtbl.create 16 in
  iter_stores t (fun e ->
      if e.epoch = cutoff then
        Hashtbl.replace by_word e.addr
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_word e.addr)));
  let words = List.sort Int.compare (Hashtbl.fold (fun addr _ acc -> addr :: acc) by_word []) in
  List.iter
    (fun addr -> apply_prefix t persisted rng (List.rev (Hashtbl.find by_word addr)))
    words

let rec apply_mode t ~persisted mode =
  match mode with
  | Keep_none -> ()
  | Keep_all -> iter_stores t (apply t persisted)
  | Random_eviction rng ->
      (* Independent per-line prefix of the line's pending stores. *)
      List.iter
        (fun line -> apply_prefix t persisted rng (List.rev !(Hashtbl.find t.lines line)))
        (List.sort Int.compare (dirty_lines t))
  | Non_tso_random rng ->
      (* Pick an epoch cutoff e*: all pending stores with epoch < e*
         persist; at epoch = e*, each word independently persists a
         random prefix of its store sequence. *)
      let lo, hi =
        fold_stores t
          (fun (lo, hi) e -> (Int.min lo e.epoch, Int.max hi e.epoch))
          (max_int, min_int)
      in
      if lo <= hi then apply_non_tso_cutoff t persisted (Prng.in_range rng lo (hi + 2)) rng
  | Non_tso_cutoff (cutoff, rng) -> apply_non_tso_cutoff t persisted cutoff rng
  | Media_fault (spec, base) ->
      (* Base crash state first, then the media damage on top: the
         fault model corrupts whatever the crash left behind. *)
      apply_mode t ~persisted base;
      ignore (apply_faults ~persisted spec)

let apply_crash t ~persisted mode =
  apply_mode t ~persisted mode;
  Hashtbl.reset t.lines;
  t.pending <- 0
