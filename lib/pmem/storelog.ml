module Prng = Ff_util.Prng

(* The arena keeps one image, which already holds every store; the log
   keeps what a crash can still take back.  Pending stores live in a
   slab of parallel int arrays: store [s] is [addr.(s)], [value.(s)]
   and [epoch.(s)], [undo.(s)] is its word's value just before it, and
   [seq.(s)] numbers it in program order across lines (only the
   high-water write-back reads it).  [next.(s)] chains a line's stores
   in program order, or links the free list while [s] is unused, and
   [tail.(s)] is the last store of the chain that [s] heads.  A
   {!Linemap} maps each dirty line to the head of its chain, so a clean
   line has no cell and the log holds the dirty state and nothing else.
   Once the arrays have grown, neither [record] nor [flush_line]
   allocates.

   Chain walks are top-level functions: a local recursive function
   that captures variables allocates a closure per call. *)

type t = {
  mutable addr : int array;
  mutable value : int array;
  mutable undo : int array;
  mutable epoch : int array;
  mutable seq : int array;
  mutable next : int array;
  mutable tail : int array;
  mutable free : int; (* first free slot, [nil] if none *)
  mutable used : int; (* slots [used ..] have never been handed out *)
  table : Linemap.t; (* dirty line -> head store *)
  mutable next_seq : int;
  mutable pending : int;
}

let high_water = 1 lsl 16
let nil = -1
let base_slots = 64

(* A log that empties gives back arrays grown past this many entries,
   so a flood of pending stores does not keep the arena large. *)
let shrink_above = 1024

let set_slab t n =
  t.addr <- Array.make n 0;
  t.value <- Array.make n 0;
  t.undo <- Array.make n 0;
  t.epoch <- Array.make n 0;
  t.seq <- Array.make n 0;
  t.next <- Array.make n nil;
  t.tail <- Array.make n nil;
  t.free <- nil;
  t.used <- 0

let create () =
  let t =
    {
      addr = [||];
      value = [||];
      undo = [||];
      epoch = [||];
      seq = [||];
      next = [||];
      tail = [||];
      free = nil;
      used = 0;
      table = Linemap.create ~bits:6;
      next_seq = 0;
      pending = 0;
    }
  in
  set_slab t base_slots;
  t

let pending t = t.pending
let dirty_line_count t = Linemap.length t.table

let grow_slab t =
  let n = Array.length t.addr in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.addr <- extend t.addr 0;
  t.value <- extend t.value 0;
  t.undo <- extend t.undo 0;
  t.epoch <- extend t.epoch 0;
  t.seq <- extend t.seq 0;
  t.next <- extend t.next nil;
  t.tail <- extend t.tail nil

let alloc_slot t =
  let s = t.free in
  if s <> nil then begin
    t.free <- t.next.(s);
    s
  end
  else begin
    if t.used = Array.length t.addr then grow_slab t;
    t.used <- t.used + 1;
    t.used - 1
  end

let apply t image s = image.(t.addr.(s)) <- t.value.(s)

(* Persist store [s]: the image already holds it, so only its slot goes
   back on the free list. *)
let release t s =
  t.next.(s) <- t.free;
  t.free <- s;
  t.pending <- t.pending - 1

(* Persist the chain from [s] up to the first store newer than
   [cutoff]; return that store, or [nil]. *)
let rec release_upto t cutoff s =
  if s = nil || t.seq.(s) > cutoff then s
  else begin
    let n = t.next.(s) in
    release t s;
    release_upto t cutoff n
  end

(* An empty log starts over from the first slot, and gives back arrays
   that a flood grew. *)
let reset t =
  if Array.length t.addr > shrink_above then set_slab t base_slots
  else begin
    t.free <- nil;
    t.used <- 0
  end;
  Linemap.clear t.table

let flush_line t line =
  let head = Linemap.remove t.table line in
  if head <> Linemap.absent then begin
    ignore (release_upto t max_int head);
    if t.pending = 0 then reset t
  end

let drain t =
  t.pending <- 0;
  reset t

(* A word's persisted value is the undo value of its oldest pending
   store, or the image word if it has none. *)
let rec first_undo t image addr s =
  if s = nil then image.(addr)
  else if t.addr.(s) = addr then t.undo.(s)
  else first_undo t image addr t.next.(s)

let persisted t ~image ~line addr = first_undo t image addr (Linemap.get t.table line)

(* The chain from [s], newest store first. *)
let rec rev_chain t s acc = if s = nil then acc else rev_chain t t.next.(s) (s :: acc)

let roll_back t ~image =
  for i = 0 to Linemap.cells t.table - 1 do
    if Linemap.key t.table i <> Linemap.empty then
      List.iter
        (fun s -> image.(t.addr.(s)) <- t.undo.(s))
        (rev_chain t (Linemap.value t.table i) [])
  done

let rec rebase_from t image s =
  if s <> nil then begin
    t.undo.(s) <- image.(t.addr.(s));
    rebase_from t image t.next.(s)
  end

let rebase_line t ~image line = rebase_from t image (Linemap.get t.table line)

(* Lines hold disjoint words, so only the order within a line matters:
   [iter_stores] visits each line's stores in program order, in table
   order across lines. *)
let iter_stores t f =
  for i = 0 to Linemap.cells t.table - 1 do
    if Linemap.key t.table i <> Linemap.empty then begin
      let s = ref (Linemap.value t.table i) in
      while !s <> nil do
        f !s;
        s := t.next.(!s)
      done
    end
  done

let fold_stores t f acc =
  let acc = ref acc in
  iter_stores t (fun s -> acc := f !acc s);
  !acc

let dirty_lines t =
  let acc = ref [] in
  for i = 0 to Linemap.cells t.table - 1 do
    let line = Linemap.key t.table i in
    if line <> Linemap.empty then acc := line :: !acc
  done;
  !acc

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
   not sorted for: a long run of unflushed stores (the header lines of
   a large bulk load) crosses the mark every [high_water / 2] stores,
   and a sort at each crossing costs more host time than a selection. *)
let evict_to t ~target =
  let seqs = Array.make t.pending 0 in
  ignore (fold_stores t (fun i s -> seqs.(i) <- t.seq.(s); i + 1) 0);
  let cutoff = select seqs (t.pending - target - 1) in
  let table = t.table in
  let i = ref 0 in
  while !i < Linemap.cells table do
    if Linemap.key table !i = Linemap.empty then incr i
    else begin
      let old = Linemap.value table !i in
      let head = release_upto t cutoff old in
      (* A removal shifts a later cell into [i]: look at [i] again.
         A cell that wraps around from the front is looked at twice,
         which is harmless: its stores are all newer than [cutoff]. *)
      if head = nil then Linemap.remove_at table !i
      else begin
        if head <> old then begin
          t.tail.(head) <- t.tail.(old);
          Linemap.set_value table !i head
        end;
        incr i
      end
    end
  done

(* The store that would take the log past [high_water] first writes
   back the oldest until half remain counting itself: the same stores
   persist as if it were logged first, and the slab never holds more
   than [high_water] stores. *)
let record t ~addr ~value ~undo ~line ~epoch =
  if t.pending >= high_water then evict_to t ~target:((high_water / 2) - 1);
  let s = alloc_slot t in
  t.addr.(s) <- addr;
  t.value.(s) <- value;
  t.undo.(s) <- undo;
  t.epoch.(s) <- epoch;
  t.seq.(s) <- t.next_seq;
  t.next.(s) <- nil;
  t.next_seq <- t.next_seq + 1;
  t.pending <- t.pending + 1;
  let head = Linemap.get t.table line in
  if head <> Linemap.absent then begin
    t.next.(t.tail.(head)) <- s;
    t.tail.(head) <- s
  end
  else begin
    t.tail.(s) <- s;
    Linemap.add t.table line s
  end

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

(* Media faults draw word addresses from a private PRNG seeded by
   [fault_seed] alone, so a recorded (seed, index) pair replays the
   identical fault sequence regardless of what the crash mode did:
   flips first (index order), then stuck words. *)
let apply_faults ~image spec =
  let rng = Prng.create spec.fault_seed in
  let span = spec.fault_hi - spec.fault_lo in
  if span <= 0 then []
  else begin
    let faults = ref [] in
    for _ = 1 to spec.flip_words do
      let addr = spec.fault_lo + Prng.int rng span in
      let bit = Prng.int rng 62 in
      image.(addr) <- image.(addr) lxor (1 lsl bit);
      faults := (`Flip, addr) :: !faults
    done;
    for _ = 1 to spec.stuck_words do
      let addr = spec.fault_lo + Prng.int rng span in
      image.(addr) <- max_int;
      faults := (`Stuck, addr) :: !faults
    done;
    List.rev !faults
  end

let pending_epochs t =
  List.sort_uniq Int.compare (fold_stores t (fun acc s -> t.epoch.(s) :: acc) [])

(* [apply_crash] rolls the image back to the persisted state; a crash
   mode then persists stores by applying their values again, without
   releasing them, and [apply_crash] empties the log at once.  All
   randomized modes iterate lines/words in sorted order, never in
   table order: the PRNG draw
   sequence is then a function of the logged stores alone, so a
   recorded (seed, crash point) pair replays to the identical persisted
   image whatever the table layout. *)

(* Persist a random prefix of [stores], given in program order. *)
let apply_prefix t image rng stores =
  let k = Prng.int rng (List.length stores + 1) in
  List.iteri (fun i s -> if i < k then apply t image s) stores

let apply_non_tso_cutoff t image cutoff rng =
  iter_stores t (fun s -> if t.epoch.(s) < cutoff then apply t image s);
  (* Per-word random prefixes at the cutoff epoch. *)
  let by_word = Hashtbl.create 16 in
  iter_stores t (fun s ->
      if t.epoch.(s) = cutoff then
        Hashtbl.replace by_word t.addr.(s)
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_word t.addr.(s))));
  let words = List.sort Int.compare (Hashtbl.fold (fun addr _ acc -> addr :: acc) by_word []) in
  List.iter
    (fun addr -> apply_prefix t image rng (List.rev (Hashtbl.find by_word addr)))
    words

let chain t line = List.rev (rev_chain t (Linemap.get t.table line) [])

let apply_mode t ~image mode =
  match mode with
  | Keep_none -> ()
  | Keep_all -> iter_stores t (apply t image)
  | Random_eviction rng ->
      (* Independent per-line prefix of the line's pending stores. *)
      List.iter
        (fun line -> apply_prefix t image rng (chain t line))
        (List.sort Int.compare (dirty_lines t))
  | Non_tso_random rng ->
      (* Pick an epoch cutoff e*: all pending stores with epoch < e*
         persist; at epoch = e*, each word independently persists a
         random prefix of its store sequence. *)
      let lo, hi =
        fold_stores t
          (fun (lo, hi) s -> (Int.min lo t.epoch.(s), Int.max hi t.epoch.(s)))
          (max_int, min_int)
      in
      if lo <= hi then apply_non_tso_cutoff t image (Prng.in_range rng lo (hi + 2)) rng
  | Non_tso_cutoff (cutoff, rng) -> apply_non_tso_cutoff t image cutoff rng

let apply_crash t ~image mode =
  roll_back t ~image;
  apply_mode t ~image mode;
  drain t
