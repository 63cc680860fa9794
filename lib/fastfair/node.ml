module Arena = Ff_pmem.Arena
module L = Layout
module Trace = Ff_trace.Trace

type search_mode = Linear | Binary

let init a l n ~level ~leftmost ~low =
  ignore l;
  L.set_level a n level;
  L.set_sibling a n 0;
  L.set_switch a n 0;
  L.set_leftmost a n (if level = 0 && leftmost = 0 then n else leftmost);
  L.set_count_hint a n 0;
  L.set_low a n low

(* First zero pointer at or after slot [i]; every slot below [i] is
   known to hold a nonzero pointer. *)
let count_from a l n i =
  let cap = l.L.capacity in
  let rec go i = if i < cap && L.ptr a n i <> 0 then go (i + 1) else i in
  go i

let count a l n = count_from a l n 0

let first_entry a l n =
  let cap = l.L.capacity in
  let rec go i prev_raw =
    if i >= cap then None
    else begin
      let p = L.ptr a n i in
      if p = 0 then None
      else if p <> prev_raw then Some (L.key a n i, p)
      else go (i + 1) p
    end
  in
  go 0 (L.leftmost a n)

let last_entry a l n =
  let cap = l.L.capacity in
  let rec go i =
    if i < 0 then None
    else begin
      let p = L.ptr a n i in
      if p = 0 then go (i - 1)
      else if p <> L.left_ptr_of a n i then Some (L.key a n i, p)
      else go (i - 1)
    end
  in
  go (cap - 1)

type location = Found of int | Absent of { pos : int; count : int }

(* Under the write lock, after lazy recovery, slots below the count
   hint are exactly the valid entries, with ascending keys: only keys
   are read, up to the first one not below [key]. *)
let locate a l n key =
  ignore l;
  let cnt = L.count_hint a n in
  let rec go i =
    if i >= cnt then Absent { pos = i; count = cnt }
    else
      let k = L.key a n i in
      if k = key then Found i
      else if k > key then Absent { pos = i; count = cnt }
      else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Lock-free reads (Algorithm 3)                                       *)
(* ------------------------------------------------------------------ *)

type step = Pass | Stop | Take

(* [left0] when slot 0's left pointer has not been read yet. *)
let unread = -1

(* The check of the slot a walk takes at [i], whose key read [k], in
   the released code's order: the key, the left pointer, the slot's
   own pointer, the key again.  It is valid only if the pointers
   differ and the key did not change, and then the result is
   [Some (take ~last k left p)]; else it is a half-shifted record (the
   paper's endurable transient inconsistency), and the result is
   [None].  Slot 0's left, the leftmost pointer, is written only at
   init: a caller that has read it passes it as [left0], and it is
   loaded here when [left0] is [unread]. *)
let take_slot a n tr ~leaf i k ~left0 ~last take =
  let left =
    if i > 0 then L.ptr a n (i - 1) else if left0 = unread then L.leftmost a n else left0
  in
  let p = L.ptr a n i in
  if p <> left && p <> 0 && L.key a n i = k then Some (take ~last k left p)
  else begin
    Trace.dup_skip tr ~leaf;
    None
  end

(* The one lock-free walk, left to right or right to left: per slot
   the pointer (zero ends the array left to right, and is an empty
   slot right to left), then the key, which [see k p] judges.  A slot
   the caller takes gets [take_slot]'s check, and the walk goes on
   past one that fails it.  No pointer read at one slot is trusted at
   the next: a FAST shift landing between two loads would pair one
   record's value with its neighbour's key.  Left to right, the
   leftmost pointer is read up front with the header line, as [last],
   the pointer of the last slot passed.  The walk ends at the first
   valid slot taken and returns [take ~last k left p] for it, or
   [None] at the end or on [Stop]. *)
let walk a l n tr ~leaf ~rtl ~see ~take =
  let cap = l.L.capacity in
  let rec go i last =
    if i >= 0 && i < cap then begin
      let next = if rtl then i - 1 else i + 1 in
      let p = L.ptr a n i in
      if p = 0 then if rtl then go next last else None
      else
        let k = L.key a n i in
        match see k p with
        | Pass -> go next p
        | Stop -> None
        | Take -> (
            let left0 = if rtl then unread else last in
            match take_slot a n tr ~leaf i k ~left0 ~last take with
            | Some _ as r -> r
            | None -> go next last)
    end
    else None
  in
  if rtl then go (cap - 1) 0 else go 0 (L.leftmost a n)

(* Algorithm 3's retry: walk in the direction the switch counter's
   parity picks (odd while a delete shifts left), and walk again if a
   writer moved the counter meanwhile. *)
let retry a n f =
  let rec attempt budget =
    let sw = L.switch a n in
    let r = f ~rtl:(sw land 1 = 1) in
    if L.switch a n <> sw && budget > 0 then attempt (budget - 1) else r
  in
  attempt 64

let binary_search_leaf a l n key =
  let cfg = Arena.config a in
  let cnt = L.count_hint a n in
  ignore l;
  let rec go lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      Arena.cpu_work a cfg.Ff_pmem.Config.branch_miss_ns;
      let k = L.key a n mid in
      if k = key then Some (L.ptr a n mid)
      else if k < key then go (mid + 1) hi
      else go lo (mid - 1)
    end
  in
  go 0 (cnt - 1)

(* Left to right, an exact match needs no pointer at a slot it
   passes: valid keys are positive and strictly ascending, stay
   non-decreasing through a FAST shift, and the never-written tail
   reads 0.  So the walk reads keys only, up to the first one not
   below [key]; the slot holding [key] gets [take_slot]'s check (the
   key, the left pointer, the slot's own pointer, the key again), and
   a key not above the previous one costs one pointer load, whose zero
   ends the array.  A key above [key] ends the walk whatever its slot
   holds: no later slot can hold [key]. *)
let find_key a l n tr key =
  let cap = l.L.capacity in
  let rec go i prev =
    if i >= cap then None
    else
      let k = L.key a n i in
      if k <= prev && L.ptr a n i = 0 then None
      else if k < key then go (i + 1) k
      else if k > key then None
      else
        match take_slot a n tr ~leaf:true i k ~left0:unread ~last:0 (fun ~last:_ _ _ p -> p) with
        | Some _ as r -> r
        | None -> go (i + 1) k
  in
  go 0 0

let search a l n ~mode ?(tr = Trace.null) key =
  match mode with
  | Binary -> binary_search_leaf a l n key
  | Linear ->
      retry a n @@ fun ~rtl ->
      if rtl then
        walk a l n tr ~leaf:true ~rtl
          ~see:(fun k _ -> if k = key then Take else if k > key then Pass else Stop)
          ~take:(fun ~last:_ _ _ p -> p)
      else find_key a l n tr key

(* The cursor takes the smallest key above [last]: keys ascend, so the
   first one the walk takes. *)
let next_above a l n ?(tr = Trace.null) last =
  walk a l n tr ~leaf:true ~rtl:false
    ~see:(fun k _ -> if k > last then Take else Pass)
    ~take:(fun ~last:_ k _ p -> (k, p))

(* ------------------------------------------------------------------ *)
(* Internal-node routing                                               *)
(* ------------------------------------------------------------------ *)

(* Binary routing reports no separator (the descent sets no finger in
   that mode): [hi] is [max_int] unless the route ran off the end. *)
let binary_route a l n key =
  let cfg = Arena.config a in
  ignore l;
  let cnt = L.count_hint a n in
  (* Largest i with key_i <= key; leftmost child if none. *)
  let rec go lo hi best =
    if lo > hi then best
    else begin
      let mid = (lo + hi) / 2 in
      Arena.cpu_work a cfg.Ff_pmem.Config.branch_miss_ns;
      let k = L.key a n mid in
      if k <= key then go (mid + 1) hi mid else go lo (mid - 1) best
    end
  in
  let best = go 0 (cnt - 1) (-1) in
  ( (if best < 0 then L.leftmost a n else L.ptr a n best),
    if best = cnt - 1 then 0 else max_int )

(* Route picks the child covering [key] and the first valid key
   greater than [key], [hi] (0 when the walk ran off its end: only then
   can a split have moved the key's range to the sibling, the descent's
   B-link move-right test): the left pointer of that first greater
   key, or the last pointer when there is none.  An internal node's
   switch is always even (only [delete] makes it odd; [Tree.delete]
   deletes from leaves only, and [Compact] frees the internal donor it
   deletes from), so the walk is left to right with no switch loads.
   The left pointer is taken only while it is still the pointer of the
   last slot passed (the leftmost pointer when none was), else the
   walk starts again: a separator FAST-inserted behind the walk (into
   a slot it skipped as half written, or into slot 0 before its first
   load) puts its child there, whose range may start above [key], and
   B-link descent can only move right.  [hi] is returned per call:
   under Mcsim a route yields at every load, so scratch state shared
   between calls would mix two descents' bounds. *)
let route a l n ~mode ?(tr = Trace.null) key =
  match mode with
  | Binary -> binary_route a l n key
  | Linear ->
      let rec attempt () =
        let child = ref 0 in
        match
          walk a l n tr ~leaf:false ~rtl:false
            ~see:(fun k p -> if k <= key then (child := p; Pass) else Take)
            ~take:(fun ~last k left _ -> if left = last then Some (left, k) else None)
        with
        | Some (Some r) -> r
        | Some None -> attempt ()
        | None -> ((if !child = 0 then L.leftmost a n else !child), 0)
      in
      attempt ()

(* ------------------------------------------------------------------ *)
(* FAST insertion (Algorithm 1)                                        *)
(* ------------------------------------------------------------------ *)

let record_first_in_line i = i mod 4 = 0

let insert_nonfull a l n ~count:cnt ~key ~value =
  assert (value <> 0);
  let sw = L.switch a n in
  if sw land 1 = 1 then L.set_switch a n (sw + 1);
  assert (cnt < l.L.capacity);
  let rec shift i =
    if i < 0 then begin
      (* The key precedes every entry: invalidate slot 0 by pointing it
         at the left anchor, then commit with the final pointer store. *)
      let anchor = L.leftmost a n in
      L.set_ptr a n 0 anchor;
      Arena.fence_if_not_tso a;
      L.set_key a n 0 key;
      Arena.fence_if_not_tso a;
      L.set_ptr a n 0 value;
      Arena.flush a (n + L.ptr_off 0)
    end
    else begin
      let ki = L.key a n i in
      if ki > key then begin
        (* Shift records[i] to records[i+1]: pointer first, so the
           duplicate-pointer rule hides the half-copied pair. *)
        L.set_ptr a n (i + 1) (L.ptr a n i);
        Arena.fence_if_not_tso a;
        L.set_key a n (i + 1) ki;
        Arena.fence_if_not_tso a;
        (* Crossing into the previous cache line: flush the line we
           are leaving so dirty lines persist in order. *)
        if record_first_in_line (i + 1) then Arena.flush a (n + L.key_off (i + 1));
        shift (i - 1)
      end
      else begin
        L.set_ptr a n (i + 1) (L.ptr a n i);
        Arena.fence_if_not_tso a;
        L.set_key a n (i + 1) key;
        Arena.fence_if_not_tso a;
        L.set_ptr a n (i + 1) value;
        Arena.flush a (n + L.ptr_off (i + 1))
      end
    end
  in
  shift (cnt - 1);
  L.set_count_hint a n (cnt + 1)

(* ------------------------------------------------------------------ *)
(* FAST deletion: left shift                                           *)
(* ------------------------------------------------------------------ *)

let record_last_in_line i = i mod 4 = 3

let remove_at a l n pos =
  assert (pos >= 0);
  let cnt = count_from a l n (pos + 1) in
  for i = pos to cnt - 2 do
    let k = L.key a n (i + 1) and p = L.ptr a n (i + 1) in
    L.set_key a n i k;
    Arena.fence_if_not_tso a;
    L.set_ptr a n i p;
    Arena.fence_if_not_tso a;
    if record_last_in_line i then Arena.flush a (n + L.ptr_off i)
  done;
  L.set_ptr a n (cnt - 1) 0;
  Arena.flush a (n + L.ptr_off (cnt - 1));
  L.set_count_hint a n (cnt - 1)

let delete a l n key =
  let sw = L.switch a n in
  if sw land 1 = 0 then begin
    L.set_switch a n (sw + 1);
    (* The left-shift states a delete creates are only tolerable for
       readers scanning right-to-left; under relaxed persistency the
       parity flip must therefore persist before any shift store does
       (dirty cache lines flushed in order, paper Section VI). *)
    Arena.flush a (n + L.off_switch)
  end;
  match locate a l n key with
  | Absent _ -> false
  | Found pos ->
      remove_at a l n pos;
      true

let update_value a l n ~pos ~value =
  ignore l;
  assert (value <> 0);
  L.set_ptr a n pos value;
  Arena.flush a (n + L.ptr_off pos)

let truncate_from a l n ~count:cnt pos =
  ignore l;
  let rec zero i =
    if i >= pos then begin
      L.set_ptr a n i 0;
      Arena.fence_if_not_tso a;
      if record_first_in_line i && i > pos then Arena.flush a (n + L.ptr_off i);
      zero (i - 1)
    end
  in
  zero (cnt - 1);
  Arena.flush a (n + L.ptr_off pos);
  L.set_count_hint a n pos

(* ------------------------------------------------------------------ *)
(* Lazy recovery (writer side)                                         *)
(* ------------------------------------------------------------------ *)

let writer_fix a l n =
  let cap = l.L.capacity in
  let fixed = ref false in
  let rec pass () =
    (* Find the first anomaly; FAST guarantees at most one per crash,
       but the loop handles any number. *)
    let rec scan i prev_raw prev_valid =
      if i >= cap then None
      else begin
        let p = L.ptr a n i in
        if p = 0 then None
        else if p = prev_raw then Some i (* duplicate-pointer garbage *)
        else begin
          let k = L.key a n i in
          match prev_valid with
          | Some (pk, ppos) when pk = k ->
              (* Two valid entries with equal keys: an interrupted left
                 shift; the left copy is stale. *)
              Some ppos
          | Some _ | None -> scan (i + 1) p (Some (k, i))
        end
      end
    in
    match scan 0 (L.leftmost a n) None with
    | Some pos ->
        fixed := true;
        remove_at a l n pos;
        pass ()
    | None -> L.set_count_hint a n (count a l n)
  in
  pass ();
  !fixed

(* ------------------------------------------------------------------ *)
(* Debug views (uncharged)                                             *)
(* ------------------------------------------------------------------ *)

let peek_ptr a n i = Arena.peek a (n + L.ptr_off i)
let peek_key a n i = Arena.peek a (n + L.key_off i)

let entries_debug a l n =
  let cap = l.L.capacity in
  let leftmost = Arena.peek a (n + L.off_leftmost) in
  let rec go i prev_raw acc =
    if i >= cap then List.rev acc
    else begin
      let p = peek_ptr a n i in
      if p = 0 then List.rev acc
      else if p <> prev_raw then go (i + 1) p ((peek_key a n i, p) :: acc)
      else go (i + 1) p acc
    end
  in
  go 0 leftmost []

let insert_nonfull_unordered a l n ~key ~value =
  assert (value <> 0);
  let cnt = count a l n in
  assert (cnt < l.L.capacity);
  let rec shift i =
    if i < 0 then begin
      L.set_key a n 0 key;
      L.set_ptr a n 0 value;
      Arena.flush a (n + L.ptr_off 0)
    end
    else begin
      let ki = L.key a n i in
      if ki > key then begin
        (* key first, pointer second: the duplicate-pointer rule can no
           longer hide the half-copied pair *)
        L.set_key a n (i + 1) ki;
        L.set_ptr a n (i + 1) (L.ptr a n i);
        shift (i - 1)
      end
      else begin
        L.set_key a n (i + 1) key;
        L.set_ptr a n (i + 1) value;
        Arena.flush a (n + L.ptr_off (i + 1))
      end
    end
  in
  shift (cnt - 1);
  L.set_count_hint a n (cnt + 1)
