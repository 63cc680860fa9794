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

let count a l n =
  let cap = l.L.capacity in
  let rec go i = if i < cap && L.ptr a n i <> 0 then go (i + 1) else i in
  go 0

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

let find_exact a l n key =
  let cap = l.L.capacity in
  let rec go i prev_raw =
    if i >= cap then None
    else begin
      let p = L.ptr a n i in
      if p = 0 then None
      else begin
        let k = L.key a n i in
        if p <> prev_raw then
          if k = key then Some i else if k > key then None else go (i + 1) p
        else go (i + 1) p
      end
    end
  in
  go 0 (L.leftmost a n)

(* ------------------------------------------------------------------ *)
(* Lock-free search (Algorithm 3)                                      *)
(* ------------------------------------------------------------------ *)

let scan_left_to_right a l n tr key =
  let cap = l.L.capacity in
  let rec go i prev_raw =
    if i >= cap then None
    else begin
      let p = L.ptr a n i in
      if p = 0 then None
      else begin
        let k = L.key a n i in
        if p <> prev_raw then
          if k = key then
            (* Double-read: the (key, ptr) pair is two separate words;
               re-checking the key rejects a half-shifted pair. *)
            if L.key a n i = key then Some p else go (i + 1) p
          else if k > key then None
          else go (i + 1) p
        else begin
          (* Duplicate adjacent pointers: a half-shifted record; the
             paper's endurable transient inconsistency, tolerated by
             skipping. *)
          Trace.dup_skip tr ~leaf:true;
          go (i + 1) p
        end
      end
    end
  in
  go 0 (L.leftmost a n)

let scan_right_to_left a l n tr key =
  let cap = l.L.capacity in
  let rec go i =
    if i < 0 then None
    else begin
      let p = L.ptr a n i in
      if p = 0 then go (i - 1)
      else if p <> L.left_ptr_of a n i then begin
        let k = L.key a n i in
        if k = key then if L.key a n i = key then Some p else go (i - 1)
        else if k < key then None
        else go (i - 1)
      end
      else begin
        Trace.dup_skip tr ~leaf:true;
        go (i - 1)
      end
    end
  in
  go (cap - 1)

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

let search a l n ~mode ?(tr = Trace.null) key =
  match mode with
  | Binary -> binary_search_leaf a l n key
  | Linear ->
      let rec attempt budget =
        let sw = L.switch a n in
        let ret =
          if sw land 1 = 0 then scan_left_to_right a l n tr key
          else scan_right_to_left a l n tr key
        in
        if L.switch a n <> sw && budget > 0 then attempt (budget - 1) else ret
      in
      attempt 64

(* ------------------------------------------------------------------ *)
(* Internal-node routing                                               *)
(* ------------------------------------------------------------------ *)

(* Each route also reports whether the scan ran off its end: no valid
   entry greater than [key], so a split may have moved the key's range
   to the sibling (the descent's B-link move-right test). *)
let route_left_to_right a l n tr key =
  let cap = l.L.capacity in
  let leftmost = L.leftmost a n in
  let rec go i prev_raw child =
    if i >= cap then (child, true)
    else begin
      let p = L.ptr a n i in
      if p = 0 then (child, true)
      else begin
        let k = L.key a n i in
        if p <> prev_raw then
          if k <= key then go (i + 1) p p else (child, false)
        else begin
          Trace.dup_skip tr ~leaf:false;
          go (i + 1) p child
        end
      end
    end
  in
  go 0 leftmost leftmost

let route_right_to_left a l n tr key =
  let cap = l.L.capacity in
  let rec go i past_end =
    if i < 0 then (L.leftmost a n, past_end)
    else begin
      let p = L.ptr a n i in
      if p = 0 then go (i - 1) past_end
      else if p <> L.left_ptr_of a n i then begin
        let k = L.key a n i in
        if k <= key then (p, past_end) else go (i - 1) false
      end
      else begin
        Trace.dup_skip tr ~leaf:false;
        go (i - 1) past_end
      end
    end
  in
  go (cap - 1) true

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
  ((if best < 0 then L.leftmost a n else L.ptr a n best), best = cnt - 1)

let route a l n ~mode ?(tr = Trace.null) key =
  match mode with
  | Binary -> binary_route a l n key
  | Linear ->
      let rec attempt budget =
        let sw = L.switch a n in
        let r =
          if sw land 1 = 0 then route_left_to_right a l n tr key
          else route_right_to_left a l n tr key
        in
        if L.switch a n <> sw && budget > 0 then attempt (budget - 1) else r
      in
      attempt 64

(* ------------------------------------------------------------------ *)
(* FAST insertion (Algorithm 1)                                        *)
(* ------------------------------------------------------------------ *)

let record_first_in_line i = i mod 4 = 0

let insert_nonfull a l n ~key ~value ~mode =
  assert (value <> 0);
  let sw = L.switch a n in
  if sw land 1 = 1 then L.set_switch a n (sw + 1);
  let cnt = match mode with Linear -> count a l n | Binary -> L.count_hint a n in
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
  let cnt = count a l n in
  assert (pos >= 0 && pos < cnt);
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
  match find_exact a l n key with
  | None -> false
  | Some pos ->
      remove_at a l n pos;
      true

let update_value a l n ~pos ~value =
  ignore l;
  assert (value <> 0);
  L.set_ptr a n pos value;
  Arena.flush a (n + L.ptr_off pos)

let truncate_from a l n pos =
  let cnt = count a l n in
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
