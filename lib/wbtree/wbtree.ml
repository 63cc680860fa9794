module Arena = Ff_pmem.Arena
module Intf = Ff_index.Intf

(* Node layout (words):
     0 level | 1 bitmap | 2 sibling | 3 leftmost child
     4..11   slot array as bytes: byte 0 = count, byte j = entry index
             of the j-th smallest live entry
     12..15  pad (header fills two cache lines)
     16+2i   entries[i].key
     17+2i   entries[i].value
   Bitmap word: bit 0 = slot-array-valid; bit (i+1) = entry i live. *)

let off_level = 0
let off_bitmap = 1
let off_sibling = 2
let off_leftmost = 3
let off_slots = 4
let slots_words = 8
let off_entries = 16

type t = {
  arena : Arena.t;
  node_words : int;
  capacity : int;
  root_slot : int;
  mutable log_area : int;
}

let key_off i = off_entries + (2 * i)
let val_off i = off_entries + (2 * i) + 1

let make ?(node_bytes = 1024) ?(root_slot = 4) arena =
  if node_bytes < 256 || node_bytes land (node_bytes - 1) <> 0 then
    invalid_arg "Wbtree: node_bytes must be a power of two >= 256";
  let node_words = node_bytes / 8 in
  let capacity = min ((node_words - off_entries) / 2) 62 in
  { arena; node_words; capacity; root_slot; log_area = 0 }

(* ------------------------------------------------------------------ *)
(* Field access                                                        *)
(* ------------------------------------------------------------------ *)

let level t n = Arena.read t.arena (n + off_level)
let bitmap t n = Arena.read t.arena (n + off_bitmap)
let sibling t n = Arena.read t.arena (n + off_sibling)
let leftmost t n = Arena.read t.arena (n + off_leftmost)
let key t n i = Arena.read t.arena (n + key_off i)
let value t n i = Arena.read t.arena (n + val_off i)

let set_bitmap_committed t n bm =
  Arena.write t.arena (n + off_bitmap) bm;
  Arena.flush t.arena (n + off_bitmap)

let slots_valid bm = bm land 1 = 1
let live bm i = bm land (1 lsl (i + 1)) <> 0

let slot_byte t n j =
  let w = Arena.read t.arena (n + off_slots + (j / 8)) in
  (w lsr (8 * (j mod 8))) land 0xff

let count t n = slot_byte t n 0

(* Rewrite the slot array from a list of entry indexes (ascending key
   order), then flush the touched lines. *)
let write_slots t n idxs =
  let cnt = List.length idxs in
  assert (cnt <= 62);
  let words = Array.make slots_words 0 in
  let put j v = words.(j / 8) <- words.(j / 8) lor ((v land 0xff) lsl (8 * (j mod 8))) in
  put 0 cnt;
  List.iteri (fun j idx -> put (j + 1) idx) idxs;
  let touched = 1 + (cnt / 8) in
  for w = 0 to touched - 1 do
    Arena.write t.arena (n + off_slots + w) words.(w)
  done;
  Arena.flush_range t.arena (n + off_slots) touched

(* Current logical order as entry indexes, via the slot array (fast
   path) or by scanning the bitmap and sorting (post-crash). *)
let logical_order t n =
  let bm = bitmap t n in
  if slots_valid bm then begin
    let cnt = count t n in
    List.init cnt (fun j -> slot_byte t n (j + 1))
  end
  else begin
    let idxs = ref [] in
    for i = t.capacity - 1 downto 0 do
      if live bm i then idxs := i :: !idxs
    done;
    List.sort (fun a b -> compare (key t n a) (key t n b)) !idxs
  end

let init_node t n ~lvl ~lm =
  Arena.write t.arena (n + off_level) lvl;
  Arena.write t.arena (n + off_sibling) 0;
  Arena.write t.arena (n + off_leftmost) lm;
  write_slots t n [];
  Arena.write t.arena (n + off_bitmap) 1

(* ------------------------------------------------------------------ *)
(* Creation / reattach                                                 *)
(* ------------------------------------------------------------------ *)

let root t = Arena.root_get t.arena t.root_slot

let create ?node_bytes ?root_slot arena =
  let t = make ?node_bytes ?root_slot arena in
  let r = Arena.alloc arena t.node_words in
  init_node t r ~lvl:0 ~lm:0;
  Arena.flush_range arena r t.node_words;
  Arena.root_set arena t.root_slot r;
  t

let open_existing ?node_bytes ?root_slot arena =
  let t = make ?node_bytes ?root_slot arena in
  t.log_area <- Arena.root_get arena (t.root_slot + 1);
  t

(* ------------------------------------------------------------------ *)
(* Node search: slot-array binary search with entry indirection        *)
(* ------------------------------------------------------------------ *)

let cfg_branch t = (Arena.config t.arena).Ff_pmem.Config.branch_miss_ns

(* Largest slot position whose key <= target; -1 if none. *)
let slot_upper_bound t n target =
  let cnt = count t n in
  let rec go lo hi best =
    if lo > hi then best
    else begin
      let mid = (lo + hi) / 2 in
      Arena.cpu_work t.arena (cfg_branch t);
      let idx = slot_byte t n (mid + 1) in
      let k = key t n idx in
      if k <= target then go (mid + 1) hi mid else go lo (mid - 1) best
    end
  in
  go 0 (cnt - 1) (-1)

let node_find t n target =
  let bm = bitmap t n in
  if slots_valid bm then begin
    let pos = slot_upper_bound t n target in
    if pos < 0 then None
    else begin
      let idx = slot_byte t n (pos + 1) in
      if key t n idx = target && live bm idx then Some idx else None
    end
  end
  else begin
    (* Degraded post-crash path: scan the bitmap. *)
    let found = ref None in
    for i = 0 to t.capacity - 1 do
      if !found = None && live bm i && key t n i = target then found := Some i
    done;
    !found
  end

let node_route t n target =
  let bm = bitmap t n in
  if slots_valid bm then begin
    let pos = slot_upper_bound t n target in
    if pos < 0 then leftmost t n else value t n (slot_byte t n (pos + 1))
  end
  else begin
    let best = ref (-1) and best_key = ref min_int in
    for i = 0 to t.capacity - 1 do
      if live bm i then begin
        let k = key t n i in
        if k <= target && k > !best_key then begin
          best := i;
          best_key := k
        end
      end
    done;
    if !best < 0 then leftmost t n else value t n !best
  end

let first_key t n =
  match logical_order t n with [] -> None | idx :: _ -> Some (key t n idx)

let last_key t n =
  match List.rev (logical_order t n) with [] -> None | idx :: _ -> Some (key t n idx)

(* ------------------------------------------------------------------ *)
(* Descent with sibling chase (split completion tolerance)             *)
(* ------------------------------------------------------------------ *)

(* No sibling walk visits more nodes than the arena can hold, so a
   longer one is a cycle — a torn image can link a chain back into
   itself.  [hop t hops] counts one more step of a walk. *)
let hop t hops =
  if hops >= Arena.capacity t.arena / t.node_words then failwith "Wbtree: sibling cycle";
  hops + 1

let rec chain_covers t hops s k =
  if s = 0 then false
  else
    match first_key t s with
    | Some k0 -> k0 <= k
    | None -> chain_covers t (hop t hops) (sibling t s) k

let move_right t n k =
  let rec go hops n =
    match last_key t n with
    | Some last when k <= last -> n
    | Some _ | None ->
        let s = sibling t n in
        if s <> 0 && chain_covers t 0 s k then go (hop t hops) s else n
  in
  go 0 n

let rec to_leaf t n k =
  let n = move_right t n k in
  if level t n = 0 then n else to_leaf t (node_route t n k) k

let search t k =
  let leaf = to_leaf t (root t) k in
  match node_find t leaf k with
  | Some idx -> Some (value t leaf idx)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Insert: append entry, 4-flush commit protocol                       *)
(* ------------------------------------------------------------------ *)

let free_entry_slot t bm =
  let rec go i = if i >= t.capacity then None else if live bm i then go (i + 1) else Some i in
  go 0

(* Insert into a node with a free slot.  The paper's protocol:
   (1) write entry, flush;
   (2) clear the slot-valid bit, flush (atomic invalidate);
   (3) rewrite the slot array, flush;
   (4) commit bitmap with entry bit + valid bit, flush. *)
let node_insert t n k v =
  let bm = bitmap t n in
  match node_find t n k with
  | Some idx ->
      Arena.write t.arena (n + val_off idx) v;
      Arena.flush t.arena (n + val_off idx);
      `Done
  | None -> (
      match free_entry_slot t bm with
      | None -> `Full
      | Some idx ->
          Arena.write t.arena (n + key_off idx) k;
          Arena.write t.arena (n + val_off idx) v;
          Arena.flush t.arena (n + key_off idx);
          set_bitmap_committed t n (bm land lnot 1);
          let order = logical_order t n in
          let order =
            let rec ins = function
              | [] -> [ idx ]
              | x :: rest -> if key t n x < k then x :: ins rest else idx :: x :: rest
            in
            ins order
          in
          write_slots t n order;
          set_bitmap_committed t n (bm lor (1 lsl (idx + 1)) lor 1);
          `Done)

(* ------------------------------------------------------------------ *)
(* Split: PM redo log + rebuild donor                                  *)
(* ------------------------------------------------------------------ *)

let ensure_log t =
  if t.log_area = 0 then begin
    let la = Arena.alloc t.arena (t.node_words + Arena.words_per_line) in
    t.log_area <- la;
    Arena.root_set t.arena (t.root_slot + 1) la
  end;
  t.log_area

let write_log t n =
  let la = ensure_log t in
  let image = la + Arena.words_per_line in
  for i = 0 to t.node_words - 1 do
    Arena.write t.arena (image + i) (Arena.read t.arena (n + i))
  done;
  Arena.flush_range t.arena image t.node_words;
  Arena.write t.arena la n;
  Arena.write t.arena (la + 1) 1;
  Arena.flush t.arena la

let clear_log t =
  let la = ensure_log t in
  Arena.write t.arena (la + 1) 0;
  Arena.flush t.arena la

(* Write a fresh node's entries compactly from (key, value) pairs. *)
let fill_node t n pairs =
  List.iteri
    (fun i (k, v) ->
      Arena.write t.arena (n + key_off i) k;
      Arena.write t.arena (n + val_off i) v)
    pairs;
  let cnt = List.length pairs in
  write_slots t n (List.init cnt (fun i -> i));
  let bm = ref 1 in
  for i = 0 to cnt - 1 do
    bm := !bm lor (1 lsl (i + 1))
  done;
  Arena.write t.arena (n + off_bitmap) !bm

let rec split_and_insert t n k v =
  write_log t n;
  let order = logical_order t n in
  let pairs = List.map (fun idx -> (key t n idx, value t n idx)) order in
  let cnt = List.length pairs in
  let median = cnt / 2 in
  let lvl = level t n in
  let rec take i = function
    | [] -> ([], [])
    | x :: rest ->
        let a, b = take (i + 1) rest in
        if i < median then (x :: a, b) else (a, x :: b)
  in
  let lower, upper = take 0 pairs in
  let sep, sib_pairs, sib_leftmost =
    match upper with
    | [] -> assert false
    | (sk, sv) :: rest ->
        if lvl = 0 then (sk, upper, 0) else (sk, rest, sv)
  in
  let sib = Arena.alloc t.arena t.node_words in
  init_node t sib ~lvl ~lm:sib_leftmost;
  fill_node t sib sib_pairs;
  Arena.write t.arena (sib + off_sibling) (sibling t n);
  Arena.flush_range t.arena sib t.node_words;
  (* Publish the sibling, then rebuild the donor under log protection. *)
  Arena.write t.arena (n + off_sibling) sib;
  Arena.flush t.arena (n + off_sibling);
  set_bitmap_committed t n 0;
  fill_node t n lower;
  Arena.flush_range t.arena n t.node_words;
  clear_log t;
  (* Pending key. *)
  let target = if k < sep then n else sib in
  (match node_insert t target k v with `Done -> () | `Full -> assert false);
  (* Parent update. *)
  insert_at_level t ~lvl:(lvl + 1) ~k:sep ~v:sib ~donor:n

and insert_at_level t ~lvl ~k ~v ~donor =
  let rt = root t in
  if level t rt < lvl then begin
    let nr = Arena.alloc t.arena t.node_words in
    init_node t nr ~lvl ~lm:donor;
    fill_node t nr [ (k, v) ];
    Arena.flush_range t.arena nr t.node_words;
    Arena.root_set t.arena t.root_slot nr
  end
  else begin
    let rec descend n =
      let n = move_right t n k in
      if level t n = lvl then n else descend (node_route t n k)
    in
    let n = descend rt in
    match node_insert t n k v with `Done -> () | `Full -> split_and_insert t n k v
  end

let insert t ~key:k ~value:v =
  if k <= 0 then invalid_arg "Wbtree.insert: key must be positive";
  if v = 0 then invalid_arg "Wbtree.insert: value must be nonzero";
  Arena.set_phase t.arena Ff_pmem.Stats.Search;
  let leaf = to_leaf t (root t) k in
  Arena.set_phase t.arena Ff_pmem.Stats.Update;
  (match node_insert t leaf k v with
  | `Done -> ()
  | `Full -> split_and_insert t leaf k v);
  Arena.set_phase t.arena Ff_pmem.Stats.Other

(* ------------------------------------------------------------------ *)
(* Delete: bitmap invalidate + slot rewrite                            *)
(* ------------------------------------------------------------------ *)

let delete t k =
  let leaf = to_leaf t (root t) k in
  match node_find t leaf k with
  | None -> false
  | Some idx ->
      let bm = bitmap t leaf in
      set_bitmap_committed t leaf (bm land lnot 1);
      let order = List.filter (fun i -> i <> idx) (logical_order t leaf) in
      write_slots t leaf order;
      set_bitmap_committed t leaf ((bm land lnot (1 lsl (idx + 1))) lor 1);
      true

(* ------------------------------------------------------------------ *)
(* Range: leaf chain via slot order                                    *)
(* ------------------------------------------------------------------ *)

let range t ~lo ~hi f =
  let leaf = to_leaf t (root t) lo in
  let rec scan hops n last =
    let stop = ref false in
    let last = ref last in
    List.iter
      (fun idx ->
        if not !stop then begin
          let k = key t n idx in
          if k > hi then stop := true
          else if k >= lo && k > !last then begin
            f k (value t n idx);
            last := k
          end
        end)
      (logical_order t n);
    let s = sibling t n in
    if (not !stop) && s <> 0 then scan (hop t hops) s !last
  in
  scan 0 leaf (lo - 1)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let leftmost_of_level t lvl =
  let rec go n = if level t n > lvl then go (leftmost t n) else n in
  go (root t)

let chain t first =
  let rec go hops n acc =
    if n = 0 then List.rev acc else go (hop t hops) (sibling t n) (n :: acc)
  in
  go 0 first []

let fix_slots t n =
  let bm = bitmap t n in
  if not (slots_valid bm) then begin
    let order = logical_order t n in
    write_slots t n order;
    set_bitmap_committed t n (bm lor 1)
  end

let recover t =
  t.log_area <- Arena.root_get t.arena (t.root_slot + 1);
  (* Redo-log restore. *)
  (if t.log_area <> 0 && Arena.peek t.arena (t.log_area + 1) = 1 then begin
     let n = Arena.read t.arena t.log_area in
     let image = t.log_area + Arena.words_per_line in
     for i = 0 to t.node_words - 1 do
       Arena.write t.arena (n + i) (Arena.read t.arena (image + i))
     done;
     Arena.flush_range t.arena n t.node_words;
     clear_log t
   end);
  (* Slot arrays, dangling siblings, root growth. *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 32 do
    changed := false;
    incr rounds;
    let rt = root t in
    (if sibling t rt <> 0 then
       match first_key t (sibling t rt) with
       | Some k0 ->
           changed := true;
           insert_at_level t ~lvl:(level t rt + 1) ~k:k0 ~v:(sibling t rt) ~donor:rt
       | None -> ());
    let rt = root t in
    let top = level t rt in
    for lvl = top downto 0 do
      let ch = chain t (leftmost_of_level t lvl) in
      List.iter (fix_slots t) ch;
      if lvl < top then begin
        let referenced = Hashtbl.create 64 in
        List.iter
          (fun p ->
            Hashtbl.replace referenced (leftmost t p) ();
            List.iter
              (fun idx -> Hashtbl.replace referenced (value t p idx) ())
              (logical_order t p))
          (chain t (leftmost_of_level t (lvl + 1)));
        List.iteri
          (fun i n ->
            if i > 0 && not (Hashtbl.mem referenced n) then
              match first_key t n with
              | Some k0 ->
                  changed := true;
                  insert_at_level t ~lvl:(lvl + 1) ~k:k0 ~v:n ~donor:n
              | None -> ())
          ch
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Checks and misc                                                     *)
(* ------------------------------------------------------------------ *)

let height t = level t (root t) + 1

let check t =
  let acc = ref [] in
  let rt = root t in
  if sibling t rt <> 0 then acc := "root has sibling" :: !acc;
  for lvl = level t rt downto 0 do
    let prev = ref min_int in
    List.iter
      (fun n ->
        if not (slots_valid (bitmap t n)) then
          acc := Printf.sprintf "node %d: slot array invalid" n :: !acc;
        List.iter
          (fun idx ->
            let k = key t n idx in
            if k <= !prev then
              acc := Printf.sprintf "node %d: unsorted key %d" n k :: !acc;
            prev := k)
          (logical_order t n))
      (chain t (leftmost_of_level t lvl))
  done;
  List.rev !acc

let ops t =
  Intf.make ~name:"wbtree"
    ~insert:(fun k v -> insert t ~key:k ~value:v)
    ~search:(fun k -> search t k)
    ~delete:(fun k -> delete t k)
    ~range:(fun lo hi f -> range t ~lo ~hi f)
    ~recover:(fun () -> recover t)
    ~close:(fun () -> Arena.drain t.arena)
    ()

let () =
  let module D = Ff_index.Descriptor in
  Ff_index.Registry.register
    {
      D.name = "wbtree";
      summary = "wB+-tree baseline (slot-array + bitmap nodes, logged splits)";
      caps =
        {
          D.has_range = true;
          has_delete = true;
          has_recovery = true;
          is_persistent = true;
          lock_modes = [ Ff_index.Locks.Single ];
          lock_free_reads = false;
          tunable_node_bytes = true;
          relocatable_root = true;
          scrubbable = false;
          txnable = true;
          snapshottable = false;
        };
      composite = None;
      build =
        (fun cfg a ->
          ops (create ?node_bytes:cfg.D.node_bytes ~root_slot:cfg.D.root_slot a));
      open_existing =
        (fun cfg a ->
          ops
            (open_existing ?node_bytes:cfg.D.node_bytes
               ~root_slot:cfg.D.root_slot a));
    }
