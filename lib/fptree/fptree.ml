module Arena = Ff_pmem.Arena
module Locks = Ff_index.Locks
module Intf = Ff_index.Intf

(* Leaf layout (words):
     0 bitmap (bit i = entry i live) | 1 sibling
     2..9 fingerprints (one byte per entry)
     10..15 pad
     16+2i entries[i].key | 17+2i entries[i].value *)

let off_bitmap = 0
let off_sibling = 1
let off_fps = 2
let off_entries = 16

let key_off i = off_entries + (2 * i)
let val_off i = off_entries + (2 * i) + 1

type child = Leaf of int | Inner of inner
and inner = { mutable keys : int array; mutable children : child array; mutable n : int }

type t = {
  arena : Arena.t;
  leaf_words : int;
  capacity : int;
  root_slot : int;
  mutable root : child;
  locks : Locks.Table.t;
  versions : (int, int ref) Hashtbl.t; (* per-leaf seqlock (volatile) *)
  smo : Locks.mutex; (* serializes structure modifications (TSX fallback lock) *)
  mutable log_area : int;
}

let fingerprint key =
  (* SplitMix-style mix.  7 bits, not 8: the eighth byte packed into a
     word would need bit 63, which OCaml's 63-bit ints lack. *)
  let z = key * 0x9E3779B9 in
  let z = z lxor (z lsr 17) in
  z land 0x7f

(* Calibrated against the paper's Figure 5(b): at DRAM read latency an
   FP-tree search costs about the same as FAST+FAIR's (its 4KB DRAM
   inner nodes still miss caches), and only wins once PM reads are
   >= ~2x DRAM. *)
let inner_cpu_ns = 100 (* DRAM binary search of one 4KB inner node *)
let tx_cpu_ns = 60 (* TSX begin/commit *)
let inner_fanout = 64

let make ?(leaf_bytes = 1024) ?(root_slot = 6)
    ?(lock_mode = Locks.Single) arena =
  if leaf_bytes < 256 || leaf_bytes land (leaf_bytes - 1) <> 0 then
    invalid_arg "Fptree: leaf_bytes must be a power of two >= 256";
  let leaf_words = leaf_bytes / 8 in
  let capacity = min ((leaf_words - off_entries) / 2) 62 in
  {
    arena;
    leaf_words;
    capacity;
    root_slot;
    root = Leaf 0;
    locks = Locks.Table.create lock_mode;
    versions = Hashtbl.create 1024;
    smo = Locks.make_mutex lock_mode;
    log_area = 0;
  }

(* ------------------------------------------------------------------ *)
(* Leaf primitives                                                     *)
(* ------------------------------------------------------------------ *)

let bitmap t n = Arena.read t.arena (n + off_bitmap)
let sibling t n = Arena.read t.arena (n + off_sibling)
let live bm i = bm land (1 lsl i) <> 0
let key t n i = Arena.read t.arena (n + key_off i)
let value t n i = Arena.read t.arena (n + val_off i)

let fp_byte t n i =
  let w = Arena.read t.arena (n + off_fps + (i / 8)) in
  (w lsr (8 * (i mod 8))) land 0xff

let set_fp_byte t n i v =
  let addr = n + off_fps + (i / 8) in
  let w = Arena.read t.arena addr in
  let shift = 8 * (i mod 8) in
  Arena.write t.arena addr ((w land lnot (0xff lsl shift)) lor ((v land 0xff) lsl shift))

let version_of t n =
  match Hashtbl.find_opt t.versions n with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.versions n r;
      r

(* Probe a leaf through the fingerprints: returns the slot index. *)
let leaf_find t n k =
  let fp = fingerprint k in
  let bm = bitmap t n in
  let rec go i =
    if i >= t.capacity then None
    else if live bm i && fp_byte t n i = fp && key t n i = k then Some i
    else go (i + 1)
  in
  go 0

let leaf_min_key t n =
  let bm = bitmap t n in
  let best = ref max_int in
  for i = 0 to t.capacity - 1 do
    if live bm i then begin
      let k = key t n i in
      if k < !best then best := k
    end
  done;
  if !best = max_int then None else Some !best

let leaf_live_pairs t n =
  let bm = bitmap t n in
  let acc = ref [] in
  (* Ascending slot order: the scan walks the leaf's lines forward, so
     the prefetcher discount applies as it would on hardware. *)
  for i = 0 to t.capacity - 1 do
    if live bm i then acc := (key t n i, value t n i) :: !acc
  done;
  List.rev !acc

let new_leaf t =
  let n = Arena.alloc t.arena t.leaf_words in
  Arena.flush_range t.arena n t.leaf_words;
  n

(* Rebuild the volatile inner levels bottom-up from the leaf chain.
   This is a restart cost, not a crash-repair step: the DRAM inners
   exist only in this process, so {e every} reopen must pay it before
   the tree can route keys (the uLog replay in [recover] is the
   crash-repair part). *)
let rebuild_inners t =
  let head = Arena.root_get t.arena t.root_slot in
  let rec leaves n acc = if n = 0 then List.rev acc else leaves (sibling t n) (n :: acc) in
  let chain = leaves head [] in
  let seps =
    List.filter_map (fun n -> Option.map (fun k -> (k, n)) (leaf_min_key t n)) chain
  in
  let nodes = List.map (fun (k, n) -> (k, Leaf n)) seps in
  (* Build levels bottom-up: each (k, c) pair is a subtree covering
     keys >= k; within a parent, the i-th child's lower bound is the
     (i-1)-th routing key. *)
  let rec build nodes =
    match nodes with
    | [] -> Leaf head
    | [ (_, c) ] -> c
    | _ ->
        let rec chunk l acc =
          match l with
          | [] -> List.rev acc
          | _ ->
              let rec take n l got =
                match l with
                | x :: rest when n > 0 -> take (n - 1) rest (x :: got)
                | _ -> (List.rev got, l)
              in
              let grp, rest = take (inner_fanout + 1) l [] in
              chunk rest (grp :: acc)
        in
        let parent grp =
          match grp with
          | [] -> assert false
          | (k0, _) :: _ ->
              let m = List.length grp in
              let ka = Array.make inner_fanout 0 in
              let ca = Array.make (inner_fanout + 1) (Leaf 0) in
              List.iteri
                (fun i (k, c) ->
                  ca.(i) <- c;
                  if i > 0 then ka.(i - 1) <- k)
                grp;
              (k0, Inner { keys = ka; children = ca; n = m - 1 })
        in
        build (List.map parent (chunk nodes []))
  in
  t.root <- build nodes;
  Hashtbl.reset t.versions

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

let create ?leaf_bytes ?root_slot ?lock_mode arena =
  let t = make ?leaf_bytes ?root_slot ?lock_mode arena in
  let leaf = new_leaf t in
  Arena.root_set arena t.root_slot leaf;
  t.root <- Leaf leaf;
  t

let open_existing ?leaf_bytes ?root_slot ?lock_mode arena =
  let t = make ?leaf_bytes ?root_slot ?lock_mode arena in
  t.log_area <- Arena.root_get arena (t.root_slot + 1);
  rebuild_inners t;
  t

(* ------------------------------------------------------------------ *)
(* Volatile inner descent                                              *)
(* ------------------------------------------------------------------ *)

(* children.(i) covers keys k with keys.(i-1) <= k < keys.(i). *)
let child_index inner k =
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if k < inner.keys.(mid) then go lo mid else go (mid + 1) hi
    end
  in
  go 0 inner.n

let rec to_leaf t node k =
  match node with
  | Leaf n -> n
  | Inner inner ->
      Arena.cpu_work t.arena inner_cpu_ns;
      to_leaf t inner.children.(child_index inner k) k

(* ------------------------------------------------------------------ *)
(* Search (seqlock reader)                                             *)
(* ------------------------------------------------------------------ *)

let search t k =
  Arena.cpu_work t.arena tx_cpu_ns;
  let n = to_leaf t t.root k in
  let ver = version_of t n in
  let rec attempt budget =
    let v1 = !ver in
    let r = match leaf_find t n k with Some i -> Some (value t n i) | None -> None in
    if !ver <> v1 && budget > 0 then attempt (budget - 1) else r
  in
  attempt 64

(* ------------------------------------------------------------------ *)
(* Micro-log for leaf splits                                           *)
(* ------------------------------------------------------------------ *)

let ensure_log t =
  if t.log_area = 0 then begin
    let la = Arena.alloc t.arena Arena.words_per_line in
    t.log_area <- la;
    Arena.root_set t.arena (t.root_slot + 1) la
  end;
  t.log_area

(* uLog: [0] donor leaf; [1] new leaf; [2] commit flag. *)
let log_split_begin t donor fresh =
  let la = ensure_log t in
  Arena.write t.arena la donor;
  Arena.write t.arena (la + 1) fresh;
  Arena.write t.arena (la + 2) 1;
  Arena.flush t.arena la

let log_split_end t =
  let la = ensure_log t in
  Arena.write t.arena (la + 2) 0;
  Arena.flush t.arena la

(* ------------------------------------------------------------------ *)
(* Insert                                                              *)
(* ------------------------------------------------------------------ *)

let leaf_append t n k v =
  (* Requires a free slot. *)
  let bm = bitmap t n in
  let rec free i = if live bm i then free (i + 1) else i in
  let i = free 0 in
  Arena.write t.arena (n + key_off i) k;
  Arena.write t.arena (n + val_off i) v;
  Arena.flush t.arena (n + key_off i);
  set_fp_byte t n i (fingerprint k);
  Arena.flush t.arena (n + off_fps + (i / 8));
  (* Commit with one failure-atomic bitmap store. *)
  Arena.write t.arena (n + off_bitmap) (bm lor (1 lsl i));
  Arena.flush t.arena (n + off_bitmap)

let leaf_count t n =
  let bm = bitmap t n in
  let c = ref 0 in
  for i = 0 to t.capacity - 1 do
    if live bm i then incr c
  done;
  !c

(* Split a full leaf; returns (separator, new leaf). *)
let split_leaf t n =
  let pairs = leaf_live_pairs t n in
  let sorted = List.sort compare pairs in
  let cnt = List.length sorted in
  let median_key = fst (List.nth sorted (cnt / 2)) in
  let fresh = new_leaf t in
  log_split_begin t n fresh;
  (* Copy upper half into the fresh (private) leaf. *)
  let moved = ref 0 in
  let bm_keep = ref 0 in
  let bm = bitmap t n in
  for i = 0 to t.capacity - 1 do
    if live bm i then begin
      let k = key t n i in
      if k >= median_key then begin
        Arena.write t.arena (fresh + key_off !moved) k;
        Arena.write t.arena (fresh + val_off !moved) (value t n i);
        set_fp_byte t fresh !moved (fingerprint k);
        incr moved
      end
      else bm_keep := !bm_keep lor (1 lsl i)
    end
  done;
  let bm_fresh = (1 lsl !moved) - 1 in
  Arena.write t.arena (fresh + off_bitmap) bm_fresh;
  Arena.write t.arena (fresh + off_sibling) (sibling t n);
  Arena.flush_range t.arena fresh t.leaf_words;
  (* Publish, then retire the moved entries with one atomic store. *)
  Arena.write t.arena (n + off_sibling) fresh;
  Arena.flush t.arena (n + off_sibling);
  Arena.write t.arena (n + off_bitmap) !bm_keep;
  Arena.flush t.arena (n + off_bitmap);
  log_split_end t;
  (median_key, fresh)

(* Place a separator (sep, right) directly above the leaf level.
   Pure volatile-array surgery with no PM access, hence atomic in the
   cooperative simulator; callers hold the SMO lock. *)
let rec place_sep t node sep right =
  match node with
  | Leaf _ -> assert false (* handled by the root case in [insert] *)
  | Inner inner -> (
      let i = child_index inner sep in
      match inner.children.(i) with
      | Leaf _ -> put_sep t inner i sep right
      | Inner _ as sub -> (
          match place_sep t sub sep right with
          | `Ok -> `Ok
          | `Split (up, r) -> put_sep t inner (child_index inner up) up r))

and put_sep t inner i sep right =
  if inner.n < Array.length inner.keys then begin
    Array.blit inner.keys i inner.keys (i + 1) (inner.n - i);
    Array.blit inner.children (i + 1) inner.children (i + 2) (inner.n - i);
    inner.keys.(i) <- sep;
    inner.children.(i + 1) <- right;
    inner.n <- inner.n + 1;
    `Ok
  end
  else begin
    (* Split this inner node around its median. *)
    let fan = Array.length inner.keys in
    let keys = Array.make (inner.n + 1) 0 in
    let children = Array.make (inner.n + 2) (Leaf 0) in
    Array.blit inner.keys 0 keys 0 i;
    keys.(i) <- sep;
    Array.blit inner.keys i keys (i + 1) (inner.n - i);
    Array.blit inner.children 0 children 0 (i + 1);
    children.(i + 1) <- right;
    Array.blit inner.children (i + 1) children (i + 2) (inner.n - i);
    let total = inner.n + 1 in
    let mid = total / 2 in
    let up = keys.(mid) in
    let left_keys = Array.make fan 0 in
    let left_children = Array.make (fan + 1) (Leaf 0) in
    Array.blit keys 0 left_keys 0 mid;
    Array.blit children 0 left_children 0 (mid + 1);
    let rn = total - mid - 1 in
    let right_keys = Array.make fan 0 in
    let right_children = Array.make (fan + 1) (Leaf 0) in
    Array.blit keys (mid + 1) right_keys 0 rn;
    Array.blit children (mid + 1) right_children 0 (rn + 1);
    inner.keys <- left_keys;
    inner.children <- left_children;
    inner.n <- mid;
    ignore t;
    `Split (up, Inner { keys = right_keys; children = right_children; n = rn })
  end

let grow_root t sep left right =
  let keys = Array.make inner_fanout 0 in
  let children = Array.make (inner_fanout + 1) (Leaf 0) in
  keys.(0) <- sep;
  children.(0) <- left;
  children.(1) <- right;
  t.root <- Inner { keys; children; n = 1 }

let rec insert t ~key:k ~value:v =
  if k <= 0 then invalid_arg "Fptree.insert: key must be positive";
  if v = 0 then invalid_arg "Fptree.insert: value must be nonzero";
  Arena.set_phase t.arena Ff_pmem.Stats.Search;
  Arena.cpu_work t.arena tx_cpu_ns;
  let leaf = to_leaf t t.root k in
  Locks.lock (Locks.Table.mutex_of t.locks leaf);
  (* The leaf may have split while we acquired the lock. *)
  if to_leaf t t.root k <> leaf then begin
    Locks.unlock (Locks.Table.mutex_of t.locks leaf);
    insert t ~key:k ~value:v
  end
  else begin
    Arena.set_phase t.arena Ff_pmem.Stats.Update;
    match leaf_find t leaf k with
    | Some i ->
        let ver = version_of t leaf in
        incr ver;
        Arena.write t.arena (leaf + val_off i) v;
        Arena.flush t.arena (leaf + val_off i);
        incr ver;
        Locks.unlock (Locks.Table.mutex_of t.locks leaf);
        Arena.set_phase t.arena Ff_pmem.Stats.Other
    | None ->
        if leaf_count t leaf < t.capacity then begin
          let ver = version_of t leaf in
          incr ver;
          leaf_append t leaf k v;
          incr ver;
          Locks.unlock (Locks.Table.mutex_of t.locks leaf);
          Arena.set_phase t.arena Ff_pmem.Stats.Other
        end
        else begin
          (* Structure modification: split under the TSX fallback lock,
             then retry the insert against the new shape. *)
          Locks.lock t.smo;
          let ver = version_of t leaf in
          incr ver;
          let sep, fresh = split_leaf t leaf in
          incr ver;
          (match t.root with
          | Leaf r when r = leaf -> grow_root t sep (Leaf leaf) (Leaf fresh)
          | Leaf _ | Inner _ -> (
              match place_sep t t.root sep (Leaf fresh) with
              | `Ok -> ()
              | `Split (up, right) -> grow_root t up t.root right));
          Locks.unlock t.smo;
          Locks.unlock (Locks.Table.mutex_of t.locks leaf);
          Arena.set_phase t.arena Ff_pmem.Stats.Other;
          insert t ~key:k ~value:v
        end
  end

(* ------------------------------------------------------------------ *)
(* Delete                                                              *)
(* ------------------------------------------------------------------ *)

let delete t k =
  Arena.cpu_work t.arena tx_cpu_ns;
  let n = to_leaf t t.root k in
  Locks.lock (Locks.Table.mutex_of t.locks n);
  let r =
    match leaf_find t n k with
    | None -> false
    | Some i ->
        let ver = version_of t n in
        incr ver;
        Arena.write t.arena (n + off_bitmap) (bitmap t n land lnot (1 lsl i));
        Arena.flush t.arena (n + off_bitmap);
        incr ver;
        true
  in
  Locks.unlock (Locks.Table.mutex_of t.locks n);
  r

(* ------------------------------------------------------------------ *)
(* Range: leaf chain with per-leaf volatile sort                       *)
(* ------------------------------------------------------------------ *)

let range t ~lo ~hi f =
  Arena.cpu_work t.arena tx_cpu_ns;
  let n = to_leaf t t.root lo in
  let rec scan n last =
    if n <> 0 then begin
      let pairs = List.sort compare (leaf_live_pairs t n) in
      Arena.cpu_work t.arena (2 * List.length pairs);
      let stop = ref false in
      let last = ref last in
      List.iter
        (fun (k, v) ->
          if not !stop then
            if k > hi then stop := true
            else if k >= lo && k > !last then begin
              f k v;
              last := k
            end)
        pairs;
      if not !stop then scan (sibling t n) !last
    end
  in
  scan n (lo - 1)

(* ------------------------------------------------------------------ *)
(* Recovery: replay uLog, rebuild inner levels from the leaf chain     *)
(* ------------------------------------------------------------------ *)

let recover t =
  t.log_area <- Arena.root_get t.arena (t.root_slot + 1);
  (* uLog replay: if a split was in flight, retire donor entries that
     already landed in the (published) new leaf, or discard the
     unpublished leaf by doing nothing — the donor still owns them. *)
  (if t.log_area <> 0 && Arena.peek t.arena (t.log_area + 2) = 1 then begin
     let donor = Arena.read t.arena t.log_area in
     let fresh = Arena.read t.arena (t.log_area + 1) in
     if sibling t donor = fresh then begin
       (* Published: drop donor copies of every key present in fresh. *)
       let fresh_keys = List.map fst (leaf_live_pairs t fresh) in
       let bm = ref (bitmap t donor) in
       for i = 0 to t.capacity - 1 do
         if live !bm i && List.mem (key t donor i) fresh_keys then
           bm := !bm land lnot (1 lsl i)
       done;
       Arena.write t.arena (donor + off_bitmap) !bm;
       Arena.flush t.arena (donor + off_bitmap)
     end;
     log_split_end t
   end);
  (* The replay may have changed leaf occupancy; rebuild routing. *)
  rebuild_inners t

let height t =
  let rec go = function Leaf _ -> 1 | Inner i -> 1 + go i.children.(0) in
  go t.root

let ops t =
  Intf.make ~name:"fptree"
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
      D.name = "fptree";
      summary = "FP-tree baseline (fingerprinted PM leaves, volatile inner levels)";
      caps =
        {
          D.has_range = true;
          has_delete = true;
          has_recovery = true;
          is_persistent = true;
          lock_modes = [ Locks.Single; Locks.Sim ];
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
          ops
            (create ?leaf_bytes:cfg.D.node_bytes ~lock_mode:cfg.D.lock_mode
               ~root_slot:cfg.D.root_slot a));
      open_existing =
        (fun cfg a ->
          ops
            (open_existing ?leaf_bytes:cfg.D.node_bytes
               ~lock_mode:cfg.D.lock_mode ~root_slot:cfg.D.root_slot a));
    }
