module Arena = Ff_pmem.Arena
module Stats = Ff_pmem.Stats
module L = Layout
module Locks = Ff_index.Locks
module Intf = Ff_index.Intf
module Trace = Ff_trace.Trace

type split_policy = Fair | Logged

type t = {
  arena : Arena.t;
  layout : L.t;
  root_slot : int;
  mode : Node.search_mode;
  split_policy : split_policy;
  locks : Locks.Table.t;
  leaf_read_locks : bool;
  root_mutex : Locks.mutex;
  mutable lazy_pending : bool;
  clean : (int, unit) Hashtbl.t;
  mutable log_area : int;
  mutable tracer : Trace.t;
  (* Leaf finger: the leaf the last descent reached, from its
     persisted low key [finger_lo] up to the route separator
     [finger_hi]; [finger = 0] when unset.  Volatile and advisory:
     FAIR keeps every key a sibling walk right of its old leaf, so
     only [finger_lo] must be exact (DESIGN.md deviation 10). *)
  mutable finger : Layout.node;
  mutable finger_lo : int;
  mutable finger_hi : int;
  (* Run hint: the leaf and slot the last leaf insert landed in
     ([run_leaf = 0] when unset).  Volatile and advisory like the
     finger: a full leaf whose next key lands just right of it is cut
     there, not at the median (DESIGN.md deviation 11). *)
  mutable run_leaf : Layout.node;
  mutable run_pos : int;
}

let arena t = t.arena
let layout t = t.layout
let root_slot t = t.root_slot

let make_t ?(node_bytes = 512) ?(mode = Node.Linear) ?(split_policy = Fair)
    ?(lock_mode = Locks.Single) ?(leaf_read_locks = false) ?(root_slot = 0)
    arena =
  {
    arena;
    layout = L.make ~node_bytes;
    root_slot;
    mode;
    split_policy;
    locks = Locks.Table.create lock_mode;
    leaf_read_locks;
    root_mutex = Locks.make_mutex lock_mode;
    lazy_pending = false;
    clean = Hashtbl.create 256;
    log_area = 0;
    tracer = Trace.null;
    finger = 0;
    finger_lo = 0;
    finger_hi = 0;
    run_leaf = 0;
    run_pos = 0;
  }

let create ?node_bytes ?mode ?split_policy ?lock_mode ?leaf_read_locks
    ?root_slot arena =
  let t =
    make_t ?node_bytes ?mode ?split_policy ?lock_mode ?leaf_read_locks
      ?root_slot arena
  in
  let a = t.arena and l = t.layout in
  let root = Arena.alloc a l.L.node_words in
  Node.init a l root ~level:0 ~leftmost:0 ~low:0;
  Arena.flush_range a root l.L.node_words;
  Arena.root_set a t.root_slot root;
  t

let open_existing ?node_bytes ?mode ?split_policy ?lock_mode ?leaf_read_locks
    ?root_slot arena =
  let t =
    make_t ?node_bytes ?mode ?split_policy ?lock_mode ?leaf_read_locks
      ?root_slot arena
  in
  t.log_area <- Arena.root_get arena (t.root_slot + 1);
  t

let root t = Arena.root_get t.arena t.root_slot

let set_tracer t tr = t.tracer <- tr
let tracer t = t.tracer

(* Span + per-op metrics wrapper.  When tracing is off this is one
   field test; eventing never charges simulated time, so enabling it
   does not move measured ns/op. *)
let flushes_of t = (Arena.stats t.arena (Arena.tid t.arena)).Stats.flushes

let with_op t id hist_latency hist_flushes key f =
  let tr = t.tracer in
  if not (Trace.enabled tr) then f ()
  else begin
    Trace.span_begin tr id key;
    let t0 = Trace.now tr and f0 = flushes_of t in
    let finish () =
      Trace.observe tr hist_latency (Trace.now tr - t0);
      Trace.observe tr hist_flushes (flushes_of t - f0);
      Trace.span_end tr id
    in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)
(* ------------------------------------------------------------------ *)

let is_leaf t n = L.is_leaf t.arena n

let wlock t n =
  if t.leaf_read_locks && is_leaf t n then
    Locks.wr_lock (Locks.Table.rwlock_of t.locks n)
  else Locks.lock (Locks.Table.mutex_of t.locks n)

let wunlock t n =
  if t.leaf_read_locks && is_leaf t n then
    Locks.wr_unlock (Locks.Table.rwlock_of t.locks n)
  else Locks.unlock (Locks.Table.mutex_of t.locks n)

let rlock t n =
  if t.leaf_read_locks then Locks.rd_lock (Locks.Table.rwlock_of t.locks n)

let runlock t n =
  if t.leaf_read_locks then Locks.rd_unlock (Locks.Table.rwlock_of t.locks n)

(* ------------------------------------------------------------------ *)
(* Descent with B-link move-right, and the leaf finger                 *)
(* ------------------------------------------------------------------ *)

(* Has the current node been split past us, i.e. does the sibling's
   range cover the key?  The persisted low key is the exact bound;
   the released C++ code compares the sibling's first entry, which is
   wrong for the separator gap of internal splits (see Layout.low). *)
let chain_covers t s key = s <> 0 && L.low t.arena s <= key

let drop_finger t =
  t.finger <- 0;
  t.run_leaf <- 0

(* A writer or reader that had to chase the sibling chain off the
   finger leaf found its range shrunk: forget it. *)
let left_finger t leaf = if leaf = t.finger then drop_finger t

(* Descend from [node], whose level is [nl], to the node covering
   [key] at [level]; [hi] bounds the range above.  Only the root's
   level is read: a node's level never changes, a child is one level
   below its parent and a sibling shares its node's level
   ([Invariant] checks both).  The sibling is read only where the
   route scan finds no entry greater than the key (B-link
   move-right), and then its low key also bounds the child's range;
   at [level] itself nobody moves right: readers chase siblings on a
   miss and writers re-check [chain_covers] under the lock.  A descent
   that reaches a leaf leaves the finger on it, from the leaf's
   persisted low key up to [hi] ([Binary] routes report no upper
   separator, so that mode sets none). *)
let rec descend t node nl key ~level ~hi =
  let a = t.arena in
  if nl = level then begin
    if level = 0 && t.mode = Node.Linear then begin
      (* Load first: the three fields change with no yield between. *)
      let lo = L.low a node in
      t.finger <- node;
      t.finger_lo <- lo;
      t.finger_hi <- hi
    end;
    node
  end
  else
    let child, c_hi = Node.route a t.layout node ~mode:t.mode ~tr:t.tracer key in
    if c_hi <> 0 then descend t child (nl - 1) key ~level ~hi:(min hi c_hi)
    else
      let s = L.sibling a node in
      if s = 0 then descend t child (nl - 1) key ~level ~hi
      else
        let low = L.low a s in
        if low <= key then descend t s nl key ~level ~hi
        else descend t child (nl - 1) key ~level ~hi:(min hi low)

let to_leaf t key =
  if t.finger <> 0 && t.finger_lo <= key && key < t.finger_hi then t.finger
  else
    let rt = root t in
    descend t rt (L.level t.arena rt) key ~level:0 ~hi:max_int

(* ------------------------------------------------------------------ *)
(* Lazy recovery hooks (Section 4.2)                                   *)
(* ------------------------------------------------------------------ *)

(* Complete an interrupted FAIR split on this node: if its entries
   overlap the sibling's range, the truncation store never persisted —
   redo it. *)
let complete_truncation t node =
  let a = t.arena and l = t.layout in
  let s = L.sibling a node in
  if s <> 0 then
    match (Node.last_entry a l node, Some (L.low a s, ())) with
    | Some (last, _), Some (sfk, _) when last >= sfk -> (
        match
          let rec find_pos i prev_raw =
            if i >= l.L.capacity then None
            else begin
              let p = L.ptr a node i in
              if p = 0 then None
              else if p <> prev_raw && L.key a node i >= sfk then Some i
              else find_pos (i + 1) p
            end
          in
          find_pos 0 (L.leftmost a node)
        with
        | Some pos -> Node.truncate_from a l node ~count:(Node.count a l node) pos
        | None -> ())
    | (Some _ | None), (Some _ | None) -> ()

let writer_fix_if_pending t node =
  if t.lazy_pending && not (Hashtbl.mem t.clean node) then begin
    let fixed = Node.writer_fix t.arena t.layout node in
    if fixed then Trace.incr t.tracer "fastfair.recovery.lazy_fixes";
    complete_truncation t node;
    Hashtbl.replace t.clean node ()
  end

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let search t key =
  with_op t Trace.id_search "fastfair.latency_ns.search"
    "fastfair.flushes_per_op.search" key
  @@ fun () ->
  let a = t.arena and l = t.layout in
  Arena.set_phase a Stats.Search;
  let leaf = to_leaf t key in
  (* Algorithm 3 epilogue: on a miss, chase the sibling chain while it
     can still cover the key. *)
  let rec at_leaf leaf =
    rlock t leaf;
    let v = Node.search a l leaf ~mode:t.mode ~tr:t.tracer key in
    let next =
      match v with
      | Some _ -> None
      | None ->
          let s = L.sibling a leaf in
          if s <> 0 && chain_covers t s key then Some s else None
    in
    runlock t leaf;
    match (v, next) with
    | Some v, _ -> Some v
    | None, Some s ->
        left_finger t leaf;
        if Trace.enabled t.tracer then begin
          Trace.incr t.tracer "fastfair.sibling_chase";
          Trace.instant t.tracer Trace.id_sibling_chase s
        end;
        at_leaf s
    | None, None -> None
  in
  let r = at_leaf leaf in
  Arena.set_phase a Stats.Other;
  r

(* ------------------------------------------------------------------ *)
(* Logged splits (the FAST+Logging baseline)                           *)
(* ------------------------------------------------------------------ *)

let ensure_log t =
  if t.log_area = 0 then begin
    let la = Arena.alloc t.arena (t.layout.L.node_words + Arena.words_per_line) in
    t.log_area <- la;
    Arena.root_set t.arena (t.root_slot + 1) la
  end;
  t.log_area

let write_split_log t node =
  let a = t.arena and l = t.layout in
  let la = ensure_log t in
  let image = la + Arena.words_per_line in
  for i = 0 to l.L.node_words - 1 do
    Arena.write a (image + i) (Arena.read a (node + i))
  done;
  Arena.flush_range a image l.L.node_words;
  Arena.write a la node;
  Arena.write a (la + 1) 1;
  Arena.flush a la

let clear_split_log t =
  let a = t.arena in
  let la = ensure_log t in
  Arena.write a (la + 1) 0;
  Arena.flush a la

let restore_from_log t =
  let a = t.arena and l = t.layout in
  let la = Arena.root_get a (t.root_slot + 1) in
  if la <> 0 && Arena.peek a (la + 1) = 1 then begin
    t.log_area <- la;
    let node = Arena.read a la in
    let image = la + Arena.words_per_line in
    for i = 0 to l.L.node_words - 1 do
      Arena.write a (node + i) (Arena.read a (image + i))
    done;
    Arena.flush_range a node l.L.node_words;
    Arena.write a (la + 1) 0;
    Arena.flush a la
  end
  else if la <> 0 then t.log_area <- la

(* ------------------------------------------------------------------ *)
(* Insertion: FAST in-node, FAIR split, parent update                  *)
(* ------------------------------------------------------------------ *)

let set_run t leaf pos =
  t.run_leaf <- leaf;
  t.run_pos <- pos

let append_raw t sib j k p =
  let a = t.arena in
  L.set_key a sib j k;
  L.set_ptr a sib j p

(* Split [node] (lock held, node full with [cnt] entries) and insert
   the pending (key, value), whose insertion position is [pos];
   releases the lock and attaches the new sibling to the parent.
   Paper Algorithm 2, cutting at the median, except that a leaf whose
   last insert landed at [pos - 1] is cut at [pos]: an ascending run
   leaves the donor full, and at [pos = cnt] the sibling holds only
   the new key, its separator.  Any cut in [1 .. cnt] keeps the store
   order, so readers and recovery cannot tell. *)
let rec split_and_insert t node cnt pos key value =
  let a = t.arena and l = t.layout in
  let level = L.level a node in
  let cut =
    if level = 0 && node = t.run_leaf && pos = t.run_pos + 1 then pos else cnt / 2
  in
  let sep = if cut = cnt then key else L.key a node cut in
  Trace.span_begin t.tracer Trace.id_split level;
  if Trace.enabled t.tracer then
    Trace.incr t.tracer (Printf.sprintf "fastfair.splits.level%d" level);
  if t.split_policy = Logged then write_split_log t node;
  let sib = Arena.alloc a l.L.node_words in
  let leftmost = if level = 0 then 0 else L.ptr a node cut in
  Node.init a l sib ~level ~leftmost ~low:sep;
  let start = if level = 0 then cut else cut + 1 in
  let j = ref 0 in
  for i = start to cnt - 1 do
    append_raw t sib !j (L.key a node i) (L.ptr a node i);
    incr j
  done;
  L.set_count_hint a sib !j;
  (* While still private, place the pending key if it belongs right. *)
  if key >= sep then Node.insert_nonfull a l sib ~count:!j ~key ~value;
  L.set_sibling a sib (L.sibling a node);
  Arena.flush_range a sib l.L.node_words;
  (* Commit point: the sibling becomes visible. *)
  L.set_sibling a node sib;
  Arena.flush a (node + L.off_sibling);
  (* In-place truncation of the donor. *)
  if cut < cnt then Node.truncate_from a l node ~count:cnt cut;
  if node = t.finger then t.finger_hi <- min t.finger_hi sep;
  if key < sep then Node.insert_nonfull a l node ~count:cut ~key ~value;
  if level = 0 then
    if key < sep then set_run t node pos else set_run t sib (pos - cut);
  if t.split_policy = Logged then clear_split_log t;
  Trace.span_end t.tracer Trace.id_split;
  wunlock t node;
  (* Update the parent by traversing from the root (Algorithm 2 l.28). *)
  insert_at_level t ~level:(level + 1) ~key:sep ~child:sib ~donor:node

(* Generic locked insert into the node covering [key] at its level.
   For internal nodes, [value] is a child pointer and an existing equal
   separator means the attachment already happened. *)
and insert_into_node t node key value ~internal =
  let a = t.arena and l = t.layout in
  wlock t node;
  writer_fix_if_pending t node;
  let s = L.sibling a node in
  if s <> 0 && chain_covers t s key then begin
    (* A concurrent (or interrupted) split moved our range right. *)
    wunlock t node;
    left_finger t node;
    insert_into_node t s key value ~internal
  end
  else begin
    Arena.set_phase a Stats.Search;
    let existing = Node.locate a l node key in
    Arena.set_phase a Stats.Update;
    match existing with
    | Node.Found pos ->
        if not internal then Node.update_value a l node ~pos ~value;
        wunlock t node
    | Node.Absent { pos; count } ->
        if count < l.L.capacity then begin
          (* The level argument is a charged read: only pay it when
             tracing is on, so the disabled path is cost-free. *)
          if Trace.enabled t.tracer then
            Trace.span_begin t.tracer Trace.id_fast_shift (L.level a node);
          Node.insert_nonfull a l node ~count ~key ~value;
          Trace.span_end t.tracer Trace.id_fast_shift;
          if not internal then set_run t node pos;
          wunlock t node
        end
        else split_and_insert t node count pos key value
  end

(* Insert a separator into the internal level [level], growing the root
   if the tree is shorter than that. *)
and insert_at_level t ~level ~key ~child ~donor =
  let a = t.arena in
  let rt = root t in
  let rl = L.level a rt in
  if rl < level then grow_root t ~level ~sep:key ~child ~donor
  else insert_into_node t (descend t rt rl key ~level ~hi:max_int) key child ~internal:true

and grow_root t ~level ~sep ~child ~donor =
  let a = t.arena and l = t.layout in
  Locks.lock t.root_mutex;
  let rt = root t in
  if L.level a rt >= level then begin
    (* Someone grew the root first; retry as a normal insert. *)
    Locks.unlock t.root_mutex;
    insert_at_level t ~level ~key:sep ~child ~donor
  end
  else if rt <> donor then begin
    (* The tree is shorter than [level] but we did not split the root
       itself: the root's own split is still promoting.  Only that
       thread may grow the root (its node must become the new root's
       leftmost child); wait for it and retry. *)
    Locks.unlock t.root_mutex;
    Arena.cpu_work a 100;
    grow_root t ~level ~sep ~child ~donor
  end
  else begin
    let nr = Arena.alloc a l.L.node_words in
    Node.init a l nr ~level ~leftmost:donor ~low:0;
    append_raw t nr 0 sep child;
    L.set_count_hint a nr 1;
    Arena.flush_range a nr l.L.node_words;
    Arena.root_set a t.root_slot nr;
    Locks.unlock t.root_mutex;
    if Trace.enabled t.tracer then begin
      Trace.incr t.tracer "fastfair.root_grows";
      Trace.instant t.tracer (Trace.intern t.tracer "root_grow") level
    end
  end

let insert t ~key ~value =
  if key <= 0 then invalid_arg "Tree.insert: key must be positive";
  if value = 0 then invalid_arg "Tree.insert: value must be nonzero";
  with_op t Trace.id_insert "fastfair.latency_ns.insert"
    "fastfair.flushes_per_op.insert" key
  @@ fun () ->
  let a = t.arena in
  Arena.set_phase a Stats.Search;
  let leaf = to_leaf t key in
  insert_into_node t leaf key value ~internal:false;
  Arena.set_phase a Stats.Other

(* ------------------------------------------------------------------ *)
(* Deletion (in-node FAST left shift; no structural rebalance, like    *)
(* the released implementation)                                        *)
(* ------------------------------------------------------------------ *)

let delete t key =
  with_op t Trace.id_delete "fastfair.latency_ns.delete"
    "fastfair.flushes_per_op.delete" key
  @@ fun () ->
  let a = t.arena and l = t.layout in
  Arena.set_phase a Stats.Search;
  let leaf = to_leaf t key in
  let rec del leaf =
    wlock t leaf;
    writer_fix_if_pending t leaf;
    let s = L.sibling a leaf in
    if s <> 0 && chain_covers t s key then begin
      wunlock t leaf;
      left_finger t leaf;
      del s
    end
    else begin
      Arena.set_phase a Stats.Update;
      let found = Node.delete a l leaf key in
      wunlock t leaf;
      found
    end
  in
  let r = del leaf in
  Arena.set_phase a Stats.Other;
  r

(* ------------------------------------------------------------------ *)
(* Range scan                                                          *)
(* ------------------------------------------------------------------ *)

let range t ~lo ~hi f =
  with_op t Trace.id_range "fastfair.latency_ns.range"
    "fastfair.flushes_per_op.range" lo
  @@ fun () ->
  let a = t.arena and l = t.layout in
  Arena.set_phase a Stats.Search;
  let leaf = to_leaf t lo in
  let last = ref (lo - 1) in
  let rec scan node =
    rlock t node;
    let cap = l.L.capacity in
    let beyond = ref false in
    let rec go i prev_raw =
      if i < cap && not !beyond then begin
        let p = L.ptr a node i in
        if p <> 0 then begin
          let k = L.key a node i in
          if p <> prev_raw then begin
            if k > hi then beyond := true
            else if k >= lo && k > !last then begin
              f k p;
              last := k
            end
          end;
          go (i + 1) p
        end
      end
    in
    go 0 (L.leftmost a node);
    let s = L.sibling a node in
    runlock t node;
    if (not !beyond) && s <> 0 then scan s
  in
  scan leaf;
  Arena.set_phase a Stats.Other

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let leftmost_of_level t level =
  let a = t.arena in
  let rec go n = if L.level a n > level then go (L.leftmost a n) else n in
  go (root t)

let chain_of t first =
  let a = t.arena in
  let rec go n acc = if n = 0 then List.rev acc else go (L.sibling a n) (n :: acc) in
  go first []

(* Grow the root if it has been split but the new root never
   committed.  Only the root's splitter may grow it over its sibling,
   and a writer that splits the sibling waits for that: after a crash
   killed the splitter, it is recovery's job. *)
let finish_root_grow t =
  let a = t.arena in
  let rt = root t in
  let s = L.sibling a rt in
  if s <> 0 then grow_root t ~level:(L.level a rt + 1) ~sep:(L.low a s) ~child:s ~donor:rt;
  s <> 0

let eager_recover t =
  let a = t.arena and l = t.layout in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    if finish_root_grow t then changed := true;
    let rt = root t in
    let top = L.level a rt in
    for level = top downto 0 do
      let chain = chain_of t (leftmost_of_level t level) in
      (* Node-local repairs. *)
      List.iter
        (fun n ->
          if Node.writer_fix a l n then begin
            changed := true;
            Trace.incr t.tracer "fastfair.recovery.fixes"
          end;
          complete_truncation t n)
        chain;
      (* Re-attach dangling siblings: collect children referenced from
         the parent level, then insert any unreferenced node. *)
      if level < top then begin
        let referenced = Hashtbl.create 64 in
        let parents = chain_of t (leftmost_of_level t (level + 1)) in
        List.iter
          (fun p ->
            Hashtbl.replace referenced (L.leftmost a p) ();
            List.iter
              (fun (_, c) -> Hashtbl.replace referenced c ())
              (Node.entries_debug a l p))
          parents;
        List.iteri
          (fun i n ->
            if i > 0 && not (Hashtbl.mem referenced n) then begin
              changed := true;
              insert_at_level t ~level:(level + 1) ~key:(L.low a n) ~child:n
                ~donor:n
            end)
          chain
      end
    done
  done

let recover ?(lazy_ = false) t =
  Trace.span_begin t.tracer Trace.id_recovery (if lazy_ then 1 else 0);
  Hashtbl.reset t.clean;
  drop_finger t;
  if t.split_policy = Logged then restore_from_log t;
  if lazy_ then begin
    while finish_root_grow t do () done;
    t.lazy_pending <- true
  end
  else eager_recover t;
  Trace.span_end t.tracer Trace.id_recovery

(* ------------------------------------------------------------------ *)
(* Misc                                                                *)
(* ------------------------------------------------------------------ *)

let height t = L.level t.arena (root t) + 1

let reachable_nodes t =
  let a = t.arena in
  let seen = Hashtbl.create 256 in
  let acc = ref [] in
  let rec visit n =
    if n <> 0 && not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      acc := n :: !acc;
      let level = Arena.peek a (n + L.off_level) in
      visit (Arena.peek a (n + L.off_sibling));
      if level > 0 then begin
        visit (Arena.peek a (n + L.off_leftmost));
        List.iter (fun (_, c) -> visit c) (Node.entries_debug a t.layout n)
      end
    end
  in
  visit (root t);
  List.rev !acc

let ops t =
  Intf.make ~name:"fastfair"
    ~insert:(fun k v -> insert t ~key:k ~value:v)
    ~search:(fun k -> search t k)
    ~delete:(fun k -> delete t k)
    ~range:(fun lo hi f -> range t ~lo ~hi f)
    ~recover:(fun () -> recover t)
    ~close:(fun () -> Arena.drain t.arena)
    ~set_tracer:(set_tracer t)
    ()

let cardinal t =
  let a = t.arena and l = t.layout in
  let rec leftmost n = if L.is_leaf a n then n else leftmost (L.leftmost a n) in
  let rec go n acc =
    if n = 0 then acc
    else go (L.sibling a n) (acc + List.length (Node.entries_debug a l n))
  in
  go (leftmost (root t)) 0

(* ------------------------------------------------------------------ *)
(* Registry descriptors: one per policy/lock variant                   *)
(* ------------------------------------------------------------------ *)

let descriptor ~name ~summary ?split_policy ?(leaf_read_locks = false) () =
  let module D = Ff_index.Descriptor in
  {
    D.name;
    summary;
    caps =
      {
        D.has_range = true;
        has_delete = true;
        has_recovery = true;
        is_persistent = true;
        lock_modes = [ Locks.Single; Locks.Sim ];
        lock_free_reads = not leaf_read_locks;
        tunable_node_bytes = true;
        relocatable_root = true;
        scrubbable = true;
        txnable = true;
        snapshottable = false;
      };
    composite = None;
    build =
      (fun cfg a ->
        ops
          (create ?node_bytes:cfg.D.node_bytes ?split_policy
             ~lock_mode:cfg.D.lock_mode ~leaf_read_locks
             ~root_slot:cfg.D.root_slot a));
    open_existing =
      (fun cfg a ->
        ops
          (open_existing ?node_bytes:cfg.D.node_bytes ?split_policy
             ~lock_mode:cfg.D.lock_mode ~leaf_read_locks
             ~root_slot:cfg.D.root_slot a));
  }

let () =
  let r = Ff_index.Registry.register in
  r
    (descriptor ~name:"fastfair"
       ~summary:"FAST+FAIR persistent B+-tree (the paper's design)" ());
  r
    (descriptor ~name:"fastfair-logged"
       ~summary:"FAST with legacy logged splits (Figure 5's FAST+Logging)"
       ~split_policy:Logged ());
  r
    (descriptor ~name:"fastfair-leaflock"
       ~summary:"FAST+FAIR with serializable leaf read locks (Section 4.1)"
       ~leaf_read_locks:true ())
