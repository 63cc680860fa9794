module Arena = Ff_pmem.Arena
module Locks = Ff_index.Locks
module Intf = Ff_index.Intf

type node = {
  level : int;
  mutable nkeys : int;
  keys : int array;
  values : int array; (* leaves *)
  children : node option array; (* internal *)
  mutable sibling : node option;
  mutable high : int; (* exclusive bound; max_int at the right edge *)
  lock : Locks.mutex;
}

type t = {
  arena : Arena.t; (* cost accounting only *)
  lock_mode : Locks.mode;
  mutable root : node;
  root_mutex : Locks.mutex;
}

let node_visit_ns = 60
let probe_ns = 1
let fanout = 32

let mk_node t ~level =
  {
    level;
    nkeys = 0;
    keys = Array.make fanout 0;
    values = Array.make fanout 0;
    children = Array.make (fanout + 1) None;
    sibling = None;
    high = max_int;
    lock = Locks.make_mutex t.lock_mode;
  }

let create ?(lock_mode = Locks.Single) arena =
  let root =
    {
      level = 0;
      nkeys = 0;
      keys = Array.make fanout 0;
      values = Array.make fanout 0;
      children = Array.make (fanout + 1) None;
      sibling = None;
      high = max_int;
      lock = Locks.make_mutex lock_mode;
    }
  in
  { arena; lock_mode; root; root_mutex = Locks.make_mutex lock_mode }

let charge_visit t n =
  Arena.cpu_work t.arena (node_visit_ns + (probe_ns * n.nkeys))

(* First index with key < keys.(i); equals nkeys when none. *)
let upper t n key =
  ignore t;
  let rec go i = if i < n.nkeys && key >= n.keys.(i) then go (i + 1) else i in
  go 0

let leaf_find n key =
  let rec go i =
    if i >= n.nkeys then None
    else if n.keys.(i) = key then Some i
    else if n.keys.(i) > key then None
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Search: every node visit takes the read lock (no lock-free reads)  *)
(* ------------------------------------------------------------------ *)

let search t key =
  let rec descend n =
    Locks.lock n.lock;
    charge_visit t n;
    if key >= n.high then begin
      let s = n.sibling in
      Locks.unlock n.lock;
      match s with Some s -> descend s | None -> None
    end
    else if n.level = 0 then begin
      let r = match leaf_find n key with Some i -> Some n.values.(i) | None -> None in
      Locks.unlock n.lock;
      r
    end
    else begin
      let i = upper t n key in
      let c = n.children.(i) in
      Locks.unlock n.lock;
      match c with Some c -> descend c | None -> None
    end
  in
  descend t.root

(* ------------------------------------------------------------------ *)
(* Insert                                                              *)
(* ------------------------------------------------------------------ *)

(* Insert (key, value-or-child) into a node at a position; the caller
   holds the write lock and guarantees space. *)
let node_put n i key value child =
  Array.blit n.keys i n.keys (i + 1) (n.nkeys - i);
  n.keys.(i) <- key;
  if n.level = 0 then begin
    Array.blit n.values i n.values (i + 1) (n.nkeys - i);
    n.values.(i) <- value
  end
  else begin
    Array.blit n.children (i + 1) n.children (i + 2) (n.nkeys - i);
    n.children.(i + 1) <- child
  end;
  n.nkeys <- n.nkeys + 1

(* Split a full node (write lock held); returns (sep, sibling). *)
let split t n =
  let sib = mk_node t ~level:n.level in
  let total = n.nkeys in
  let mid = total / 2 in
  let sep = n.keys.(mid) in
  if n.level = 0 then begin
    (* Leaf: the separator stays in the right node. *)
    let moved = total - mid in
    Array.blit n.keys mid sib.keys 0 moved;
    Array.blit n.values mid sib.values 0 moved;
    sib.nkeys <- moved
  end
  else begin
    (* Internal: the separator moves up; its right child leads sib. *)
    let moved = total - mid - 1 in
    Array.blit n.keys (mid + 1) sib.keys 0 moved;
    Array.blit n.children (mid + 1) sib.children 0 (moved + 1);
    sib.nkeys <- moved
  end;
  sib.high <- n.high;
  sib.sibling <- n.sibling;
  n.high <- sep;
  n.sibling <- Some sib;
  n.nkeys <- mid;
  (sep, sib)

let rec insert_into t n key value child =
  Locks.lock n.lock;
  charge_visit t n;
  if key >= n.high then begin
    let s = n.sibling in
    Locks.unlock n.lock;
    match s with
    | Some s -> insert_into t s key value child
    | None -> failwith "Blink: broken chain"
  end
  else begin
    match (n.level, leaf_find n key) with
    | 0, Some i ->
        n.values.(i) <- value;
        Locks.unlock n.lock
    | _, _ ->
        if n.nkeys < fanout then begin
          node_put n (upper t n key) key value child;
          Locks.unlock n.lock
        end
        else begin
          let sep, sib = split t n in
          let target = if key < sep then n else sib in
          (if target == sib then charge_visit t sib);
          node_put target (upper t target key) key value child;
          let level = n.level + 1 in
          Locks.unlock n.lock;
          promote t ~level ~sep ~left:n ~right:sib
        end
  end

and promote t ~level ~sep ~left ~right =
  if t.root.level < level then begin
    Locks.lock t.root_mutex;
    if t.root.level < level && t.root == left then begin
      let nr = mk_node t ~level in
      nr.children.(0) <- Some left;
      nr.children.(1) <- Some right;
      nr.keys.(0) <- sep;
      nr.nkeys <- 1;
      t.root <- nr;
      Locks.unlock t.root_mutex
    end
    else begin
      Locks.unlock t.root_mutex;
      promote t ~level ~sep ~left ~right
    end
  end
  else begin
    (* Descend from the root to the target level. *)
    let rec descend n =
      if n.level = level then insert_into t n sep 0 (Some right)
      else begin
        Locks.lock n.lock;
        charge_visit t n;
        if sep >= n.high then begin
          let s = n.sibling in
          Locks.unlock n.lock;
          match s with Some s -> descend s | None -> failwith "Blink: broken chain"
        end
        else begin
          let c = n.children.(upper t n sep) in
          Locks.unlock n.lock;
          match c with Some c -> descend c | None -> failwith "Blink: missing child"
        end
      end
    in
    descend t.root
  end

let insert t ~key ~value =
  let rec descend n =
    if n.level = 0 then insert_into t n key value None
    else begin
      Locks.lock n.lock;
      charge_visit t n;
      if key >= n.high then begin
        let s = n.sibling in
        Locks.unlock n.lock;
        match s with Some s -> descend s | None -> failwith "Blink: broken chain"
      end
      else begin
        let c = n.children.(upper t n key) in
        Locks.unlock n.lock;
        match c with Some c -> descend c | None -> failwith "Blink: missing child"
      end
    end
  in
  descend t.root

(* ------------------------------------------------------------------ *)
(* Delete (leaf-local, like the other baselines)                       *)
(* ------------------------------------------------------------------ *)

let delete t key =
  let rec descend n =
    Locks.lock n.lock;
    charge_visit t n;
    if key >= n.high then begin
      let s = n.sibling in
      Locks.unlock n.lock;
      match s with Some s -> descend s | None -> false
    end
    else if n.level = 0 then begin
      Locks.unlock n.lock;
      Locks.lock n.lock;
      (* The leaf may have split while we upgraded the lock. *)
      if key >= n.high then begin
        let s = n.sibling in
        Locks.unlock n.lock;
        match s with Some s -> descend s | None -> false
      end
      else begin
        let r =
          match leaf_find n key with
          | None -> false
          | Some i ->
              Array.blit n.keys (i + 1) n.keys i (n.nkeys - i - 1);
              Array.blit n.values (i + 1) n.values i (n.nkeys - i - 1);
              n.nkeys <- n.nkeys - 1;
              true
        in
        Locks.unlock n.lock;
        r
      end
    end
    else begin
      let c = n.children.(upper t n key) in
      Locks.unlock n.lock;
      match c with Some c -> descend c | None -> false
    end
  in
  descend t.root

(* ------------------------------------------------------------------ *)
(* Range                                                               *)
(* ------------------------------------------------------------------ *)

let range t ~lo ~hi f =
  let rec to_leaf n =
    if n.level = 0 then n
    else begin
      Locks.lock n.lock;
      charge_visit t n;
      let next =
        if lo >= n.high then n.sibling else n.children.(upper t n lo)
      in
      Locks.unlock n.lock;
      match next with Some c -> to_leaf c | None -> n
    end
  in
  let rec scan n =
    Locks.lock n.lock;
    charge_visit t n;
    let stop = ref false in
    for i = 0 to n.nkeys - 1 do
      let k = n.keys.(i) in
      if k > hi then stop := true else if k >= lo && not !stop then f k n.values.(i)
    done;
    let s = n.sibling in
    Locks.unlock n.lock;
    if not !stop then match s with Some s -> scan s | None -> ()
  in
  scan (to_leaf t.root)

let height t =
  let rec go n = match n.children.(0) with Some c when n.level > 0 -> 1 + go c | _ -> 1 in
  go t.root

let ops t =
  Intf.make ~name:"blink"
    ~insert:(fun k v -> insert t ~key:k ~value:v)
    ~search:(fun k -> search t k)
    ~delete:(fun k -> delete t k)
    ~range:(fun lo hi f -> range t ~lo ~hi f)
    ~recover:(fun () -> ())
    ()

let () =
  let module D = Ff_index.Descriptor in
  Ff_index.Registry.register
    {
      D.name = "blink";
      summary = "volatile B-link tree (Lehman & Yao; Figure 7's concurrency reference)";
      caps =
        {
          D.has_range = true;
          has_delete = true;
          has_recovery = false;
          is_persistent = false;
          lock_modes = [ Locks.Single; Locks.Sim ];
          lock_free_reads = false;
          tunable_node_bytes = false;
          relocatable_root = false;
          scrubbable = false;
          txnable = false;
          snapshottable = false;
        };
      composite = None;
      build = (fun cfg a -> ops (create ~lock_mode:cfg.D.lock_mode a));
      open_existing =
        (fun _cfg _a ->
          invalid_arg "blink is volatile: no persisted image to reopen");
    }
