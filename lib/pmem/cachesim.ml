(* Doubly-linked LRU list over slot indices, with a line -> slot map.
   Slot 0 is a sentinel head (most recent side); the tail side is
   evicted.  Slots [fresh .. capacity] have held no line since the last
   [clear]: a miss takes the next of them while any is left and evicts
   the LRU line after that.  All operations are O(1) and allocate
   nothing once the arrays have grown.

   The slot arrays grow with the number of resident lines, up to
   [capacity], and so does the map: most arenas never fill a
   full-size cache. *)

type t = {
  capacity : int;
  table : Linemap.t;
  mutable line_of : int array; (* slot -> line *)
  mutable prev : int array;
  mutable next : int array;
  mutable fresh : int;
  mutable last_miss_line : int;
}

type outcome = Hit | Miss | Seq_miss

let base_slots = 16

let set_slots t n =
  t.line_of <- Array.make n 0;
  t.prev <- Array.make n 0;
  t.next <- Array.make n 0

let create ~capacity =
  let t =
    {
      capacity = max capacity 1;
      table = Linemap.create ~bits:5;
      line_of = [||];
      prev = [||];
      next = [||];
      fresh = 1;
      last_miss_line = min_int;
    }
  in
  set_slots t base_slots;
  t

let grow_slots t =
  let n = Array.length t.line_of in
  let m = min (2 * n) (t.capacity + 1) in
  let extend a =
    let b = Array.make m 0 in
    Array.blit a 0 b 0 n;
    b
  in
  t.line_of <- extend t.line_of;
  t.prev <- extend t.prev;
  t.next <- extend t.next

let unlink t slot =
  let p = t.prev.(slot) and n = t.next.(slot) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let push_front t slot =
  let first = t.next.(0) in
  t.next.(0) <- slot;
  t.prev.(slot) <- 0;
  t.next.(slot) <- first;
  t.prev.(first) <- slot

let evict_lru t =
  let victim = t.prev.(0) in
  assert (victim <> 0);
  unlink t victim;
  ignore (Linemap.remove t.table t.line_of.(victim));
  victim

let lookup t line =
  let slot = Linemap.get t.table line in
  if slot <> Linemap.absent then begin
    unlink t slot;
    push_front t slot;
    Hit
  end
  else begin
    if t.fresh <= t.capacity then begin
      let slot = t.fresh in
      if slot = Array.length t.line_of then grow_slots t;
      t.fresh <- slot + 1;
      t.line_of.(slot) <- line;
      push_front t slot;
      Linemap.add t.table line slot
    end
    else begin
      let slot = evict_lru t in
      t.line_of.(slot) <- line;
      push_front t slot;
      Linemap.add t.table line slot
    end;
    let sequential = line = t.last_miss_line + 1 in
    t.last_miss_line <- line;
    if sequential then Seq_miss else Miss
  end

let access t line =
  let first = t.next.(0) in
  (* The most recent line again (the next word of the same node, say):
     the LRU order is already right. *)
  if first <> 0 && t.line_of.(first) = line then Hit else lookup t line

let clear t =
  Linemap.clear t.table;
  set_slots t base_slots;
  t.fresh <- 1;
  t.last_miss_line <- min_int

let resident t line = Linemap.get t.table line <> Linemap.absent
