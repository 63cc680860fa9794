(* Doubly-linked LRU list over slot indices, with a line -> slot map.
   Slot 0 is a sentinel head (most recent side); the tail side is
   evicted.  Slots [fresh .. capacity] have held no line since the last
   [clear]: a miss takes the next of them while any is left and evicts
   the LRU line after that.  All operations are O(1). *)

type t = {
  capacity : int;
  map : (int, int) Hashtbl.t; (* line -> slot *)
  line_of : int array;        (* slot -> line *)
  prev : int array;
  next : int array;
  mutable fresh : int;
  mutable last_miss_line : int;
}

type outcome = Hit | Miss | Seq_miss

let create ~capacity =
  let capacity = max capacity 1 in
  {
    capacity;
    map = Hashtbl.create (2 * capacity);
    line_of = Array.make (capacity + 1) 0;
    prev = Array.make (capacity + 1) 0;
    next = Array.make (capacity + 1) 0;
    fresh = 1;
    last_miss_line = min_int;
  }

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
  Hashtbl.remove t.map t.line_of.(victim);
  victim

let access t line =
  match Hashtbl.find_opt t.map line with
  | Some slot ->
      unlink t slot;
      push_front t slot;
      Hit
  | None ->
      let slot =
        if t.fresh <= t.capacity then begin
          t.fresh <- t.fresh + 1;
          t.fresh - 1
        end
        else evict_lru t
      in
      t.line_of.(slot) <- line;
      Hashtbl.replace t.map line slot;
      push_front t slot;
      let sequential = line = t.last_miss_line + 1 in
      t.last_miss_line <- line;
      if sequential then Seq_miss else Miss

let clear t =
  Hashtbl.reset t.map;
  t.fresh <- 1;
  t.next.(0) <- 0;
  t.prev.(0) <- 0;
  t.last_miss_line <- min_int

let resident t line = Hashtbl.mem t.map line
