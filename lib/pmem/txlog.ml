type record = { key : int; old_v : int; new_v : int }

let slot_addr = 56
let slot_words = 57
let default_capacity = 64
let magic = 0x54584c31 (* "TXL1" *)

(* Header word offsets within the region's first line. *)
let off_magic = 0
let off_commit = 1
let off_head = 2
let off_prepared = 3
let off_coord = 4 (* coordinator shard + 1; 0 = none *)

(* Id of the transaction the record slots belong to.  Written at
   begin_tx, BEFORE any head store on the same header line: crash modes
   persist per-line store prefixes, so any crash image whose head is
   nonzero also carries the matching txid — and record slots still
   holding a stale image (an earlier transaction's, possibly from an
   earlier run: ids continue across attach) then fail the tag check
   instead of being replayed. *)
let off_txid = 5

let record_words = Arena.words_per_line

(* Per-record integrity word, stored last in the record line.  Crash
   modes can persist any per-line store prefix, so a record is trusted
   only when its checksum — which no proper prefix can carry — matches.
   Forced odd so a dropped (all-zero) checksum word never validates. *)
let checksum ~tag ~seq ~key ~old_v ~new_v =
  let h = tag in
  let h = (h * 131) + seq in
  let h = (h * 131) + key in
  let h = (h * 131) + old_v in
  let h = (h * 131) + new_v in
  h lor 1

type t = {
  arena : Arena.t;
  base : int;             (* region base word address *)
  cap : int;              (* record capacity *)
  mutable open_tx : bool;
  mutable txid : int;     (* id of the open (or last) transaction *)
  mutable count : int;    (* volatile mirror of the head word *)
  mutable next_id : int;
  mutable torn : bool;
  mutable payload : int list;
      (* the open transaction's payload words, not yet written back *)
}

let arena t = t.arena
let capacity t = t.cap
let set_torn_commit t b = t.torn <- b
let torn_commit t = t.torn

let record_base t i = t.base + record_words + (i * record_words)

let mk arena base cap ~next_id =
  {
    arena;
    base;
    cap;
    open_tx = false;
    txid = 0;
    count = 0;
    next_id;
    torn = false;
    payload = [];
  }

(* Ids continue past every id the region carries, the header's and any
   slot's tag (a crash can keep a first append's record line but not
   the header line): a slot from an earlier run then never matches a
   later transaction's tag, although [records] reads past [head]. *)
let attach arena =
  let base = Arena.root_get arena slot_addr in
  if base = 0 then None
  else begin
    let words = Arena.root_get arena slot_words in
    if Arena.peek arena base <> magic then None
    else begin
      let cap = (words - record_words) / record_words in
      let last = ref (Arena.peek arena (base + off_txid)) in
      for i = 1 to cap do
        last := max !last (Arena.peek arena (base + (i * record_words)))
      done;
      Some (mk arena base cap ~next_id:(!last + 1))
    end
  end

let ensure ?(capacity = default_capacity) arena =
  match attach arena with
  | Some t -> t
  | None ->
      let words = record_words * (capacity + 1) in
      let base = Arena.alloc_raw arena words in
      Arena.write arena (base + off_magic) magic;
      Arena.write arena (base + off_commit) 0;
      Arena.write arena (base + off_head) 0;
      Arena.write arena (base + off_prepared) 0;
      Arena.write arena (base + off_coord) 0;
      Arena.write arena (base + off_txid) 0;
      Arena.flush arena base;
      Arena.fence arena;
      (* The size is anchored first and the address last: a crash
         mid-initialization leaves slot_addr zero — no log — rather
         than a root pointing at an uninitialized region. *)
      Arena.root_set arena slot_words words;
      Arena.root_set arena slot_addr base;
      mk arena base capacity ~next_id:1

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let begin_tx t =
  if t.open_tx then invalid_arg "Txlog.begin_tx: transaction already in flight";
  t.open_tx <- true;
  t.txid <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.count <- 0;
  t.payload <- [];
  (* Pending until the first flush of the header line (the first
     append's, or persist_payload's); ordered before any head store. *)
  Arena.write t.arena (t.base + off_txid) t.txid;
  t.txid

let append ?(persist = true) ?payload t r =
  if not t.open_tx then invalid_arg "Txlog.append: no transaction open";
  if t.count >= t.cap then
    invalid_arg
      (Printf.sprintf "Txlog.append: log full (%d records); raise ?capacity"
         t.cap);
  let a = t.arena in
  let i = t.count in
  let rb = record_base t i in
  Arena.write a (rb + 0) t.txid;
  Arena.write a (rb + 1) i;
  Arena.write a (rb + 2) r.key;
  Arena.write a (rb + 3) r.old_v;
  Arena.write a (rb + 4) r.new_v;
  Arena.write a (rb + 5)
    (checksum ~tag:t.txid ~seq:i ~key:r.key ~old_v:r.old_v ~new_v:r.new_v);
  Arena.write a (t.base + off_head) (i + 1);
  t.count <- i + 1;
  Option.iter (fun p -> t.payload <- p :: t.payload) payload;
  (* Undo-logging ordering: the record line is written back and one
     fence makes it durable before the caller's in-place write.  The
     first append also writes back the header, whose txid and nonzero
     head put the log in flight; later head stores need not be durable,
     since [records] reads slots while they validate.  The payload word
     waits for the commit fence ({!write_back_payload}): until the log
     is truncated, recovery binds the key back to its old, durable
     cell.  Inside the caller's group scope the write-backs are [clwb]s
     and that fence is the only one.  The torn-commit mutant elides
     exactly this persist. *)
  if persist && not t.torn then begin
    Arena.flush a rb;
    if i = 0 then Arena.flush a t.base;
    Arena.fence a
  end

(* Each remembered payload line once: fresh cells often share a line. *)
let write_back_payload t =
  List.iter
    (fun line -> Arena.flush t.arena (line * Arena.words_per_line))
    (List.sort_uniq compare
       (List.map (fun p -> p / Arena.words_per_line) t.payload))

(* The deferred path's one ordering point: staged payload lines, record
   lines and the header go out as one group closed by one fence, all
   before the commit word or prepared marker is stored. *)
let persist_payload t =
  let a = t.arena in
  let own = not (Arena.in_group a) in
  if own then Arena.group_begin a;
  write_back_payload t;
  for i = 0 to t.count - 1 do
    Arena.flush a (record_base t i)
  done;
  Arena.flush a t.base;
  if own then Arena.group_end a else Arena.fence a

let set_commit t =
  let a = t.arena in
  Arena.write a (t.base + off_commit) t.txid;
  Arena.flush a t.base;
  Arena.fence a

let set_prepared t ~gtid ~coord =
  if gtid <= 0 then invalid_arg "Txlog.set_prepared: gtid must be positive";
  let a = t.arena in
  Arena.write a (t.base + off_prepared) gtid;
  Arena.write a (t.base + off_coord) (coord + 1);
  Arena.flush a t.base;
  Arena.fence a

let discard t =
  let a = t.arena in
  Arena.write a (t.base + off_commit) 0;
  Arena.write a (t.base + off_head) 0;
  Arena.write a (t.base + off_prepared) 0;
  Arena.write a (t.base + off_coord) 0;
  Arena.flush a t.base;
  Arena.fence a;
  t.open_tx <- false;
  t.count <- 0

let abandon t =
  if t.count > 0 then
    invalid_arg "Txlog.abandon: transaction appended records; discard instead";
  t.open_tx <- false

(* ------------------------------------------------------------------ *)
(* Reading and recovery                                                *)
(* ------------------------------------------------------------------ *)

type state =
  | Idle
  | In_flight of int
  | Committed of int
  | Prepared of { gtid : int; coord : int; count : int }

let state t =
  let a = t.arena in
  let commit = Arena.read a (t.base + off_commit) in
  let head = Arena.read a (t.base + off_head) in
  let prepared = Arena.read a (t.base + off_prepared) in
  if commit <> 0 then Committed head
  else if prepared <> 0 then
    Prepared
      { gtid = prepared; coord = Arena.read a (t.base + off_coord) - 1; count = head }
  else if head > 0 then In_flight head
  else Idle

let decision t ~gtid =
  let a = t.arena in
  Arena.read a (t.base + off_commit) <> 0
  && Arena.read a (t.base + off_prepared) = gtid

(* A nonzero head puts the log in flight; the records are then the
   slots, read up to capacity, whose tag matches the header's durable
   transaction id (ordered before the head on the same line), whose
   sequence number matches their slot, and whose checksum validates.
   A torn append (record line not fully — or not at all — persisted)
   ends the scan instead of replaying garbage, and a slot left over
   from an earlier transaction fails the tag check: ids only grow. *)
let records t =
  let a = t.arena in
  if Arena.read a (t.base + off_head) <= 0 then []
  else begin
    let tag0 = Arena.read a (t.base + off_txid) in
    let rec go i acc =
      if i >= t.cap then List.rev acc
      else
        let rb = record_base t i in
        let tag = Arena.read a (rb + 0) in
        let seq = Arena.read a (rb + 1) in
        let key = Arena.read a (rb + 2) in
        let old_v = Arena.read a (rb + 3) in
        let new_v = Arena.read a (rb + 4) in
        if
          tag0 = 0 || tag <> tag0 || seq <> i
          || Arena.read a (rb + 5) <> checksum ~tag ~seq ~key ~old_v ~new_v
        then List.rev acc
        else go (i + 1) ({ key; old_v; new_v } :: acc)
    in
    go 0 []
  end

(* The commit protocol orders the payload's durability fence before
   the commit word's, so a durable commit whose records are not all
   trusted can only come from a broken ordering (the torn-commit
   mutant, or real log corruption).  Recovery still replays the
   trusted prefix; checkers treat this as a durability violation. *)
let commit_torn t =
  match state t with
  | Committed head -> head = 0 || List.length (records t) < min head t.cap
  | _ -> false

let resolve t ~decided ~redo ~undo =
  match state t with
  | Idle -> `Clean
  | Committed _ ->
      let rs = records t in
      List.iter redo rs;
      discard t;
      `Redone (List.length rs)
  | In_flight _ ->
      let rs = records t in
      List.iter undo (List.rev rs);
      discard t;
      `Undone (List.length rs)
  | Prepared { gtid; coord; _ } ->
      let rs = records t in
      if decided ~gtid ~coord then begin
        List.iter redo rs;
        discard t;
        `Redone (List.length rs)
      end
      else begin
        discard t;
        `Aborted (List.length rs)
      end
