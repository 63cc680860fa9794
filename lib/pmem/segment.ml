(* Relocatable arena segments.

   A segment is a captured description of everything a persisted arena
   image holds: the root-slot window [0, reserved) and the data region
   [reserved, bump).  Because every interior pointer in this codebase
   is an arena-word offset, a whole-image copy is position-independent
   as long as the data lands at the same offsets in the destination —
   identity-offset relocation.  [copy] ships the data region in
   chunks; [attach] performs the root translation (re-publishing the
   captured root values in the destination's slot window, after the
   payload is durable) and resets the destination's volatile allocator
   bookkeeping to the fresh-mount state.

   Relocation at a nonzero base delta would need typed pointer maps
   (every structure enumerating its pointer words, Puddles-style);
   identity offsets sidestep that by requiring a fresh destination
   heap.  See DESIGN.md "Relocatable segments". *)

let data_lo = Arena.reserved_words

type t = {
  roots : int array; (* persisted root slots 0 .. reserved-1 at capture *)
  data_words : int;  (* persisted data region beyond the slot window *)
}

let capture src =
  if Arena.dirty_line_count src > 0 then
    invalid_arg
      "Segment.capture: source has pending stores (drain or clone it first)";
  {
    roots = Array.init Arena.reserved_words (Arena.peek_persisted src);
    data_words = Arena.used_words src;
  }

let words seg = seg.data_words
let root seg slot = seg.roots.(slot)

let chunk_words = 512

let copy ?(between = fun _ -> ()) ~src ~dst seg =
  if Arena.used_words dst <> 0 then
    invalid_arg
      "Segment.copy: destination heap is not empty (identity-offset \
       relocation needs a fresh arena)";
  if data_lo + seg.data_words > Arena.capacity dst then
    invalid_arg
      (Printf.sprintf
         "Segment.copy: segment of %d data words does not fit a %d-word arena"
         seg.data_words (Arena.capacity dst));
  if seg.data_words > 0 then begin
    (* One raw block spanning the whole data region pins the
       destination bump pointer to the source's; [attach] later drops
       this bookkeeping so the copied structures own their blocks. *)
    let base = Arena.alloc_raw dst seg.data_words in
    if base <> data_lo then
      invalid_arg "Segment.copy: destination heap base is not offset-clean";
    let copied = ref 0 in
    while !copied < seg.data_words do
      let len = min chunk_words (seg.data_words - !copied) in
      let off = data_lo + !copied in
      for i = off to off + len - 1 do
        (* Charged loads: a poisoned source line surfaces as
           [Media_error] and aborts the copy — the source stays
           authoritative. *)
        Arena.write dst i (Arena.read src i)
      done;
      Arena.flush_range dst off len;
      copied := !copied + len;
      between !copied
    done
  end;
  Arena.fence dst

let attach ~dst seg =
  if Arena.used_words dst < seg.data_words then
    invalid_arg "Segment.attach: destination does not hold the copied image";
  (* Root translation, payload-first: the fence orders every copied
     data store ahead of the slot window, so the segment only becomes
     reachable once its payload is durable.  A crash mid-translation
     is harmless — the rebalance decision word still names the source
     as authoritative until the cutover commits. *)
  Arena.fence dst;
  for slot = 0 to Arena.reserved_words - 1 do
    if Arena.peek dst slot <> seg.roots.(slot) then
      Arena.write dst slot seg.roots.(slot)
  done;
  Arena.flush_range dst 0 Arena.reserved_words;
  Arena.fence dst;
  Arena.forget_allocations dst
