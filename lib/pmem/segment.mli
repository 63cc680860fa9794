(** Relocatable arena segments: a copyable, offset-addressed
    description of a persisted arena image, so a shard's image can be
    shipped between arenas.

    Every interior pointer in the simulated structures is an
    arena-word offset, which makes a whole-image copy
    position-independent as long as it lands at the same offsets —
    {e identity-offset relocation}.  {!capture} records the root-slot
    window and the data-region extent of a quiesced source;
    {!copy} ships the data region chunk by chunk (the caller throttles
    through [between], as {!Ff_snapshot.Snapshot.backup} does);
    {!attach} performs the root translation — re-publishing the
    captured root values in the destination slot window only after the
    payload is durable — and resets the destination allocator to the
    fresh-mount state.

    Relocation at a nonzero base delta would require typed pointer
    maps (each structure enumerating its pointer words); identity
    offsets sidestep that by requiring a fresh destination heap. *)

type t
(** A captured segment descriptor (volatile; cheap to hold). *)

val capture : Arena.t -> t
(** Capture the persisted image of a quiesced arena: all
    {!Arena.reserved_words} root values plus the data-region extent.
    @raise Invalid_argument if the source has pending stores —
    {!Arena.drain} or {!Arena.clone} it first. *)

val words : t -> int
(** Data words the segment spans (beyond the reserved slot window). *)

val root : t -> int -> int
(** Captured value of one root slot. *)

val copy :
  ?between:(int -> unit) -> src:Arena.t -> dst:Arena.t -> t -> unit
(** Copy the segment's data region into a fresh destination arena at
    identity offsets, 512 words at a time, flushing each chunk.
    [between] is called after every chunk with the cumulative words
    copied — rebalance charges its copy throttle there.  Loads from
    [src] are charged reads, so a poisoned source line aborts the copy
    with {!Arena.Media_error}.
    @raise Invalid_argument if the destination heap is not empty or
    too small. *)

val attach : dst:Arena.t -> t -> unit
(** Install the captured roots in the destination slot window (after a
    fence ordering the copied payload first) and drop the
    destination's volatile allocator bookkeeping
    ({!Arena.forget_allocations}), so the image reopens exactly like a
    post-crash mount — typically via
    [Ff_index.Registry.open_existing]. *)
