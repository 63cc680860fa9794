(** Open-addressed map from a cache line (a non-negative [int]) to an
    [int], the line index of {!Cachesim} and {!Storelog}.  Nothing here
    allocates except growing, which doubles the cells once more than
    half are in use.

    {!get}, {!add} and {!remove} are the per-access operations, one call
    each.  A scan goes over the cells: {!key}, {!value}, {!set_value}
    and {!remove_at} take a cell number in [0 .. cells t - 1]. *)

type t

val create : bits:int -> t
(** An empty map of [2^bits] cells, its base size. *)

val length : t -> int
(** Lines in the map. *)

val absent : int
(** [-1]: what {!get} and {!remove} return for a line not in the map.
    Stored values must differ from it. *)

val get : t -> int -> int
(** The value of a line, or {!absent}. *)

val add : t -> int -> int -> unit
(** [add t line v] maps a line that is not in the map to [v]. *)

val remove : t -> int -> int
(** Remove a line and return its value, or {!absent} if it was not in
    the map. *)

val clear : t -> unit
(** Remove every line; a map grown past 1024 cells goes back to its
    base size. *)

val cells : t -> int
(** Number of cells. *)

val empty : int
(** The {!key} of an empty cell. *)

val key : t -> int -> int
(** The line in a cell, or {!empty}. *)

val value : t -> int -> int
val set_value : t -> int -> int -> unit

val remove_at : t -> int -> unit
(** Empty a full cell.  Later cells of its probe run shift back over
    the hole, so a scan that removes cell [i] must look at [i] again. *)
