(** Resumable ascending iteration over the leaf chain.

    A cursor holds only a current leaf address and the last key
    delivered, so it stays valid across concurrent FAST shifts and
    FAIR splits: each {!next} re-walks the current node for the
    smallest valid key greater than the last one ({!Node.next_above},
    checked as {!Node.search} checks its key), following sibling
    pointers as nodes are exhausted.  Like all lock-free reads it
    observes read-uncommitted state (paper Section 4.1). *)

type t

val create : Tree.t -> lo:int -> t
(** Position before the smallest key >= [lo]. *)

val next : t -> (int * int) option
(** The next (key, value) in ascending order, or [None] at the end. *)

val seek : t -> int -> unit
(** Reposition before the smallest key >= the argument. *)

val fold : Tree.t -> lo:int -> hi:int -> init:'a -> ('a -> int -> int -> 'a) -> 'a
(** Convenience fold over [\[lo, hi\]] built on a cursor. *)
