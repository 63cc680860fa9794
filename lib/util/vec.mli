(** Minimal growable array (OCaml 5.1's stdlib has no [Dynarray]). *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused slots; it is never returned by [get]. *)

val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** Remove and return the last element.  @raise Invalid_argument if empty. *)

val clear : 'a t -> unit
val is_empty : 'a t -> bool
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
