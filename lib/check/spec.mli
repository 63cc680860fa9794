(** The one executable model every checker family interprets: a
    sequential map, and a commit log with the model state after every
    prefix.

    A family's oracle says what it observed — a whole map or one key's
    binding — and which window of log prefixes may explain it
    ({!window}); DESIGN.md ("One driver, one model, five families")
    lists each family's window.  That is durable linearizability:
    acknowledged effects must be in the explaining prefix, in-flight
    ones may or may not be.

    Every value is drawn from one counter of distinct odd numbers
    (prefill included), so a binding no writer wrote is recognisable
    as fabricated ({!written}). *)

type state = (int * int) list
(** Key-sorted bindings — the model's only state, compared
    structurally. *)

type op = Insert of int * int | Delete of int | Search of int
type resp = Done | Deleted of bool | Found of int option

val apply : state -> op -> state * resp
(** [insert] is insert-or-update, [delete] reports presence, [search]
    returns the current binding: the {!Ff_index.Intf.ops} contract. *)

val op_to_string : op -> string
val resp_to_string : resp -> string
val show_state : state -> string
val show_binding : int option -> string

(** {1 Drawing a workload} *)

type values
(** Source of distinct values for one workload. *)

val values : unit -> values

val prefill : values -> prefill:int -> keyspace:int -> (int * int) list
(** [n = min prefill keyspace] bindings spread over [1 .. keyspace]
    (the i-th, from 0, at [(i+1)·keyspace/n]), each with a fresh value,
    so fresh inserts land between prefilled keys and FAST-shift them. *)

val draw : values -> Ff_util.Prng.t -> keyspace:int -> op
(** One random write: a key from [1 .. keyspace], then a delete with
    probability 1/4, else an insert of a fresh value. *)

(** {1 The commit log} *)

type t

val make : initial:(int * int) list -> op list array -> t
(** [make ~initial log]: entry [i] of [log] applies its ops together;
    {!state}[ t 0] is [initial], sorted. *)

val create :
  Ff_util.Prng.t -> prefill:int -> keyspace:int -> per_entry:int -> int -> t
(** [create rng ~prefill ~keyspace ~per_entry n]: the prefill, then
    [n] entries of [per_entry] ops each, drawn from [rng] in order. *)

val initial : t -> (int * int) list
val log : t -> op list array

val length : t -> int
(** Entries in the log; prefixes run [0 .. length]. *)

val state : t -> int -> state
(** The model state after the first [i] entries. *)

val written : t -> int -> int -> bool
(** [written t k v]: the prefill or some insert in the log writes
    [k -> v]. *)

type observation = Map of state | Key of int * int option

val window : t -> lo:int -> hi:int -> observation -> (int, string) result
(** [Ok p]: [p] is the first prefix in [[lo, hi]] whose state agrees
    with the observation (on every key for [Map], on that key for
    [Key]).  [Error why]: none does; [why] names the nearest prefix
    (fewest differing keys, then closest to the window) and the keys
    on which it differs.
    @raise Invalid_argument unless [0 <= lo <= hi <= length t]. *)
