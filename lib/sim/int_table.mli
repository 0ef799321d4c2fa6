(** Open-addressed hash table for non-negative int keys.

    Built for the simulator's per-memory-op tables: no deletion, flat
    parallel key/value arrays, linear probing, and allocation-free
    lookups ([get] takes a [default] instead of returning an option).
    Keys must be [>= 0]; [-1] is the internal empty marker. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create dummy] makes an empty table.  [dummy] fills unused value
    slots and is never observable through the API.  [capacity] is
    rounded up to a power of two (minimum 16). *)

val length : 'a t -> int

val set : 'a t -> int -> 'a -> unit
(** Insert or overwrite.  Raises [Invalid_argument] on a negative key. *)

val get : 'a t -> int -> default:'a -> 'a
(** [get t k ~default] is the bound value, or [default] when absent.
    Never allocates. *)

val mem : 'a t -> int -> bool

val find_or_add : 'a t -> int -> (int -> 'a) -> 'a
(** [find_or_add t k make] returns the bound value, inserting [make k]
    first when absent.  [make] must not touch the table.  The
    already-present path never allocates. *)

val fold : 'a t -> (int -> 'a -> 'b -> 'b) -> 'b -> 'b
(** Fold over bindings in unspecified (storage) order. *)

val clear : 'a t -> unit
(** Remove every binding, keeping the capacity.  While the table holds
    no more bindings than its initial capacity takes before growing
    (5/8 of it, plus one), this costs the number of bindings, not the
    capacity: the table lists those slots.  Past that it costs the
    capacity. *)
