(** Array-based 4-ary min-heap, specialised to integer keys.

    The simulation kernel orders events by (time, sequence) pairs; both
    are packed by the caller into a single comparison key plus payload.
    This heap is intentionally minimal and allocation-light: keys live
    in a growing int array and payloads in a parallel array, so nothing
    is boxed per node and sifts compare ints only. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create filler] makes an empty heap.  [filler] fills every payload
    slot not holding an element, so a popped or cleared payload is not
    kept reachable; it is never returned. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> key:int -> 'a -> unit
(** [add h ~key v] inserts [v] with priority [key] (smaller pops first). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum (key, value), or [None] when empty. *)

val peek_key : 'a t -> int option
(** Key of the minimum element without removing it. *)

val min_key : 'a t -> int
(** Key of the minimum element, without the option box.  Raises
    [Invalid_argument] when empty — check [is_empty] first.  This is the
    hot-path variant of [peek_key]. *)

val pop_min_exn : 'a t -> 'a
(** Remove the minimum element and return its payload, without the
    tuple/option boxing of [pop].  Use [min_key] first if the key is
    needed.  Raises [Invalid_argument] when empty. *)

val clear : 'a t -> unit
(** Remove every element, dropping the heap's references to them. *)
