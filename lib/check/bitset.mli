(** Dense bit sets over non-negative per-core operation indices.

    A set is an array of int words sized to its highest member: it
    starts empty and grows as members are added, so there is no
    capacity to choose and copying or merging a set costs only the
    words in use.  Sets are mutable; {!copy} is the way to fork one. *)

type t

val create : unit -> t
(** The empty set. *)

val copy : t -> t
(** An independent set with the same members. *)

val add : t -> int -> unit
val mem : t -> int -> bool
(** [mem b i] is [false] for any [i] past the highest word of [b]. *)

val union : t -> t -> unit
(** [union dst src] adds every member of [src] to [dst], growing [dst]
    to [src]'s length when [src] is longer. *)

val add_below : t -> int -> unit
(** [add_below b n] adds every index in [0, n). *)
