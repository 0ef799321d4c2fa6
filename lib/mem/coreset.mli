(** Fixed-capacity core bitsets stored as arrays of 32-bit words.

    The directory's sharer sets and the topology's cluster/node
    membership sets were single-int bitmasks, hard-capping the simulated
    machine at 62 cores; this module lifts that to any capacity while
    keeping every hot-path query a short word loop (no per-core scans,
    no allocation).  Bits at or above the capacity are zero by
    invariant, and every core-indexed operation bounds-checks and raises
    [Invalid_argument] — out-of-range cores fail loudly instead of
    silently wrapping the way [1 lsl core] did past bit 62. *)

type t

val create : cores:int -> t
(** Empty set holding cores [0 .. cores-1].  Raises on [cores <= 0]. *)

val capacity : t -> int
val words : t -> int
(** Number of storage words ([ceil (capacity / 32)]). *)

val clear : t -> unit
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

val set_only : t -> int -> unit
(** Make the set exactly [{i}] (clear + add, one pass). *)

val set_pair : t -> int -> int -> unit
(** Make the set exactly [{i; j}]. *)

val is_empty : t -> bool

val any_except : t -> int -> bool
(** Does the set contain any core other than [i]? *)

val intersects : t -> t -> bool

val outside_except : t -> t -> except:int -> bool
(** [outside_except a b ~except]: does [a] contain a core that is
    neither in [b] nor equal to [except]?  This is the farthest-snoop
    classification step: sharers outside the requester's node/cluster
    set, the requester itself excluded. *)

val cardinal : t -> int
val cardinal_except : t -> int -> int
(** [cardinal t] members; [cardinal_except t i] members other than [i]
    (the invalidation fan-out of a write by [i]). *)

val iter : t -> (int -> unit) -> unit
(** Ascending core order. *)

val equal : t -> t -> bool
val copy : t -> t
val to_list : t -> int list
