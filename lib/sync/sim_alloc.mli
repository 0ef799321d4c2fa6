(** Cache-line allocator for simulated data structures.

    Pre-allocates a pool of 64-byte lines in a {!Armb_cpu.Machine.t} and
    hands them out through a host-side free list.  Allocation is meant
    to be called from inside a critical section (the protecting lock
    serializes it), mirroring a per-structure node pool. *)

type t

val create : Armb_cpu.Machine.t -> capacity:int -> t

val alloc : t -> int
(** Fresh line address.  Raises [Failure] when the pool is exhausted. *)

val free : t -> int -> unit

val in_use : t -> int
