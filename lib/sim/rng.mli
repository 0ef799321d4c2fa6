(** Deterministic pseudo-random number generation for the simulator.

    All stochastic behaviour in the simulator (latency jitter, workload
    shapes, litmus schedules) draws from this module so that a fixed seed
    reproduces a bit-identical run.  The generator is SplitMix64
    (Steele, Lea & Flood, OOPSLA 2014): tiny state, full 64-bit output,
    passes BigCrush, and splits cheaply for per-core streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an arbitrary seed. *)

val split : t -> t
(** [split t] derives an independent generator; used to give each
    simulated core its own stream so event order does not perturb
    other cores' draws. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
