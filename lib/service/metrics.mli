(** Per-engine service counters and latency tracking.

    Counters use {!Armb_sim.Stats.Counter}; computation latency feeds an
    {!Armb_sim.Stats.Histogram} so p50/p99 come from the same machinery
    the simulator's measurements use.  Metrics describe the engine's
    {e operation} (they include wall-clock time) and are deliberately
    kept out of job results, which stay bit-deterministic. *)

type t

val create : unit -> t

(** {2 Recording} *)

val submitted : t -> unit
val hit : t -> unit
val miss : t -> unit
val coalesced : t -> unit
val shed : t -> unit
val failed : t -> unit
val completed : t -> int -> unit
(** [completed t n]: one computation finished, satisfying [n] waiting
    requests. *)

val record_latency_us : t -> int -> unit
(** One computation's wall time, microseconds. *)

val observe_queue_depth : t -> int -> unit
(** Track the high-water mark of distinct queued computations. *)

val add_events : t -> int -> unit

(** {2 Reading} *)

val get : t -> string -> int
(** Lookup in {!counts}; 0 for unknown names. *)

val latency_us : t -> int * int
(** (p50, p99) of computation wall time; (0, 0) before any
    computation. *)

val hit_rate : t -> float
(** hits / (hits + misses + coalesced), 0 when nothing was looked up.
    Coalesced requests count toward the denominator but not the
    numerator: they did not find a finished result. *)

val to_json : t -> Json.t
(** The metrics artifact schema ["armb-serve-metrics-v1"]. *)
