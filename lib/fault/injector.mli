(** Deterministic fault injector: the runtime half of a {!Plan.spec}.

    One injector is shared by a whole simulated machine (memory system
    and every core), so all sites draw from a single seeded SplitMix64
    stream.  The simulation itself is deterministic, hence so is the
    sequence of site queries, hence so is every draw: the same plan on
    the same workload replays the same faults cycle for cycle.  The
    rolling {!digest} witnesses exactly that — it folds every query
    (site and magnitude, including the zeros) and must be identical
    across replays.

    Every query returns a {e non-negative extra delay in cycles} (or a
    retry count); callers only ever add it to a latency.  The injector
    never mutates simulator state. *)

type t

val create : Plan.spec -> t
(** Validates the plan. *)

(** {2 Site queries} *)

val dram_jitter : t -> int
(** Extra cycles on one DRAM fill. *)

val snoop_delay : t -> rank:int -> int
(** Extra cycles on one snooped transfer/invalidation whose farthest
    responder sits at topological distance [rank] (1 = same cluster,
    2 = same node, 3 = cross node).  Farther hops draw proportionally
    longer delays — the snoop-distance effect under perturbation. *)

val barrier_delay : t -> int
(** Total extra response delay of one barrier transaction: draws the
    number of NACK rounds it suffers before the fabric accepts it
    (capped by the plan) and charges the plan's exponential backoff for
    each round.  [0] when the transaction goes through clean. *)

val stall : t -> int
(** Issue-slot cycles lost by a core before one memory operation. *)

(** {2 Determinism witness and accounting} *)

val digest : t -> int64
(** Rolling hash over every query made so far. *)

val combine : int64 -> int64 -> int64
(** Fold one digest into an accumulator (order-sensitive, avalanching) —
    for summarizing a sequence of per-machine digests, e.g. one per
    litmus trial, into a single replay witness. *)

type counters = {
  queries : int;  (** site queries answered *)
  faults : int;  (** queries that returned a non-zero perturbation *)
  barrier_nacks : int;  (** NACK rounds across all barrier transactions *)
  snoop_delays : int;
  dram_jitters : int;
  stalls : int;
  delay_cycles : int;  (** total extra cycles injected *)
}

val counters : t -> counters
