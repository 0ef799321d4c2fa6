(** Declarative fault plans for the simulated machine.

    A plan is a pure description of {e which} timing perturbations the
    injector may apply and {e how hard}: it never touches simulator
    state itself.  All perturbations are pure delays — they stretch
    latencies the timing model already treats as unbounded, so they can
    change {e when} things happen but never {e what} the architecture
    allows.  Coherence state machines, store values and the
    forbidden/allowed outcome sets of every litmus test are untouched
    by construction; only schedules move.

    Sites (see {!Injector} for the draw protocol):
    - {b barrier transactions}: a DMB's ACE barrier transaction can be
      NACKed at the interconnect and retried with exponential backoff —
      the retry behaviour §2.3 of the paper describes and the happy
      path idealizes away.
    - {b snoop responses}: cache-to-cache transfers and invalidation
      snoops can be delayed, scaled by the topological distance of the
      hop (farther responders are more exposed).
    - {b DRAM fills}: miss-to-memory latency jitters.
    - {b core stalls}: a core can lose issue slots before a memory
      operation (frontend or dispatch hiccup). *)

type backoff = {
  base : int;  (** extra cycles charged for the first retry *)
  multiplier : int;  (** geometric growth factor between retries *)
  cap : int;  (** per-retry delay ceiling, cycles *)
}

type spec = {
  seed : int;  (** root of the injector's private RNG stream *)
  barrier_nack_prob : float;  (** P(one more NACK) per retry round *)
  barrier_max_retries : int;  (** NACK rounds before the fabric must accept *)
  barrier_backoff : backoff;
  snoop_delay_prob : float;  (** P(delay) per snooped transfer/invalidation *)
  snoop_delay_cycles : int;  (** max extra cycles at rank 1; scales with rank *)
  dram_jitter_prob : float;  (** P(jitter) per DRAM fill *)
  dram_jitter_cycles : int;  (** max extra cycles per jittered fill *)
  stall_prob : float;  (** P(stall) per issued memory operation *)
  stall_cycles : int;  (** max lost cycles per stall *)
}

val none : spec
(** The null plan: every probability zero.  {!is_null} holds. *)

val is_null : spec -> bool
(** No site can ever fire: wiring this plan must be equivalent to
    wiring no plan at all (the machine drops it at creation). *)

val of_intensity : ?seed:int -> float -> spec
(** A one-knob family used by sweeps: intensity 0.0 is {!none},
    intensity 1.0 is an aggressive but still coherent storm (every
    site armed).  Values outside [0,1] are clamped.  Probabilities and
    magnitudes grow linearly with intensity. *)

val scale : spec -> float -> spec
(** Multiply every probability by the factor (clamped to [0,1]),
    leaving magnitudes alone. *)

val with_seed : spec -> int -> spec

val validate : spec -> unit
(** Raises [Invalid_argument] on negative magnitudes, probabilities
    outside [0,1] or a non-positive backoff. *)
