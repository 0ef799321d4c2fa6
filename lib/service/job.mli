(** Jobs: the existing engines packaged as pure, content-addressed
    computations.

    A job pairs a [spec] (what to compute) with the {!Armb_platform.Run_config}
    coordinates (where and how: platform, core binding, seed, trials)
    and a fault intensity.  [run] is a pure function of the job — no
    hidden state, no wall-clock dependence — so results can be memoized
    and a cached result is bit-identical to a cold recomputation by
    construction.  The canonical result [text] renderings deliberately
    match the golden-digest workloads of [test_golden], which is how
    the cache is verified against the seed kernel rather than merely
    trusted. *)

module Lang = Armb_litmus.Lang
module AM = Armb_core.Abstracted_model

type spec =
  | Litmus of Lang.test
      (** outcome histogram on the timing simulator ({!Armb_litmus.Sim_runner}) *)
  | Check of Lang.test  (** happens-before sanitizer verdict row *)
  | Model of {
      mem_ops : AM.mem_ops;
      approach : Armb_core.Ordering.t;
      location : AM.location;
      nops : int;
      iters : int;
    }  (** one abstracted-model point (the Figure 3 axes) *)
  | Ring of { combo : string; messages : int }
      (** SPSC ring with a named barrier combination *)
  | Fuzz of { tests : int }  (** one differential fuzz round *)
  | Fix of { test : Lang.test; max_edits : int; budget : int }
      (** fence synthesis ({!Armb_synth.Fix}) *)
  | Perturb of { test : Lang.test; intensities : float list; plan_seeds : int list }
      (** one-test fault-injection sweep ({!Armb_litmus.Perturb}); the
          job's own [fault] knob is ignored — the sweep owns the
          injection schedule.  The result text ends with a parseable
          ["drift-total=... sweep: OK|VIOLATIONS"] trailer. *)
  | Opt of {
      program : Armb_litmus.Cfg.program;
      algorithm : Armb_opt.Optimizer.algorithm;
      unroll : int;
    }
      (** whole-program fence optimization ({!Armb_opt.Optimizer}),
          costing off (the soak's mode) *)

type t = {
  spec : spec;
  rc : Armb_platform.Run_config.t;
  fault : float;  (** fault-plan intensity in [0,1]; 0 = no plan *)
}

type result = {
  text : string;  (** canonical deterministic rendering *)
  events : int;  (** kernel events processed (0 when not measurable) *)
  cycles : int;  (** simulated cycles (0 when not measurable) *)
}

val key : t -> string
(** Content address (hex digest): canonical test form ({!Key}), kind
    tag, job parameters, platform name, cores, seed, trials and fault
    intensity.  Raises [Invalid_argument] on specs that cannot be
    keyed or run: an unknown ring combo, an opt [unroll] or fix limits
    below 1, a ring of fewer than 1 message, a model job whose [iters]
    is below 1, whose [nops] is below 0, or whose combination
    {!AM.valid} rejects, or a test with more threads than its platform
    has cores (for litmus, check and perturb the request's platform;
    for fix, which is costed on every platform, the one with fewest
    cores).  A count's message names the field, its value and the
    limit; a thread count's names the platform. *)

val kind : t -> string
(** "litmus" | "check" | "model" | "ring" | "fuzz" | "fix" | "perturb"
    | "opt". *)

val run : t -> result
(** Execute the job.  Raises on invalid specs (e.g. a [Model]
    combination {!AM.valid} rejects); the engine maps exceptions to
    error responses. *)
