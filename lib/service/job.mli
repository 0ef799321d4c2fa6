(** Jobs: the existing engines packaged as pure, content-addressed
    computations.

    Each kind's record holds its own parameters and exactly the run
    settings its [run] reads: platform ([cfg]), core pair, seed, trial
    count and fault intensity (in [0,1]; 0 = no plan).  [key] and [run]
    name every field of every record, so under the dev profile a key
    that leaves a field out (warning 27) or a run that ignores one
    (warning 9) does not build.  [run] is a pure function of the job —
    no hidden state, no wall-clock dependence — so results can be
    memoized and a cached result is bit-identical to a cold
    recomputation by construction.  The canonical result [text]
    renderings deliberately match the golden-digest workloads of
    [test_golden], which is how the cache is verified against the seed
    kernel rather than merely trusted. *)

module Lang = Armb_litmus.Lang
module AM = Armb_core.Abstracted_model
module Config = Armb_cpu.Config

type t =
  | Litmus of { test : Lang.test; cfg : Config.t; seed : int; trials : int; fault : float }
      (** outcome histogram on the timing simulator ({!Armb_litmus.Sim_runner}) *)
  | Check of { test : Lang.test; cfg : Config.t; seed : int; trials : int; fault : float }
      (** happens-before sanitizer verdict row *)
  | Model of {
      mem_ops : AM.mem_ops;
      approach : Armb_core.Ordering.t;
      location : AM.location;
      nops : int;
      iters : int;
      cfg : Config.t;
      cores : int * int;
      seed : int;  (** keyed only: the model reads no seed *)
    }  (** one abstracted-model point (the Figure 3 axes) *)
  | Ring of {
      combo : string;
      messages : int;
      cfg : Config.t;
      cores : int * int;
      seed : int;
      fault : float;
    }  (** SPSC ring with a named barrier combination *)
  | Fuzz of { tests : int; cfg : Config.t; seed : int; trials : int; fault : float }
      (** one differential fuzz round *)
  | Fix of { test : Lang.test; max_edits : int; budget : int; seed : int; trials : int }
      (** fence synthesis ({!Armb_synth.Fix}), costed on every platform *)
  | Perturb of {
      test : Lang.test;
      intensities : float list;
      plan_seeds : int list;
      cfg : Config.t;
      seed : int;
      trials : int;
    }
      (** one-test fault-injection sweep ({!Armb_litmus.Perturb}); the
          sweep owns its injection, so the job has no [fault].  The
          result text ends with a parseable ["drift-total=... sweep:
          OK|VIOLATIONS"] trailer. *)
  | Opt of {
      program : Armb_litmus.Cfg.program;
      algorithm : Armb_opt.Optimizer.algorithm;
      unroll : int;
      seed : int;  (** keyed only: with costing off the optimizer reads no seed *)
    }
      (** whole-program fence optimization ({!Armb_opt.Optimizer}),
          costing off (the soak's mode); its verifier's sanitizer pass
          runs on kunpeng916 at fixed trials and seed *)

type result = {
  text : string;  (** canonical deterministic rendering *)
  events : int;  (** kernel events processed (0 when not measurable) *)
  cycles : int;  (** simulated cycles (0 when not measurable) *)
}

val key : t -> string
(** Content address (hex digest): kind tag, job parameters, canonical
    test or program form ({!Key}) and the run settings the job's record
    holds.  Raises [Invalid_argument] on jobs that cannot be
    keyed or run: an unknown ring combo, an opt [unroll] or fix limits
    below 1, a ring of fewer than 1 message, a fuzz job whose [tests]
    is below 0, a model job whose [iters] is below 1, whose [nops] is
    below 0, or whose combination {!AM.valid} rejects, or a test with
    more threads than its platform has cores (for litmus, check and
    perturb the request's platform; for fix, which is costed on every
    platform, the one with fewest cores).  A count's message names the
    field, its value and the limit; a thread count's names the
    platform. *)

val kind : t -> string
(** "litmus" | "check" | "model" | "ring" | "fuzz" | "fix" | "perturb"
    | "opt". *)

val run : t -> result
(** Execute the job.  Raises on invalid specs (e.g. a [Model]
    combination {!AM.valid} rejects); the engine maps exceptions to
    error responses. *)
