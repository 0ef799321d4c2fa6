(** Random litmus-test generation and differential checking.

    Generates small random tests (2-3 threads, a few loads/stores/fences
    over 2-3 locations, random dependencies and acquire/release
    attributes) and checks the structural soundness property that ties
    this library together:

    {e every outcome the timing simulator exhibits is allowed by the
    exhaustive WMM operational model.}

    A violation would mean the CPU/coherence model reorders something
    the architecture forbids — exactly the class of bug this fuzzer
    exists to catch. *)

val generate : ?with_isb:bool -> Armb_sim.Rng.t -> Lang.test
(** One random well-formed test.  [with_isb] (default false) lets the
    vocabulary include the first-class ctrl+ISB fence [Lang.F_isb]; it
    is opt-in so default streams stay bit-identical to the golden
    digests. *)

val generate_cfg : ?with_loop:bool -> Armb_sim.Rng.t -> Cfg.program
(** One random well-formed CFG program for the optimizer soak: 2-3
    threads drawn from four shapes — straight-line, two-block chain,
    diamond (branch + join), flag-poll loop with one back-edge (omitted
    when [with_loop] is false).  Branches always test a previously
    loaded register; register names are unique per thread.  Separate
    from {!generate} so the golden-pinned default streams are
    untouched. *)

type report = {
  tests_run : int;
  sim_outcomes_checked : int;
  violations : (Lang.test * string) list;
      (** test and the offending outcome rendering *)
  events : int;  (** kernel events processed across every simulator trial *)
}

val run :
  ?cfg:Armb_cpu.Config.t ->
  ?tests:int ->
  ?trials_per_test:int ->
  ?seed:int ->
  ?fault:Armb_fault.Plan.spec ->
  unit ->
  report
(** Differential fuzz: defaults kunpeng916, 50 tests x 60 trials; [cfg]
    is the platform every simulator trial runs on.  With [fault] the
    simulator side runs under the fault plan — since perturbations are
    pure latency, every perturbed outcome must {e still} fall inside the
    WMM-allowed set; a violation indicts the injection sites. *)

val pp_report : Format.formatter -> report -> unit
