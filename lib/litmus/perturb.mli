(** Perturbation sweeps: the litmus catalogue under fault injection.

    The fault subsystem's safety argument is that every injection is
    pure extra latency, so a perturbed run can only shift {e timing} —
    it may change how often each allowed outcome appears, but can never
    manufacture an outcome the weak memory model forbids, and can never
    create a happens-before violation in a correctly-fenced test.  This
    module turns that argument into a measured sweep: for each fault
    intensity and each plan seed it re-runs the whole catalogue and
    reports

    - {b legality}: any simulated outcome outside the WMM-allowed set
      (must be none);
    - {b sanitizer}: findings on tests whose weak outcome is forbidden
      (must be none — fences keep working under perturbation);
    - {b drift}: total-variation distance between the perturbed outcome
      distribution and the faults-off baseline at the same litmus seed —
      how strongly the plan reshapes the timing. *)

type row = {
  test_name : string;
  intensity : float;
  plan_seed : int;
  trials : int;
  forbidden : bool;  (** the test's weak outcome is forbidden ([not expect_wmm]) *)
  drift : float;  (** total-variation distance vs the faults-off baseline *)
  illegal : string list;  (** outcomes outside the WMM-allowed set (must be empty) *)
  findings : int;  (** sanitizer findings under perturbation *)
  fault_digest : int64;  (** replay witness of the perturbed run *)
  fault_delay : int;  (** extra cycles injected across the run's trials *)
  row_ok : bool;  (** legal and (if forbidden) sanitizer-clean *)
}

type summary = {
  intensity : float;
  rows : int;
  mean_drift : float;
  max_drift : float;
  illegal_total : int;  (** illegal outcome renderings across the catalogue *)
  findings_on_forbidden : int;
  delay_total : int;
}

type sweep = {
  results : row list;
  summaries : summary list;  (** one per intensity, ascending *)
  ok : bool;  (** conjunction of [row_ok] *)
}

val sweep :
  ?cfg:Armb_cpu.Config.t ->
  ?trials:int ->
  ?seed:int ->
  ?intensities:float list ->
  ?plan_seeds:int list ->
  ?tests:Lang.test list ->
  unit ->
  sweep
(** Run every test (default: the whole {!Catalogue}) at every intensity
    x plan-seed point, under the sanitizer, against a shared faults-off
    baseline.  Defaults: kunpeng916, 40 trials, litmus seed 42,
    intensities [0.25; 0.5; 1.0], plan seeds [1; 2; 3].  The litmus seed
    is held fixed across baseline and perturbed runs so the drift
    isolates the fault plan's effect. *)

val pp_row : Format.formatter -> row -> unit
val pp_summary : Format.formatter -> summary -> unit
