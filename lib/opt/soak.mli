(** Optimizer fuzz soak: generate a random small CFG
    ({!Armb_litmus.Fuzz.generate_cfg}), over-fence it, optimize, and
    re-verify — asserting soundness and barrier-count monotonicity. *)

type report = {
  rounds : int;
  unsound : int;  (** FATAL: optimized outcome set diverged *)
  fence_increase : int;  (** FATAL: more fences out than in *)
  improved : int;  (** rounds where a fence was removed or weakened *)
  fences_in : int;
  fences_out : int;
  failures : string list;
}

val ok : report -> bool
(** No fatal findings. *)

val run :
  ?rounds:int ->
  ?seed:int ->
  ?algorithm:Optimizer.algorithm ->
  ?unroll:int ->
  unit ->
  report
(** Defaults: 12 rounds, seed 2025, LINEAR_SCAN (the oracle-guided
    second chance is exercised separately — here volume matters),
    unroll 2.  Costing is off. *)

val pp_report : Format.formatter -> report -> unit
