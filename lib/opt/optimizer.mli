(** Cost-ranked whole-program fence optimization.

    The algorithm ladder (in the BarrierSetter spirit): SINGLE_BB
    confines the merge pass to one basic block; LINEAR_SCAN carries
    pending barriers across straight chain edges; SECOND_CHANCE runs
    LINEAR_SCAN and then offers every surviving fence an oracle-guided
    second chance to disappear or weaken (kept only when the
    WMM-reachable outcome set stays bit-identical to the original
    program's) — the pass that removes fences subsumed by
    acquire/release attributes or dependencies, which no static
    analysis here can prove redundant.  If the full verdict (sanitizer
    included) rejects the second-chance result, its edits are discarded
    and the merge-only program is reported instead.

    Results are priced per calibrated platform by summing the timing
    simulator's average makespan over the longest slices, and reverted
    wholesale if any platform got slower. *)

module Lang = Armb_litmus.Lang
module Cfg = Armb_litmus.Cfg
module Cost = Armb_synth.Cost

type algorithm = Single_bb | Linear_scan | Second_chance

val algorithm_name : algorithm -> string
val algorithm_of_string : string -> algorithm option

type result = {
  name : string;
  algorithm : algorithm;
  input : Cfg.program;
  optimized : Cfg.program;
  input_fences : int;
  output_fences : int;
  removed : int;
  weakened : int;
  merged : int;
  verdict : Verify.verdict;
  costs_before : Cost.platform_cost list;
  costs_after : Cost.platform_cost list;
  reverted : bool;  (** optimization undone: some platform got slower *)
}

val optimize :
  ?algorithm:algorithm ->
  ?unroll:int ->
  ?cost:bool ->
  ?trials:int ->
  ?seed:int ->
  Cfg.program ->
  result
(** Defaults: SECOND_CHANCE, unroll 2, costing on (30 trials, seed 42).
    With [~cost:false] the platform race and the revert guard are
    skipped (the soak's mode). *)

val sweep_inputs : unit -> Cfg.program list
(** Every catalogue test (straight-line lifted and control-flow), each
    as-is and over-fenced. *)

val find_input : string -> Cfg.program option
(** Case-insensitive lookup in {!sweep_inputs} (over-fenced variants
    included, e.g. ["MP+overfenced"]). *)

val sweep :
  ?algorithm:algorithm ->
  ?unroll:int ->
  ?cost:bool ->
  ?trials:int ->
  ?seed:int ->
  unit ->
  result list
(** {!optimize} over {!sweep_inputs}. *)

val improved : result -> bool
(** A barrier was removed or weakened (and nothing was reverted). *)
