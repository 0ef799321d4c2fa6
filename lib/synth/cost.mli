(** Per-platform repair cost, measured on the timing simulator.

    Cost is the average simulated makespan of one run of the test
    ([Sim_runner.result.cycles / trials]) on each calibrated platform
    model.  Trials and seed are fixed, and the runner's random draws
    depend only on the test's shape, so two structurally identical
    programs always cost the same — which is what makes "winner cost
    less-or-equal to the original hand-fenced test" a meaningful
    acceptance bar. *)

module Lang = Armb_litmus.Lang

type platform_cost = {
  platform : string;
  cycles : float;  (** average simulated cycles per trial *)
}

val default_seed : int

val measure : ?trials:int -> ?seed:int -> Lang.test -> platform_cost list
(** One entry per {!Armb_platform.Platform.all} configuration, in that
    order.  Defaults: 60 trials, seed 42. *)

val platforms : string list

val cheaper_or_equal : platform_cost list -> platform_cost list -> bool
(** Pointwise comparison by platform name (missing platforms compare
    equal). *)

val pp : Format.formatter -> platform_cost list -> unit
