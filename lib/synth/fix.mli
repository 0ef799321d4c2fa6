(** End-to-end repair: search + Pilot rewrite + per-platform costing.

    [fix] turns a test that admits its forbidden outcome into a ranked
    set of repaired tests: every irredundant sufficient edit set from
    {!Search}, plus the {!Pilot_rewrite} candidate when the test is
    MP-shaped (itself re-verified against the enumerator before it is
    admitted).  Each survivor is costed on every calibrated platform
    model; winners are picked per platform and genuinely differ across
    them — the point of Observation 4.

    [strip_round_trip] is the acceptance harness: strip a hand-fenced
    catalogue test of its ordering devices (keeping data-dependency
    values so the repair vocabulary can win them back), re-synthesize,
    and check the result is sufficient, irredundant and no more
    expensive than the original hand-fenced version on any platform. *)

module Lang = Armb_litmus.Lang

type kind = Edits of Placement.edit list | Pilot

type repair = {
  label : string;
  kind : kind;
  test : Lang.test;  (** the repaired program *)
  static_cost : int;  (** {!Placement.total_cost}; 0 for Pilot *)
  irredundant : bool;  (** re-verified via {!Search.irredundant} *)
  advisor : string list;
      (** {!Armb_core.Advisor.best} hint per edit, for the report *)
  costs : Cost.platform_cost list;
}

type outcome = {
  original : Lang.test;
  already_sound : bool;  (** the input needed no repair *)
  repairs : repair list;  (** static-cost order, Pilot last *)
  winners : (string * repair) list;
      (** platform name -> simulated-cheapest repair *)
  search_complete : bool;
  oracle_calls : int;
}

val fix : ?max_edits:int -> ?budget:int -> ?trials:int -> ?seed:int -> Lang.test -> outcome
(** Defaults follow {!Search.search} and {!Cost.measure}.  Soundness is
    the WMM enumerator's verdict: one {!Search.context} per call decides
    the search's sets and the irredundancy re-check's subsets, and the
    Pilot candidate is checked with {!Search.default_sound}.
    [oracle_calls] counts the input's own check, every set the search
    decided and the Pilot check.
    @raise Invalid_argument as {!Search.check_limits}, before any other
    work. *)

type round_trip = {
  test_name : string;
  stripped : Lang.test;
  original_costs : Cost.platform_cost list;
  outcome : outcome;
  sufficient_ok : bool;  (** every repair passes the soundness oracle *)
  irredundant_ok : bool;
  cost_ok : bool;
      (** per-platform winner cost <= original hand-fenced cost *)
  pilot_expected : bool;  (** the stripped test is MP-shaped *)
  pilot_ok : bool;
      (** when expected: Pilot present and simulated-cheapest on every
          platform (trivially true otherwise) *)
  ok : bool;  (** conjunction of the above plus non-empty repairs *)
}

val strip_round_trip :
  ?max_edits:int ->
  ?budget:int ->
  ?trials:int ->
  ?seed:int ->
  Lang.test ->
  round_trip option
(** [None] when the test is not eligible: its weak outcome is expected
    under WMM, or stripping removes nothing the synthesizer could
    re-insert ({!Armb_litmus.Mutate.has_strippable_devices} with
    [~keep_values:true]). *)

val catalogue_round_trips :
  ?max_edits:int -> ?budget:int -> ?trials:int -> ?seed:int -> unit -> round_trip list
(** {!strip_round_trip} over every eligible catalogue test. *)
