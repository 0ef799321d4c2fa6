(** Branch-and-bound search for minimal sufficient edit sets.

    Soundness is decided by an oracle over the edited test — by default
    "the forbidden outcome is unreachable under the exhaustive WMM
    enumerator" ({!Armb_litmus.Enumerate.allows}).  The search walks
    subsets of {!Placement.candidates} level by level (all singletons,
    then all pairs, ...), skipping any superset of an already-found
    repair.  Because every strict subset of a candidate set has been
    tested (and found insufficient) before the set itself, everything
    reported is exactly the set of {e irredundant} sufficient repairs:
    dropping any single edit re-admits the forbidden outcome.

    The default oracle replays counterexamples.  Every {!Placement}
    edit is value-neutral and adds no access, so an edit set only adds
    bits to the base test's need masks
    ({!Armb_litmus.Enumerate.needs}): the masks of a set are the base's
    OR the delta of each of its edits, and each edit is compiled once.
    An execution that reached the forbidden outcome under one set (a
    {e witness}) reaches it under every set whose masks each of its
    steps still meets, so a set is first checked against the cached
    witnesses, newest first, in one linear pass each; only when none
    replays does the enumerator search, and a reachable outcome it finds
    becomes the newest witness.  Verdicts are exactly those of
    {!default_sound} on [Placement.apply t set]. *)

module Lang = Armb_litmus.Lang

type outcome = {
  repairs : Placement.edit list list;
      (** every irredundant sufficient edit set found, in discovery
          order (static-cost-lexicographic, cheapest first) *)
  oracle_calls : int;  (** candidate sets decided, replayed or searched *)
  complete : bool;
      (** false when the oracle-call budget truncated the walk — there
          may be further repairs beyond the ones reported *)
}

val default_sound : Lang.test -> bool
(** [not (Enumerate.allows Wmm t)] — the forbidden outcome is
    unreachable under the weak model. *)

val check_limits : ?max_edits:int -> ?budget:int -> unit -> unit
(** @raise Invalid_argument naming the field, the value and the minimum
    when a given [max_edits] or [budget] is below 1. *)

type ctx
(** The replaying WMM oracle for one base test: its compiled form, the
    need-mask delta of every edit asked about so far and the witnesses
    found so far.  One fix job makes one and shares it between
    {!search} and {!irredundant}. *)

val context : Lang.test -> ctx
(** @raise Invalid_argument as {!Armb_litmus.Enumerate.compile}. *)

val search :
  ?max_edits:int ->
  ?budget:int ->
  ?sound:(Lang.test -> bool) ->
  ?ctx:ctx ->
  ?candidates:Placement.edit list ->
  Lang.test ->
  outcome
(** Defaults: [max_edits] 3, [budget] 4000 oracle calls,
    [candidates] {!Placement.candidates}.  Without [sound], sets are
    decided by the replaying WMM oracle [ctx] (a fresh {!context} of the
    test when absent); with [sound], each set is applied and handed to
    it.  The original (zero-edit) test is {e not} checked: callers
    decide what an already-sound input means.
    @raise Invalid_argument as {!check_limits}, when both [sound] and
    [ctx] are given, or when [ctx] is another test's context. *)

val irredundant :
  ?sound:(Lang.test -> bool) -> ?ctx:ctx -> Lang.test -> Placement.edit list -> bool
(** Explicit re-verification that the set is sufficient and that
    dropping any single edit re-admits the forbidden outcome (the
    property the level-wise walk guarantees by construction; exposed
    for reports and tests).  The oracle is chosen as in {!search}: a
    replayed witness can decide a subset, while the full set, if sound,
    always takes a search — no witness proves a set sound.
    @raise Invalid_argument as {!search}. *)
