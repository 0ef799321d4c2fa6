(** Fuzz-repair soak: generate -> arm -> strip -> repair -> re-verify.

    Each round takes a random fuzz test, reduces it to its access
    skeleton ({!Armb_litmus.Mutate.strip_order} with values kept), and
    re-arms it with a random {e ground-truth} device set drawn from the
    synthesizer's own placement vocabulary.  Stripping the armed test
    recovers the skeleton, so the repairer is asked to win back a
    minimal subset of exactly what was injected.

    Random tests have a trivially-false [interesting] predicate, so
    soundness here is {e behaviour preservation}: the repaired test's
    WMM-enumerated outcome set must be a subset of the armed test's.
    Soundness is monotone in the edit set (ordering devices only remove
    outcomes), so a sufficient repair within [max_edits] edits always
    exists — a complete search that finds none is itself a fatal
    finding.

    Hard failures are {e unsound} repairs (outcome set not a subset),
    {e redundant} repairs (a reported set survives dropping an edit),
    simulator outcomes outside the repaired test's own WMM set, and a
    complete-but-empty search.  Budget-exhausted searches are counted
    but not fatal. *)

type report = {
  tests : int;
  skipped_no_devices : int;  (** skeleton admits no candidate edits *)
  stripped_still_sound : int;
      (** the injected devices forbid nothing observable; no repair
          needed *)
  repaired : int;
  no_repair : int;  (** search exhausted without a repair (not fatal) *)
  unsound : int;  (** FATAL: repair enlarged the outcome set *)
  redundant : int;  (** FATAL: repair survives dropping an edit *)
  sim_violations : int;
      (** FATAL: simulator witnessed an outcome outside the repaired
          test's WMM set *)
  oracle_calls : int;
  failures : string list;  (** rendering of every fatal finding *)
}

val ok : report -> bool
(** No fatal findings. *)

val run :
  ?tests:int ->
  ?seed:int ->
  ?max_edits:int ->
  ?budget:int ->
  unit ->
  report
(** Defaults: 20 tests, seed 2024, 2 injected/searched edits, 1200
    oracle calls per test, 25 simulator trials on the cheapest repair.
    Generation runs with [~with_isb:true] so the first-class ctrl+ISB
    fence is exercised in the vocabulary on both sides. *)

val pp_report : Format.formatter -> report -> unit
