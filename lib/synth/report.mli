(** Markdown and JSON rendering of repair results (the [armb fix]
    report and the CI artifact). *)

val pp_outcome : Format.formatter -> Fix.outcome -> unit
(** Human-readable single-test report: repairs with static cost,
    advisor cross-reference, per-platform simulated cost, and the
    per-platform winners. *)

val pp_round_trip : Format.formatter -> Fix.round_trip -> unit

val round_trips_markdown : Fix.round_trip list -> string
(** Full Markdown report: summary table (one row per catalogue test,
    winner and cost delta per platform, verdict flags) followed by a
    per-test breakdown of every synthesized repair. *)

val round_trips_json : Fix.round_trip list -> Armb_json.Json.t
(** The same data as a JSON document: one object per round trip, with
    its [outcome] rendered as {!outcome_json}. *)

val outcome_json : Fix.outcome -> Armb_json.Json.t
(** One test's repairs, their per-platform costs in simulated cycles,
    and the winner per platform. *)
