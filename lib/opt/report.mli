(** Markdown and JSON rendering of optimizer results (the [armb opt]
    report and the CI artifact). *)

val markdown : Optimizer.result list -> string
(** Summary table: one row per program, fence deltas, soundness,
    per-platform estimated-cycle savings. *)

val json : Optimizer.result list -> Armb_json.Json.t
(** The same data as a JSON document: the algorithm, summary counts and
    one object per program with its per-platform cycles before and
    after. *)
