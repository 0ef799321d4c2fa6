(** The long-lived bounded soak driver: generated job streams as
    production traffic against the real service stack.

    Waves of {!Gen} requests flow through an in-process engine exactly
    as piped NDJSON would — same codec, same memo cache, coalescing,
    admission and shedding.  Every terminal response is checked against the
    job's {!Invariant.expect}; violations persist as self-contained
    repro bundles ([armb-soak-violation-v1]: seed, verbatim request
    line, response).  A shed request is resubmitted once, without
    waiting, after its wave has drained and the engine is idle — a
    request ends completed or violated (bundled); never silently
    dropped.

    A rolling [armb-soak-metrics-v2] snapshot — engine metrics
    (hit/coalesce/shed rates, latency percentiles) merged with farm
    counters (jobs per kind, drift totals, violations, sheds) — is
    rewritten atomically every [snapshot_every] waves, so an external
    watcher can tail a live run without ever reading a torn file. *)

module Engine = Armb_service.Engine
module Metrics = Armb_service.Metrics

type config = {
  seed : int;
  requests : int;  (** stop after this many submissions; 0 = no count bound *)
  duration_s : float option;  (** stop after this much wall clock *)
  wave : int;  (** requests per wave (one batch round trip) *)
  pool : int;
  alpha : float;
  queue_bound : int;
  cache_cap : int;
  snapshot_every : int;  (** waves between rolling snapshots; 0 = final only *)
  metrics_out : string option;
  bundle_dir : string option;
}

val default_config : seed:int -> config
(** 500 requests, wave 32, pool {!Gen.default_pool}, alpha 1.1, queue
    bound 24, cache 512, snapshot every 4 waves, no
    artifact paths. *)

type violation = {
  index : int;  (** 1-based submission index *)
  job : Gen.job;
  response : Engine.response;
  reason : string;
  bundle : string option;  (** repro bundle path, when a dir was given *)
}

type report = {
  submitted : int;
  completed : int;
  cold : int;
  hits : int;
  coalesced : int;
  shed_seen : int;  (** shed responses, each resubmitted once *)
  errors : int;
  by_kind : (string * int) list;  (** submissions per job kind, sorted *)
  drift_total : float;  (** summed perturb drift, ms precision *)
  violations : violation list;
  snapshots : int;  (** metrics snapshots written *)
  write_failures : (string * string) list;
      (** each artifact write that failed, in order: its path and the
          reason *)
  wall_s : float;
  metrics : Metrics.t;
  ok : bool;  (** zero violations *)
}

val run : ?jobs:Gen.job list -> config -> report
(** Runs the soak to its bound.  Raises [Invalid_argument] for an
    unbounded config ([requests <= 0], no [duration_s], no [?jobs]).
    [?jobs] replaces the generator stream with an explicit list —
    fixture injection for the violation-bundle tests.  A snapshot or
    bundle that cannot be written does not stop the run: it is listed
    in [write_failures], and the violation's [bundle] is [None]. *)

val pp_report : Format.formatter -> report -> unit
