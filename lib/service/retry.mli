(** Bounded-backoff consumer for shed responses.

    The engine's backpressure answer ([Shed { retry_after_ms }]) is a
    hint that previously nothing consumed.  [resubmit] drives a request
    through shed responses by re-attempting with capped exponential
    backoff, honoring the engine's hint as a per-attempt floor.  Every
    request reaches exactly one of two terminal states — {!Completed}
    (a [Result] or [Error] reply, possibly after several sheds) or
    {!Gave_up} (still shed after [max_retries] attempts, last response
    attached) — so a shed request can be retried, reported, or counted,
    but never silently dropped.  Used by the soak driver
    ([armb soak]). *)

type policy = {
  max_retries : int;  (** resubmission attempts after the first shed *)
  base_ms : int;  (** backoff floor for attempt 0; doubles per attempt *)
  cap_ms : int;  (** upper bound on any single backoff *)
}

val default_policy : policy
(** 6 retries, 10ms base, 2s cap. *)

type outcome =
  | Completed of { response : Engine.response; retries : int }
      (** terminal non-shed reply (ok {e or} error) *)
  | Gave_up of { last : Engine.response; retries : int }
      (** still shed after exhausting the policy *)

val is_shed : Engine.response -> bool

val default_sleep : int -> unit
(** [Unix.sleepf] on milliseconds; the default [?sleep]. *)

val resubmit :
  ?policy:policy ->
  ?sleep:(int -> unit) ->
  attempt:(unit -> Engine.response) ->
  Engine.response ->
  outcome
(** [resubmit ~attempt first] loops while the current response is shed
    and retries remain: sleep the backoff, call [attempt] for a fresh
    response.  [sleep] is injectable so tests run without wall-clock
    delays (default: [Unix.sleepf]). *)
