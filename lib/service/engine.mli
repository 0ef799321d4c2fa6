(** The long-lived job engine: memoization, in-flight coalescing, a
    priority scheduler with fair share across clients, and explicit
    backpressure.

    {b Admission} ([submit]) is synchronous and cheap: the job is
    content-addressed ({!Job.key}); a finished result in the cache
    answers immediately ([Hit]); a computation already queued for the
    same key absorbs the request as a waiter ([submit] returns [None],
    the response arrives when that computation completes, marked
    [Coalesced]); otherwise the job joins its client's queue at its
    priority — unless the number of distinct queued computations has
    reached [queue_bound], in which case the request is {e shed} with a
    retry-after hint instead of growing the queue without bound.
    Coalesced waiters never count against the bound: absorbing a
    duplicate costs a list cell, not a computation.

    {b Execution} ([drain]) picks queued computations highest priority
    first; within a priority it round-robins across clients, so one
    client fanning out a thousand jobs cannot starve another's single
    request at equal priority.  Each computation runs once and answers
    every waiter; results enter the cache (unless [no_cache]).

    Jobs are pure ({!Job.run}), so scheduling order, coalescing and
    caching cannot change any response's [text] — a warm hit is
    bit-identical to a cold run by construction, and the tests pin that
    against the golden-digest workloads. *)

type priority = High | Normal | Low

val priority_of_string : string -> priority option
val priority_to_string : priority -> string

type request = { id : string; client : string; priority : priority; job : Job.t }

type origin =
  | Cold  (** computed by this request *)
  | Hit  (** answered from the memo cache *)
  | Coalesced  (** absorbed by an identical in-flight computation *)

type reply =
  | Result of { origin : origin; key : string; wall_us : int; result : Job.result }
  | Shed of { retry_after_ms : int }
  | Error of string

type response = { id : string; client : string; reply : reply }

type t

val create :
  ?cache_cap:int -> ?queue_bound:int -> ?no_cache:bool -> ?clock:Clock.t -> unit -> t
(** Defaults: cache capacity 512 results, queue bound 256 distinct
    computations.  [no_cache] disables {e both} memoization and
    coalescing — every request computes (the baseline the cache's
    speedup is measured against).  [clock] injects the monotonic time
    source computations are timed with (tests step it
    deterministically; the default reads the system clock). *)

val submit : t -> request -> response option
(** [Some] for an immediate answer (cache hit, shed, or a request that
    cannot be keyed/parsed → [Error]); [None] when the request was
    queued or coalesced — its response comes from {!drain}. *)

val drain : t -> response list
(** Run queued computations to exhaustion; responses in completion
    order (one per pending request, coalesced waiters included). *)

val pending : t -> int
(** Distinct computations currently queued. *)

val live_lanes : t -> int
(** Scheduler lanes currently registered, across all priority levels.
    Bounded by the number of (priority, client) pairs with queued work:
    a drained lane retires, so client churn cannot grow the scheduler
    (the regression the lane-index rewrite pins down). *)

val metrics : t -> Metrics.t
