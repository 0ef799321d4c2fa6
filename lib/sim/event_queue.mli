(** Discrete-event scheduler core.

    Time is measured in integer processor cycles of the simulated
    machine.  Events scheduled at equal times fire in insertion order
    (FIFO tie-break), which keeps runs deterministic regardless of heap
    internals.

    Times are bounded: the latest schedulable time is [max_int lsr 24]
    = 2^38 - 1 = 274,877,906,943 cycles.  An event's heap key packs its
    time above a 24-bit insertion sequence number, so a later time
    would wrap and fire out of order; {!schedule} rejects it instead. *)

type time = int

type t

val create : unit -> t

val reset : t -> unit
(** Return the queue to its just-created state: no pending events, clock
    0, and the sequence and {!processed} counters at 0.  Events still
    pending are dropped unfired. *)

val now : t -> time
(** Current simulation time: the timestamp of the event being processed
    (0 before the first event). *)

val schedule : t -> at:time -> (unit -> unit) -> unit
(** [schedule q ~at f] runs [f] when simulated time reaches [at].
    [at] is clamped to [now q] if it lies in the past, preserving the
    monotonic-clock invariant.
    @raise Invalid_argument naming the time and the limit when [at]
    (after clamping) is past the limit. *)

val schedule_in : t -> delay:int -> (unit -> unit) -> unit
(** [schedule_in q ~delay f] = [schedule q ~at:(now q + delay) f]. *)

val run_next : t -> bool
(** Process the single earliest event. Returns [false] when the queue is
    empty. *)

val run : ?until:time -> ?max_events:int -> t -> unit
(** Drain the queue.  [until] stops once [now] would exceed it, and the
    clock advances to [until] when the queue drains early — simulated
    time passes even when nothing is scheduled in it.  [max_events]
    bounds the number of processed events (guard against accidental
    livelock in tests); stopping on that bound leaves the clock at the
    last processed event. *)

val pending : t -> int
(** Number of events not yet fired. *)

val processed : t -> int
(** Total events fired since creation or the last {!reset}. *)
