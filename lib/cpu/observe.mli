(** Observation hook for the timing model: the one instrumentation
    stream of a simulation.

    When a {!Core.t} is created with an observer, it emits one {!event}
    per executed micro-operation (loads, stores, RMWs, barriers and
    [compute] calls of at least one op) in program order, carrying the
    acquire/release/barrier annotations, the explicit address/data
    dependencies, and the completion timestamps assigned by the timing
    model.  The happens-before sanitizer ([armb_check]) and the
    Chrome-trace collector ({!Trace.observer}) are both consumers of
    this stream; it costs nothing when no observer is installed. *)

type kind =
  | Load of { acquire : bool }
  | Store of { release : bool }
  | Rmw of { acq : bool; rel : bool }
  | Fence of Barrier.t
  | Compute of int  (** [n] ALU ops ([Core.compute] with [n > 0]) *)

type event = {
  core : int;
  seq : int;
      (** per-core program-order index; every access and fence takes
          one slot, numbered 0, 1, 2, ... per core.  [Compute] events
          take none: their [seq] is -1, so inserting ALU work between
          two accesses leaves the numbering of the accesses and fences
          unchanged. *)
  kind : kind;
  addr : int;  (** byte address of the access; -1 for [Fence] and [Compute] *)
  deps : int list;
      (** seqs of same-core loads whose value this op's address or data
          depends on *)
  issued_at : int;
  completes_at : int;
      (** load: value-sample time; store: commit (drain) time; fence:
          barrier response time; compute: the core's cursor once the
          work has issued *)
}

type t = event -> unit

val is_access : kind -> bool
val kind_to_string : kind -> string
