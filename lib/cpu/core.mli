(** Timing model of one simulated core, plus the split-phase micro-op DSL
    that simulated threads are written in.

    A simulated thread is an OCaml function receiving a [Core.t] and
    calling the operations below.  Program order is the call order;
    {e dependence} is explicit: anything executed after [await tok]
    depends on the load that produced [tok], anything issued before the
    [await] may overlap it.  The core model applies ARM's weakly-ordered
    semantics:

    - loads complete out of order with latencies from the coherence
      model; values are sampled at the completion timestamp;
    - stores enter a store buffer and drain in the background, becoming
      globally visible at drain completion (drains to different lines
      complete independently — store-store reordering is observable);
    - barriers gate issue/drain times per their architectural semantics
      and, for DMB/DSB, model the ACE barrier-transaction round trip to
      the inner bi-section or inner domain boundary;
    - a bounded in-flight window (ROB) retires in order, so a pending
      DMB full backs up the window and indirectly stalls independent
      ALU work (the paper's Figure 4 mechanism).

    Blocking operations ([await], [spin_until], [rmw] results) suspend
    the thread with an effect handled by {!Machine}. *)

type t

type token
(** Handle of an in-flight load / RMW result. *)

(** {2 Introspection} *)

val id : t -> int
val cursor : t -> int
(** Local cycle count: issue time of the next instruction. *)

(** {2 Micro-ops} *)

val compute : t -> int -> unit
(** [compute c n] executes [n] independent single-cycle ALU ops (NOPs in
    the paper's models), issued [alu_ipc] per cycle, bounded by the
    in-flight window.  With an observer installed and [n > 0] it emits
    one [Observe.Compute n] event, which takes no program-order slot
    (its [seq] is -1). *)

val load : t -> ?deps:token list -> int -> token
(** Issue a load from a byte address.  Returns immediately; the value is
    available through [await].  Store-buffer forwarding applies.
    [deps] declares architectural address dependencies on earlier loads
    (tokens); they only matter to an installed {!Observe.t} observer —
    the timing model derives its ordering from [await] placement. *)

val await : t -> token -> int64
(** Wait for completion and return the loaded value.  Everything the
    thread does afterwards is ordered after the load (data/address/
    control dependence). *)

val value : token -> int64
(** Value of an already-completed token.  Raises [Invalid_argument] if
    the token is still in flight (use [await]). *)

val store : t -> ?deps:token list -> int -> int64 -> unit
(** Put a store into the store buffer.  Issue never blocks on the bus;
    it only stalls when the store buffer is full.  [deps] declares
    address/data dependencies on earlier loads (observer-only, like
    {!load}). *)

val barrier : t -> Barrier.t -> unit
(** Execute a barrier instruction (see {!Barrier.t}). *)

val ldar : t -> ?deps:token list -> int -> token
(** Load-acquire: subsequent memory accesses are held until it
    completes.  Resolved core-locally — no bus transaction. *)

val stlr : t -> ?deps:token list -> int -> int64 -> unit
(** Store-release: its commit waits for all prior loads and stores to be
    observable (plus a domain round trip when the platform's
    [stlr_domain] policy is set). *)

val rmw : t -> ?acq:bool -> ?rel:bool -> ?deps:token list -> int -> (int64 -> int64) -> token
(** Atomic read-modify-write: atomically replaces the word with
    [f old]; the token yields [old].  [acq]/[rel] attach
    acquire/release ordering. *)

val cas :
  t -> ?acq:bool -> ?rel:bool -> ?deps:token list -> int -> expected:int64 -> desired:int64 -> token
(** Compare-and-swap; token yields the previous value (success iff it
    equals [expected]). *)

val fetch_add : t -> ?acq:bool -> ?rel:bool -> ?deps:token list -> int -> int64 -> token
(** Atomic add; token yields the previous value. *)

val spin_until : t -> int -> (int64 -> bool) -> int64
(** [spin_until c addr pred] models a polling loop on [addr]: it costs
    one load per poll but sleeps on a cache-line watch between changes,
    so it is cheap to simulate.  Returns the first value satisfying
    [pred]. *)

val spin_poll : t -> int -> (unit -> 'a option) -> 'a
(** [spin_poll c addr check] generalizes [spin_until] to polling
    conditions that span several words: [check] (which may perform
    loads/awaits, and pays their cycles) is evaluated; on [None] the
    thread sleeps until the next committed store to [addr]'s cache line
    and polls again. *)

val pause : t -> int -> unit
(** Suspend the thread for [n] cycles of simulated time without issuing
    instructions (models a descheduled/idle thread). *)

(** {2 Counters} *)

type counters = {
  loads : int;
  stores : int;
  barriers : int;
  rmws : int;
  spins : int;
}

val counters : t -> counters

(** {2 Used by Machine} *)

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

val make :
  ?observer:Observe.t ->
  ?fault:Armb_fault.Injector.t ->
  id:int ->
  cfg:Config.t ->
  queue:Armb_sim.Event_queue.t ->
  mem:Armb_mem.Memsys.t ->
  unit ->
  t

val reset : ?observer:Observe.t -> ?fault:Armb_fault.Injector.t -> t -> unit
(** Return the core to the state {!make} gives it, bound to the given
    observer and injector (none when omitted); its id, config, queue
    and memory system are kept. *)

