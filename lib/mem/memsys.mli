(** Coherent memory system model.

    Combines a directory-style coherence state per 64-byte line (owner +
    sharer bitmask, MESI-like), a latency model, a word-addressed value
    store, and per-line watch lists used to simulate spin loops cheaply.

    Timing and data are deliberately split: [read]/[write]/[rmw] compute
    the {e latency} of an access and update directory state at issue
    time, while [load_value]/[commit_store] move {e data} and are meant
    to be called at the access' completion timestamp by the CPU model.
    Store visibility therefore happens exactly when the simulated store
    buffer drains — which is what makes weak behaviours observable. *)

type t

type access = {
  latency : int;  (** cycles from request to completion *)
  cross_node : bool;  (** servicing involved another NUMA node *)
  hit : bool;  (** satisfied in the local L1 *)
}

val create : ?inj:Armb_fault.Injector.t -> topo:Topology.t -> lat:Latency.t -> unit -> t
(** [inj] wires a fault injector into the directory and interconnect
    paths: cache-to-cache transfers and invalidation snoops may be
    delayed (scaled by hop distance) and DRAM fills may jitter.  All
    perturbations are pure extra latency — directory state transitions
    and committed values are untouched, so coherence safety is
    preserved by construction.  Without [inj] the timing is
    bit-identical to the unfaulted kernel. *)

val reset : ?inj:Armb_fault.Injector.t -> t -> unit
(** Return the memory system to its just-created state under the given
    injector (none when omitted): no values, no watchers and zero
    traffic counters, and every line as a fresh one (no owner, no
    sharers, not busy, no pending writer).  Line records are kept and
    reset in place, so a later run's first access to a line allocates
    nothing; no access can tell a kept line from a new one.  Topology
    and latencies are kept. *)

val line_of : int -> int
(** Cache-line index of a byte address (64-byte lines). *)

val read : t -> now:int -> core:int -> addr:int -> access
(** Load timing: may transfer the line from its current owner/sharer. *)

val write_begin : t -> now:int -> core:int -> addr:int -> access
(** Start a store drain: computes its latency from the current directory
    state and reserves the line (competing writers serialize), but does
    {e not} yet invalidate other copies — readers keep hitting their
    cached copies until the drain completes.  The caller must invoke
    {!write_finish} at [now + latency]. *)

val write_finish : t -> now:int -> core:int -> addr:int -> unit
(** Complete a store drain begun with {!write_begin}: the writer becomes
    exclusive owner and every other copy is invalidated.  Call this at
    the drain's completion timestamp, before [commit_store]. *)

val extend_pending : t -> core:int -> addr:int -> until:int -> unit
(** Stretch the in-flight drain's completion horizon (used when the CPU
    model adds commit delay beyond the coherence latency, e.g. STLR's
    interconnect surcharge), so later same-line stores coalesce behind
    the {e full} completion and same-address commit order is kept. *)

val place : t -> core:int -> addr:int -> unit
(** Make [core] the exclusive owner of the line immediately (test /
    initial-placement helper; no timing). *)

val rmw : t -> now:int -> core:int -> addr:int -> access
(** Atomic read-modify-write timing: [write] plus the platform's RMW
    surcharge. *)

val load_value : t -> addr:int -> int64
(** Current committed value of the 8-byte word at [addr] (0 if never
    written). *)

val commit_store : t -> addr:int -> int64 -> unit
(** Make a store globally visible and wake all watchers of its line. *)

val watch : t -> addr:int -> (unit -> unit) -> unit
(** Register a one-shot callback fired at the next [commit_store]
    touching the same line. *)

(** {2 Traffic counters} (for the cache-lines-touched analyses) *)

type counters = {
  hits : int;
  transfers : int;  (** cache-to-cache transfers *)
  cross_node_transfers : int;
  dram_fills : int;
  invalidations : int;
}

val counters : t -> counters
val reset_counters : t -> unit
val pp_counters : Format.formatter -> counters -> unit
