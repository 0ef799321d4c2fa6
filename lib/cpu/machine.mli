(** Multi-core machine: owns the event queue, the memory system and the
    simulated threads, and drives them to completion. *)

type t

type status =
  | Completed  (** every spawned thread returned *)
  | Deadlock of int list  (** ids of cores still blocked when the event queue drained *)
  | Cycle_limit  (** [max_cycles] reached first *)

exception Simulation_error of string

val create : ?observer:Observe.t -> ?fault:Armb_fault.Plan.spec -> Config.t -> t
(** [observer] is the one opt-in instrumentation hook, fed to every
    spawned core: the happens-before sanitizer
    ([Armb_check.Sanitizer.observer]) and the Chrome-trace collector
    ({!Trace.observer}) both plug in here; runs without an observer pay
    no overhead.  [fault] arms a
    deterministic fault-injection plan (see {!Armb_fault.Plan}): one
    seeded injector is shared by the memory system and every core, so a
    given plan perturbs a given program identically on every run.  A
    null plan (all probabilities zero) is equivalent to omitting it. *)

val reset : ?observer:Observe.t -> ?fault:Armb_fault.Plan.spec -> t -> unit
(** Return the machine to the state {!create} gives it, under a new
    observer and fault plan (none when omitted), so a caller that runs
    many short programs builds one machine instead of one per run.
    After [reset m], running a program on [m] gives exactly what it
    gives on a fresh [create] with the same config, observer and plan: the same elapsed cycles, processed events, memory and
    core counters, values and observer stream.  Concretely:
    - the event queue is empty, at clock 0, with its sequence and
      processed counters at 0 — pending events of a run that stopped
      early ([Deadlock], [Cycle_limit], an exception) are dropped;
    - the memory system holds no values, every line in it is as a
      fresh one (its records are kept and reset in place, see
      {!Armb_mem.Memsys.reset}) and its traffic counters are 0;
    - the injector is re-armed from [fault] (a null plan arms none);
    - no thread is spawned and {!alloc_line} starts over at the first
      address.
    Threads are kept per core id, each with its core, effect handler
    and launch closure: spawning on a core again resets the core field
    by field, binds it to the new observer and injector, and allocates
    nothing.  A reset walks only the cores the last run spawned, not
    every core of the machine.  The config is the machine's for life.
    Read {!core} and {!injector} after the run they describe: a kept
    core is reset when it is spawned again. *)

val config : t -> Config.t
val mem : t -> Armb_mem.Memsys.t
val queue : t -> Armb_sim.Event_queue.t

val injector : t -> Armb_fault.Injector.t option
(** The armed fault injector, if any — for post-run fault counters and
    the per-run event digest. *)

val alloc_line : t -> int
(** Bump-allocate a fresh cache-line-aligned address (64-byte spacing),
    so unrelated shared variables never false-share. *)

val alloc_lines : t -> int -> int
(** Allocate [n] consecutive lines; returns the first address. *)

val spawn : t -> core:int -> (Core.t -> unit) -> unit
(** Bind a simulated thread to a core.  At most one thread per core.
    Threads begin executing when [run] is called, in core-id order
    whatever the spawn order. *)

val core : t -> int -> Core.t
(** The core state (for reading cursors/counters after a run).
    Raises [Not_found] if nothing was spawned on that core. *)

val run : ?max_cycles:int -> t -> status
(** Execute all spawned threads to completion. *)

val run_exn : ?max_cycles:int -> t -> unit
(** Like [run] but raises [Simulation_error] unless the result is
    [Completed]. *)

val elapsed : t -> int
(** Max cursor over the run's cores after a run — the makespan in
    cycles. *)

val throughput : t -> ops:int -> float
(** [ops] per second given the makespan and the platform frequency. *)
