(** Barrier-synchronization primitives for the many-core crossover
    study (ROADMAP item 3).

    Three classic shapes, all sense-reversing with {e monotone} episode
    counters (no counter resets, so there is no reset/arrival race under
    the weak-memory model):

    - {b Central}: one fetch-add counter, one sense line.  O(n)
      serialized rmws per episode on a single hot line, plus one release
      store whose invalidation fans out to every spinner — the
      quadratic-ish pattern that melts past a few dozen cores.  It runs
      as the combining tree below with one node of width n.
    - {b Tree}: combining tree of the given arity; arrival rmws spread
      over ~n/arity lines, the root publishes the sense.  O(n) rmws but
      only O(arity) contention per line and O(log n) depth on the
      critical path.
    - {b Dissemination}: ceil(log2 n) rounds of point-to-point flag
      stores; no rmws, no hot line, latency O(log n) independent of
      arrival order.

    Each simulated core runs [episodes] iterations of [work] ALU cycles
    followed by the barrier.  Every episode is validated host-side (a
    release that precedes some peer's arrival raises
    [Machine.Simulation_error]), so a broken protocol fails loudly
    rather than producing a fast-but-wrong number. *)

type kind = Central | Tree of int  (** arity, >= 2 *) | Dissemination

val kind_name : kind -> string
(** ["central"], ["tree<arity>"], ["dissemination"]. *)

type spec = {
  cfg : Armb_cpu.Config.t;
  kind : kind;
  cores : int list;  (** participating cores, one simulated thread each *)
  episodes : int;  (** barrier episodes to run, >= 1 *)
  work : int;  (** ALU cycles of per-core work between barriers, >= 0 *)
}

val default_spec : Armb_cpu.Config.t -> kind:kind -> spec
(** All cores of the platform, 4 episodes, 64 cycles of work. *)

type result = {
  cycles : int;  (** makespan *)
  episodes : int;
  cycles_per_episode : float;
  events : int;  (** simulator events processed (perfbench's [sim.barrier.events]) *)
  counters : Armb_mem.Memsys.counters;
}

val run : spec -> result
(** Raises [Invalid_argument] on an empty core list, non-positive
    [episodes], negative [work] or tree arity < 2;
    [Machine.Simulation_error] if synchronization is violated. *)
