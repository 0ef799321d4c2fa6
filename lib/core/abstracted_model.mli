(** The paper's abstracted models (Algorithm 1): a loop of two memory
    operations to fresh cache lines with an order-preserving approach
    between them and a tunable batch of NOPs, executed by two threads on
    chosen cores so that the touched lines bounce between caches (making
    the accesses remote memory references).

    The three axes the paper varies are the constructor arguments:
    barrier occurrence frequency (via [nops]), the memory operations
    around the barrier (via [mem_ops]), and the choice of approach
    (via [approach] and [location]). *)

type mem_ops =
  | No_mem  (** Figure 2: barriers alone, no memory operations *)
  | Store_store  (** Figure 3: str / barrier / nops / str *)
  | Load_store  (** Figure 5: ldr / barrier / nops / str *)
  | Load_load  (** advisor validation: ldr / barrier / nops / ldr *)

type location =
  | Loc1  (** barrier strictly after the first access ("X-1") *)
  | Loc2  (** barrier after the NOPs, before the second access ("X-2") *)

type spec = {
  cfg : Armb_cpu.Config.t;
  cores : int * int;  (** where the two threads are bound *)
  mem_ops : mem_ops;
  approach : Ordering.t;
  location : location;
  nops : int;
  iters : int;  (** loop count per thread *)
  buffer_lines : int;  (** working-set size per access stream *)
}

val default_spec : Armb_cpu.Config.t -> spec
(** [Store_store], [No_barrier], [Loc1], 100 nops, cores (0,1),
    2000 iterations, 64-line streams. *)

val label : spec -> string
(** e.g. "DMB full-1", "STLR", "No Barrier" — the names used in the
    paper's figure legends (location suffix only for barrier
    instructions). *)

val valid : spec -> bool
(** Rejects combinations that make no sense (e.g. [Data_dep] in a
    store-store model). *)

val run : spec -> float
(** Execute the model and return throughput in loops/second (per
    thread).  Raises [Invalid_argument] if [valid spec] is false. *)

val run_stats : spec -> int * int
(** Same run, returning [(cycles, events)]: the makespan in cycles and
    the number of kernel events the run processed (the denominator of
    the perf harness' events/sec metric). *)
