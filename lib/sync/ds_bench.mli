(** The simulated-lock benchmark harness: every lock of §5 and the
    in-place extension study, each running either a counter critical
    section (Figures 7(a)–(c) and the [locks] study) or one of the
    Figure 8 data structures — Queue and Stack under a global lock
    (8a), a sorted linked list (8b), and a hash table with per-bucket
    locks (8c).

    The shared data lives in simulated memory (every node is a cache
    line), so critical-section length and locality behave as on the
    modelled machine: under delegation the data stays hot in the
    server/combiner's cache, under an in-place lock it migrates to each
    lock holder — the effect behind Figure 8's rankings.

    Placement: FFWD servers take the first cores of [spec.cores] and
    the workers the next [spec.workers].  A core order too short for
    them, or naming a core twice, raises [Invalid_argument].

    Every run checks itself and raises on a violation ([Failure], or
    [Machine.Simulation_error] naming it when the check fails inside a
    simulated thread), so these benchmarks are also correctness tests
    of the locks.  The counter workload keeps a host-side
    mutual-exclusion oracle, counts the critical sections executed,
    and checks the protected counter's total and every operation's
    return value.  The last two are skipped when the spec removes a
    barrier the lock needs, as the unsound reference points do: an
    in-place lock released with [No_barrier] (Figure 7(a)'s "Removed"),
    or an FFWD server reading requests or publishing responses without
    one (Figure 7(b)'s "LDAR-No Barrier" and "Ideal").  The data
    structures validate against host-side shadow models (lock order is
    a valid sequential order because critical sections run atomically
    with respect to each other). *)

type lock_kind =
  | Spin
  | Ticket
  | Mcs
  | Cohort
  | Dsynch
  | Dsynch_pilot
  | Ffwd_lock
  | Ffwd_pilot

val lock_name : lock_kind -> string

val paper_locks : lock_kind list
(** Ticket, DSM-Synch and FFWD, each delegation lock with and without
    Pilot: the rows of Figures 7(c) and 8. *)

val in_place_locks : lock_kind list
(** Spinlock, ticket, MCS and cohort: the rows of the [locks] study. *)

type spec = {
  cfg : Armb_cpu.Config.t;
  lock : lock_kind;
  workers : int;
  ops_per_worker : int;
  interval_nops : int;  (** think time after each operation *)
  cores : int list;  (** core order: FFWD servers first, then workers *)
  release_barrier : Armb_core.Ordering.t;  (** in-place locks' unlock barrier *)
  ffwd_barriers : Ffwd.barriers;
  cs_lines : int;  (** counter workload: global lines read-modified per critical section *)
}

val default_spec : Armb_cpu.Config.t -> lock:lock_kind -> spec
(** 16 workers of 120 operations with 200 NOPs between them, cores in
    id order, DMB full unlock, FFWD's LDAR / DMB st pair and one
    counter line. *)

type result = {
  throughput : float;  (** operations per second *)
  cycles : int;
  ops : int;
  cross_node_per_cs : float;  (** cross-node line transfers per operation *)
}

val run_counter : spec -> result
(** Each critical section read-modifies [cs_lines] lines, computes 2
    cycles and returns [arg + v], [v] being the first line's old value,
    for the argument [(worker + 1) * 1_000_000 + round]. *)

val run_queue : spec -> result
(** Workers alternate enqueue / dequeue under one global lock. *)

val run_stack : spec -> result
(** Workers alternate push / pop under one global lock. *)

val run_sorted_list : preload:int -> spec -> result
(** Sorted linked list: 10 searches, then 1 insert and 1 remove, on
    keys drawn from twice the preload range. *)

val run_hash_table : buckets:int -> preload:int -> spec -> result
(** Hash table of [buckets] sorted lists, one lock per bucket; FFWD
    variants dedicate up to 8 server cores, shared round-robin among
    buckets. *)
