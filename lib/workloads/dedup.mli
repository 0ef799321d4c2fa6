(** PARSEC-dedup-style pipeline on the simulator (Figure 6(d)).

    The paper evaluates Pilot on dedup's inter-stage communication after
    removing file I/O; we reproduce the same structure synthetically: a
    four-stage pipeline (chunk -> hash -> compress -> gather) of one
    thread per stage, connected by three queues.  Each chunk carries a
    64-bit descriptor; stage work is proportional to the chunk size
    drawn from a deterministic distribution.

    Queue variants, as in the paper:
    - [Locked_queue] ("Q"): a shared ring protected by a ticket lock on
      both ends — dedup's original communication buffer;
    - [Ring] ("RB"): the lock-free SPSC ring ({!Armb_sync.Spsc_ring}'s
      channel) with the best legal barriers (DMB ld - DMB st);
    - [Ring_pilot] ("RB-P"): the same channel with Pilot.

    Every chunk descriptor is checksummed end-to-end, so a run also
    validates the channels. *)

type queue_kind = Locked_queue | Ring | Ring_pilot

val queue_name : queue_kind -> string
val all_queues : queue_kind list

type workload = Small | Middle | Large

val workload_name : workload -> string
val all_workloads : workload list

type spec = {
  cfg : Armb_cpu.Config.t;
  queue : queue_kind;
  workload : workload;
  cores : int list;  (** four stage cores, in pipeline order *)
  slots : int;
}

val default_spec : Armb_cpu.Config.t -> queue:queue_kind -> workload:workload -> spec
(** Stages on cores 0,8,16,24 of the same NUMA node (kunpeng916). *)

type result = {
  throughput : float;  (** chunks per second through the pipeline *)
  cycles : int;
  chunks : int;
}

val run : spec -> result
