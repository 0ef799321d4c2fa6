(** Single-producer single-consumer ring buffer on the simulator —
    the paper's Algorithm 2, with the two producer-side barriers
    pluggable (§4.1/§4.2, Figure 6(a)).

    The producer checks buffer availability (shared [consCnt]), then
    - [avail] barrier (Algorithm 2 line 3): orders the availability
      load before the buffer fill;
    - fills the slot (the store that is typically a remote memory
      reference);
    - [publish] barrier (line 5): orders the fill before the counter
      store that informs the consumer — the {e fatal} barrier strictly
      following an RMR;
    - bumps [prodCnt].

    The consumer spins on [prodCnt], optionally guards the message load
    with [DMB ld], reads the slot and bumps [consCnt]. *)

type barriers = {
  avail : Armb_core.Ordering.t;  (** line-3 choice: DMB full / DMB ld / LDAR / none *)
  publish : Armb_core.Ordering.t;  (** line-5 choice: DMB full / DMB st / STLR / none *)
  consumer_guard : bool;  (** apply DMB ld between flag spin and data load *)
}

val combo : string -> barriers
(** Figure 6(a) legend names: ["DMB full - DMB full"],
    ["DMB full - DMB st"], ["DMB ld - DMB st"], ["LDAR - DMB st"],
    ["DMB full - STLR"], ["DMB ld - No Barrier"], ["Ideal"].
    Raises [Invalid_argument] on unknown names. *)

val combo_names : string list
(** The legend, in the paper's order. *)

type spec = {
  cfg : Armb_cpu.Config.t;
  producer_core : int;
  consumer_core : int;
  slots : int;
  messages : int;
  produce_nops : int;  (** cost of [produceMsg()] *)
  consume_nops : int;
  barriers : barriers;
  fault : Armb_fault.Plan.spec option;
      (** optional fault-injection plan armed on the run's machine
          (degradation studies); [None] is the exact unfaulted kernel *)
}

val default_spec : Armb_cpu.Config.t -> cores:int * int -> spec
(** 16 slots, 4000 messages, 60-nop production, 10-nop consumption,
    best-legal barriers (DMB ld - DMB st). *)

type result = {
  throughput : float;  (** messages per second *)
  cycles : int;
  lines_touched : Armb_mem.Memsys.counters;
}

val run : ?observer:Armb_cpu.Observe.t -> spec -> result
(** Run the ring to completion.  [observer] receives both cores'
    {!Armb_cpu.Observe} stream ([armb trace] passes a
    {!Armb_cpu.Trace.observer}); observing changes no result.  Raises
    [Invalid_argument] unless [slots] and [messages] are positive. *)

val verified_run : spec -> result
(** Like {!run} but additionally has the consumer check every received
    payload; raises [Failure] on corruption.  (With [Ideal] barriers
    the check is skipped — removing all barriers is unsound by design
    and serves only as a performance reference.) *)
