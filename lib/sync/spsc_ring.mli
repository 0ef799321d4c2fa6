(** The simulator's single-producer single-consumer ring buffer: the
    paper's Algorithm 2 with its two producer-side barriers pluggable
    (§4.1/§4.2, Figure 6(a)), and the same ring with Pilot applied
    (§4.3-§4.5, Figures 6(b)-(d)).

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
    with [DMB ld], reads the slot and bumps [consCnt].

    With Pilot the producer keeps the availability barrier and
    piggybacks arrival on the message itself through the
    {!Armb_core.Pilot} channel, so the publish barrier and the
    [prodCnt] line disappear: the consumer detects a slot's change
    directly.  Each slot's data word and fallback flag share one cache
    line.

    Every run, and {!Armb_workloads.Dedup}'s ring queues, send through
    one {!chan}. *)

type barriers =
  | Fenced of {
      avail : Armb_core.Ordering.t;  (** line-3 choice: DMB full / DMB ld / LDAR / none *)
      publish : Armb_core.Ordering.t;  (** line-5 choice: DMB full / DMB st / STLR / none *)
      consumer_guard : bool;  (** apply DMB ld between flag spin and data load *)
    }
  | Pilot  (** DMB ld guards slot reuse; each lane is a Pilot channel *)

val combo : string -> barriers
(** Figure 6(a) legend names: ["DMB full - DMB full"],
    ["DMB full - DMB st"], ["DMB ld - DMB st"], ["LDAR - DMB st"],
    ["DMB full - STLR"], ["DMB ld - No Barrier"], ["Ideal"].
    Raises [Invalid_argument] on other names, ["Pilot"] included. *)

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
(** 32 slots, 4000 messages, 20-nop production, 2-nop consumption,
    best-legal barriers (DMB ld - DMB st). *)

type result = {
  throughput : float;  (** messages per second *)
  cycles : int;
  fallbacks : int;  (** Pilot deliveries that used the flag-toggle path; 0 when fenced *)
  lines_touched : Armb_mem.Memsys.counters;
}

val run : ?observer:Armb_cpu.Observe.t -> spec -> result
(** Run the ring to completion.  A fenced ring's consumer drains every
    message available at each counter observation (Figure 6(a)); a
    Pilot ring's keeps a four-deep window of slot loads in flight
    (Figure 6(b)).  [observer] receives both cores'
    {!Armb_cpu.Observe} stream ([armb trace] passes a
    {!Armb_cpu.Trace.observer}); observing changes no result.  Raises
    [Invalid_argument] unless [slots] and [messages] are positive. *)

val verified_run : spec -> result
(** Like {!run} but additionally has the consumer check every received
    payload; raises [Failure] on corruption.  (With a [No Barrier]
    publish the check is skipped — removing the publish barrier is
    unsound by design and serves only as a performance reference.) *)

val run_batched : words:int -> spec -> result
(** Figure 6(c): messages of [words] 8-byte lanes, one cache line per
    lane, every payload checked as in {!verified_run}.  Pilot sends
    each lane on its own channel and keeps {!run}'s window; a fenced
    ring publishes the whole message under one counter bump, and its
    consumer takes one message at a time, issuing all its lane loads
    before awaiting them.  Raises [Invalid_argument] unless [words] is
    in 1..8. *)

(** {2 The channel} *)

type chan
(** One ring's shared lines and both ends' positions. *)

val chan : Armb_cpu.Machine.t -> barriers -> slots:int -> seed:int -> chan
(** Allocate a ring of one-lane messages on the machine: [prodCnt]
    (fenced only), [consCnt], then one line per slot.  [seed] seeds a
    Pilot ring's shuffle pool. *)

val send : chan -> Armb_cpu.Core.t -> int64 -> unit
(** Wait for a free slot, apply the [avail] ordering, fill the slot and
    publish it. *)

val recv : chan -> Armb_cpu.Core.t -> int64
(** Wait for the next message, read it and free its slot. *)
