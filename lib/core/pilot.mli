(** Pilot: the paper's mechanism for removing the performance-critical
    barrier between "store the data" and "set the flag" in
    message-passing patterns (§4.3, Algorithms 3 & 4).

    Instead of [data := msg; DMB st; flag := 1], the sender piggybacks
    the flag on the data itself: the receiver detects a new message by
    seeing the shared [data] word {e change}.  Because a 64-bit aligned
    store is single-copy atomic, data and "flag" become visible
    together, so no barrier is needed.  Two complications, both handled
    here:

    - the new message may equal the previous one, in which case writing
      it would not be observable — the sender first {e shuffles} the
      payload by XOR-ing it with a pseudo-random pool value (so
      repeats are unlikely to collide), and
    - if the shuffled value {e still} equals the previous shuffled
      value, a fallback path toggles a separate shared [flag] word.

    The codec half decides what to write and decodes what was read; it
    is the simulator's instance of {!Armb_primitives.Pilot_word}, the
    one implementation both substrates share.  The {!line} half is the
    one Pilot channel over simulated memory: every simulated Pilot user
    sends and receives through it. *)

type write_op =
  | Write_data of int64  (** store this shuffled value to the shared [data] word *)
  | Toggle_flag  (** fallback: flip the shared [flag] word *)

type sender

type receiver

val make_pool : ?size:int -> seed:int -> unit -> int64 array
(** Deterministic pseudo-random shuffle pool.  Sender and receiver must
    use identical pools. *)

val sender : int64 array -> sender

val receiver : int64 array -> receiver

val encode : sender -> int64 -> write_op
(** [encode s msg] advances the sender state and says what to store.
    Exactly one 64-bit store must then be performed. *)

val try_decode : receiver -> data:int64 -> flag:int64 -> int64 option
(** [try_decode r ~data ~flag] inspects a snapshot of the two shared
    words.  [Some msg] means a new message arrived (receiver state is
    advanced); [None] means nothing new yet.  The receiver polls until
    it gets [Some].

    {b Important:} each [Some] consumes one encode step, so sender and
    receiver stay in lock-step — this is a single-producer
    single-consumer protocol where the producer must not overwrite an
    unconsumed message (in the ring-buffer usage, slot reuse is
    prevented by the ring's counters). *)

val sent : sender -> int
(** Number of messages encoded so far. *)

val received : receiver -> int

(** {2 One channel over simulated memory} *)

type line = private {
  data : int;  (** address of the data word; the fallback flag is at [data + 8] *)
  tx : sender;  (** the sending core's codec state *)
  rx : receiver;  (** the receiving core's codec state *)
}
(** A single-producer single-consumer channel: the data word and the
    fallback flag share one cache line, so a delivery moves that line
    alone. *)

val line : int64 array -> data:int -> line

val send : Armb_cpu.Core.t -> line -> int64 -> bool
(** Store the shuffled word.  On a collision, load the flag and store it
    toggled instead, and return [true]. *)

val poll : Armb_cpu.Core.t -> line -> int64 option
(** Load the data word, then the flag, then decode. *)

val recv : Armb_cpu.Core.t -> line -> int64
(** [poll] until a message arrives, sleeping on the line's watch
    between polls ({!Armb_cpu.Core.spin_poll}). *)

val decode : line -> data:int64 -> flag:int64 -> int64 option
(** Decode words the caller loaded itself (a consumer that issues its
    loads ahead of time). *)
