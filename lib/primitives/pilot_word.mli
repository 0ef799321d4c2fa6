(** The canonical Pilot codec (the paper's Algorithms 3 & 4), generic in
    the word type it shuffles.

    Pilot removes the barrier between "store the data" and "set the
    flag": the sender piggybacks arrival detection on the message word
    itself, the receiver detects a new message by seeing the shared word
    {e change}.  Because an aligned word store is single-copy atomic,
    data and "flag" become visible together.  Two complications, both
    handled here:

    - the new message may equal the previous one, so the sender first
      {e shuffles} the payload by XOR-ing it with a pseudo-random pool
      value (repeats are unlikely to collide), and
    - if the shuffled value {e still} equals the previous shuffled
      value, a fallback path toggles a separate shared flag word.

    There is exactly one implementation of these invariants; the
    simulator codec ({!Armb_core.Pilot}, over [int64] machine words) and
    the native runtime codec ([Armb_runtime.Pilot_codec], over immediate
    OCaml [int]s) are both instances of {!Make}.  Both draw their
    shuffle pools from the same seeded SplitMix64 stream, through
    {!WORD.of_pool}. *)

module type WORD = sig
  type t

  val equal : t -> t -> bool
  val logxor : t -> t -> t
  val zero : t

  val of_pool : int64 -> t
  (** Project one raw 64-bit pool draw into the word type (identity for
      [int64]; a logical truncation for immediate [int]s). *)
end

module type S = sig
  type word

  type write_op =
    | Write_data of word  (** store this shuffled value to the shared data word *)
    | Toggle_flag  (** fallback: flip the shared flag word *)

  type sender
  type receiver

  val make_pool : ?size:int -> seed:int -> unit -> word array
  (** Deterministic pseudo-random shuffle pool.  Sender and receiver
      must use identical pools. *)

  val sender : word array -> sender
  val receiver : word array -> receiver

  val encode : sender -> word -> write_op
  (** [encode s msg] advances the sender state and says what to store.
      Exactly one word store must then be performed. *)

  val try_decode : receiver -> data:word -> flag:word -> word option
  (** [try_decode r ~data ~flag] inspects a snapshot of the two shared
      words.  [Some msg] means a new message arrived (receiver state is
      advanced); [None] means nothing new yet.  Each [Some] consumes one
      encode step, so sender and receiver stay in lock-step — this is a
      single-producer single-consumer protocol where the producer must
      not overwrite an unconsumed message. *)

  val sent : sender -> int
  val received : receiver -> int
end

module Make (W : WORD) : S with type word = W.t
