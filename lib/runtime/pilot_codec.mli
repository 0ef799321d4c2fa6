(** Native Pilot codec over OCaml [int] payloads — the runtime
    counterpart of {!Armb_core.Pilot} (Algorithms 3 & 4 of the paper).

    The sender piggybacks "a new message is here" on the message word
    itself: payloads are shuffled with a pseudo-random pool so
    consecutive equal messages still change the stored word; the rare
    residual collision falls back to toggling a separate flag word.
    One [Atomic.set] of an immediate [int] is a single-copy-atomic
    store in OCaml, which is all the mechanism requires.  A {!cell} is
    the one native Pilot channel: every native Pilot user sends and
    receives through it. *)

type sender

type receiver

val make_pool : ?size:int -> seed:int -> unit -> int array

val sender : int array -> sender

val receiver : int array -> receiver

type write_op = Write_data of int | Toggle_flag

val encode : sender -> int -> write_op
(** Exactly one store (to the data word or the flag word) must follow. *)

val try_decode : receiver -> data:int -> flag:int -> int option
(** [Some msg] consumes one message; sender and receiver advance in
    lock-step (single-producer single-consumer per channel). *)

(** {2 One channel over atomics} *)

type cell = private {
  data : int Atomic.t;
  flag : int Atomic.t;  (** the collision fallback *)
  tx : sender;  (** the sending domain's codec state *)
  rx : receiver;  (** the receiving domain's codec state *)
}
(** A single-producer single-consumer channel; the producer must not send
    again before the consumer has received. *)

val cell : int array -> cell

val send : cell -> int -> bool
(** Store the shuffled word; on a collision toggle the flag instead and
    return [true]. *)

val poll : cell -> int option
(** Read the data word, then the flag, then decode. *)

val recv : cell -> int
(** [poll] under {!Backoff.poll} until a message arrives. *)
