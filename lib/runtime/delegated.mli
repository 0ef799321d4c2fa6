(** Data structures protected by a pluggable lock discipline — the
    native counterparts of the paper's Figure 8 benchmarks.

    A [protect] value says how critical sections run: in place under a
    {!Ticket_lock}, migrated through a {!Dsmsynch} combiner, or shipped
    to an {!Ffwd} server.  The structures themselves are deliberately
    plain sequential OCaml — the protection discipline supplies all
    mutual exclusion, exactly as in the paper's methodology. *)

type protect =
  | With_ticket of Ticket_lock.t
  | With_dsmsynch of Dsmsynch.t
  | With_ffwd of Ffwd.t * int  (** server handle and this thread's client slot *)

(** {2 Queue (FIFO) of ints} *)

module Queue_d : sig
  type t

  val create : unit -> t
  val enqueue : t -> protect -> int -> unit
  val dequeue : t -> protect -> int option
  val length : t -> protect -> int
end

(** {2 Stack (LIFO) of ints} *)

module Stack_d : sig
  type t

  val create : unit -> t
  val push : t -> protect -> int -> unit
  val pop : t -> protect -> int option
end

(** {2 Sorted int list (set semantics)} *)

module Sorted_list_d : sig
  type t

  val create : unit -> t
  val mem : t -> protect -> int -> bool
  val insert : t -> protect -> int -> bool
  val remove : t -> protect -> int -> bool
  val length : t -> protect -> int
end

(** {2 Hash table with per-bucket locks} *)

module Hash_d : sig
  type t

  val create : buckets:int -> protects:protect array -> t
  (** [protects] supplies one discipline per bucket (length must equal
      [buckets]). *)

  val mem : t -> int -> bool
  val insert : t -> int -> bool
  val remove : t -> int -> bool
  val length : t -> int
end
