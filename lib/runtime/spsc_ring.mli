(** Native single-producer single-consumer ring of ints over OCaml 5
    atomics — the runtime counterpart of the paper's Algorithm 2, and
    the plain-ring stage link of {!Pipeline}.

    OCaml exposes only sequentially-consistent atomics, so the
    counter publication already carries (more than) the DMB st
    ordering; the structure still demonstrates Pilot's other benefit,
    fewer shared cache lines (see {!Pilot_channel}). *)

type t

val create : slots:int -> t
(** [slots] must be a power of two. *)

val try_send : t -> int -> bool

val send : t -> int -> unit
(** Blocking send with exponential backoff. *)

val try_recv : t -> int option

val recv : t -> int

