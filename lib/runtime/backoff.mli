(** Exponential backoff for native spin loops.  [wait] and [poll] are
    the one wait loop every native primitive uses; [once] is for loops
    that also do other work between tries. *)

type t

val create : unit -> t
(** A spin budget of 8 iterations, doubling up to 1024. *)

val once : t -> unit
(** Spin (with [Domain.cpu_relax]) for the current budget and double it,
    up to the cap.  Every call at the cap also gives up the CPU with a
    zero-length [Unix.sleepf], so on a machine with fewer cores than
    runnable domains a spinner cannot starve the domain it waits for.
    ([Thread.yield] would not do: in OCaml 5 it only switches between
    the systhreads of the calling domain.) *)

val reset : t -> unit

val wait : (unit -> bool) -> unit
(** [wait ready] returns once [ready ()] holds, backing off between
    tries.  It tries once before it builds a backoff state, so a wait
    that is already over allocates nothing itself. *)

val poll : (unit -> 'a option) -> 'a
(** [poll f] returns [v] from the first [f ()] that is [Some v], backing
    off between tries; like [wait], it tries once first. *)
