(** Native ticket lock over OCaml 5 atomics (Linux-kernel style). *)

type t

val create : unit -> t

val with_lock : t -> (unit -> 'a) -> 'a
(** Exception-safe bracket. *)

val holders_served : t -> int
(** Number of completed acquisitions (racy snapshot). *)
