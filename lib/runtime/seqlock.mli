(** Native seqlock over OCaml 5 atomics: single writer publishes an
    [int array] snapshot; readers get torn-free copies through the
    sequence-retry protocol.  Every word is a seq_cst atomic, which
    provides the two fences each side needs. *)

type t

val create : words:int -> t

val write : t -> int array -> unit
(** Single writer only. *)

val read : t -> int array
(** Any number of concurrent readers. *)

val writes : t -> int
(** Completed writes (racy snapshot). *)
