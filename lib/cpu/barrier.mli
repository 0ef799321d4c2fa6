(** ARM barrier instructions modelled by the simulator.

    [LDAR]/[STLR] are not listed here because they are memory accesses
    with attached ordering (see {!Core.ldar} and {!Core.stlr});
    dependency-based ordering is expressed in programs through
    {!Core.await} data flow. *)

type access_types =
  | Full  (** any-to-any: [DMB]/[DSB] with no qualifier (sy/ish) *)
  | St  (** store-to-store: [DMB ishst] *)
  | Ld  (** load-to-load/store: [DMB ishld] *)

type t =
  | Dmb of access_types
      (** Data Memory Barrier: orders memory accesses, does not block
          non-memory instructions, may send an ACE {e memory barrier
          transaction}. *)
  | Dsb of access_types
      (** Data Synchronization Barrier: blocks {e all} subsequent
          instructions until prior accesses are observable in the
          domain; sends an ACE {e synchronization barrier transaction}
          to the domain boundary. *)
  | Isb  (** Instruction Synchronization Barrier: pipeline flush. *)

val to_string : t -> string

val orders_loads : t -> bool
(** Does the barrier wait on prior loads? *)

val orders_stores : t -> bool
(** Does the barrier wait on prior stores? *)
