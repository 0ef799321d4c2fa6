(** The paper's six observations as executable predicates.

    Each check runs the relevant abstracted models on the simulator and
    verifies the claimed relationship.  The test suite asserts all six
    hold on the calibrated platforms, turning the paper's qualitative
    claims into regression tests for the model. *)

type verdict = {
  holds : bool;
  detail : string;  (** human-readable evidence (measured numbers) *)
}

val obs1_intrinsic_overhead : Armb_cpu.Config.t -> verdict
(** "The intrinsic overhead of barriers is stable and intuitive":
    with no memory ops, DMB ~ no-barrier, ISB in between, DSB worst,
    and DMB/DSB options indistinguishable. *)

val obs2_location_matters : Armb_cpu.Config.t -> cores:int * int -> verdict
(** Barriers strictly after an RMR (X-1) are significantly more
    expensive than the same barrier away from it (X-2). *)

val obs6_no_bus_wins : Armb_cpu.Config.t -> cores:int * int -> verdict
(** In the load-store model, dependencies / LDAR / DMB ld beat every
    bus-involving approach. *)

val all : unit -> (string * verdict) list
(** Run every check on its canonical platform(s). *)
