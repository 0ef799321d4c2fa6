(** The run parameters every front end keeps re-threading — platform
    model, the two cores an experiment binds to, RNG seed and trial
    count — as one validated record, so the CLI, the bench driver and
    the tests stop passing positional tuples around and cannot disagree
    about defaults. *)

type t = {
  cfg : Armb_cpu.Config.t;  (** calibrated platform model *)
  cores : int * int;  (** cores the two communicating threads bind to *)
  seed : int;  (** base RNG seed (fault plans, fuzzing, pools) *)
  trials : int;  (** simulator trials per litmus experiment *)
}

val default_cores : Armb_cpu.Config.t -> int * int
(** Core 0 paired with the first core of the far half of the machine —
    the cross-chip placement the paper's figures default to. *)

val make : ?cores:int * int -> ?seed:int -> ?trials:int -> Armb_cpu.Config.t -> t
(** Validates against the platform topology: both cores in range and
    distinct, [seed >= 0], [trials > 0].  Raises [Invalid_argument]
    otherwise.  [cores] defaults to {!default_cores}, [seed] to 42,
    [trials] to 300. *)

val core_list : t -> int list
(** The two bound cores as a list (for multi-core harness specs). *)

val pp : Format.formatter -> t -> unit
