(** Order-preserving approaches compared throughout the paper:
    barrier instructions, the one-way LDAR/STLR pair, and bogus
    dependencies (§2.2). *)

type t =
  | No_barrier
  | Bar of Armb_cpu.Barrier.t
  | Ldar_acquire  (** turn the preceding load into a load-acquire *)
  | Stlr_release  (** turn the following store into a store-release *)
  | Data_dep  (** stored value depends on the loaded value *)
  | Addr_dep  (** following access' address depends on the loaded value *)
  | Ctrl_dep  (** conditional branch on the loaded value (orders load->store only) *)
  | Ctrl_isb  (** control dependency + ISB (orders load->load too) *)

val to_string : t -> string

val named : (string * t) list
(** The stable machine-readable spellings ("dmb-st", "ldar",
    "ctrl-isb", ...) shared by the CLI's [--approach] enum and the
    service's JSON request codec. *)

val of_name : string -> t option
(** Case-insensitive lookup in {!named}. *)

val requires_leading_load : t -> bool
(** The approach only makes sense when the first of the two ordered
    accesses is a load. *)

val requires_trailing_store : t -> bool
(** The approach only makes sense when the second access is a store. *)

val orders_load_load : t -> bool
(** Architecturally sufficient to order a load before a later load. *)

val orders_load_store : t -> bool
val orders_store_store : t -> bool
val orders_store_load : t -> bool

val involves_bus : t -> bool
(** Whether the approach is (typically) implemented with an ACE barrier
    transaction — the axis of Observation 6. *)
