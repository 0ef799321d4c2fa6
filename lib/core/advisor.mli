(** Executable form of the paper's Table 3: given which accesses must be
    ordered, suggest order-preserving approaches from cheapest to most
    expensive, with the paper's caveats attached. *)

type from_access =
  | From_load  (** a single preceding load *)
  | From_store  (** preceding store(s) *)
  | From_any  (** both loads and stores precede *)

type to_access =
  | To_load  (** one later load *)
  | To_loads  (** several later loads (or loads and stores) *)
  | To_store  (** one later store *)
  | To_stores  (** several later stores *)
  | To_any

type suggestion = {
  approach : Ordering.t;
  rank : int;  (** 0 = preferred *)
  caveat : string option;
}

val suggest : from_:from_access -> to_:to_access -> suggestion list
(** Ordered list, cheapest first.  Every returned approach is
    architecturally sufficient for the requested ordering. *)

val best : from_:from_access -> to_:to_access -> Ordering.t

val sufficient : Ordering.t -> from_:from_access -> to_:to_access -> bool
(** Architectural sufficiency check (used to cross-validate the table
    against {!Ordering} predicates and in tests). *)

val all_from : from_access list
val all_to : to_access list
val from_to_string : from_access -> string
val to_to_string : to_access -> string
