(** A tiny litmus-test language shared by the exhaustive enumerator and
    the timing-simulator runner.

    Registers are named per thread; in outcome predicates they are
    addressed as ["<thread>:<reg>"] (e.g. ["1:r2"]).  Dependencies are
    explicit: a store whose value is [Reg r] is data-dependent on the
    load that wrote [r]; [addr_dep] adds a (bogus) address dependency.
    Control dependency to a store has the same ordering force as a
    dependency here and is expressed with [addr_dep]; control+ISB is
    first-class as the {!fence} [F_isb] (a conditional branch on a prior
    loaded value followed by an ISB, which orders every earlier load
    before everything later — the paper's CTRL+ISB row of Table 3). *)

type reg = string

type value = Const of int64 | Reg of reg

type fence =
  | F_dmb_full
  | F_dmb_st
  | F_dmb_ld
  | F_dsb
  | F_isb
      (** control dependency + ISB: orders prior loads before all later
          accesses (load->load and load->store), never store->anything *)

type instr =
  | Load of { var : string; reg : reg; acquire : bool; addr_dep : reg option }
  | Store of { var : string; v : value; release : bool; addr_dep : reg option }
  | Fence of fence

type thread = instr list

type test = {
  name : string;
  description : string;
  init : (string * int64) list;  (** shared variables and initial values *)
  threads : thread list;
  interesting : (string -> int64) -> bool;
      (** the "weak" outcome predicate over final registers, looked up
          as ["thread:reg"]; unset registers read as 0 *)
  expect_tso : bool;  (** does TSO allow the interesting outcome? *)
  expect_wmm : bool;  (** does ARM's WMM allow it? *)
}

(** {2 Convenience constructors} *)

val ld : ?acquire:bool -> ?addr_dep:reg -> string -> reg -> instr
val st : ?release:bool -> ?addr_dep:reg -> string -> int64 -> instr
val st_reg : ?release:bool -> string -> reg -> instr
val fence : fence -> instr

val vars : test -> string list
(** All shared variables, including ones only referenced by threads. *)

val regs_of_thread : thread -> reg list
(** Registers written by the thread's loads, in program order. *)

val outcome_names : test -> string list
(** The names an outcome of the test binds, sorted: ["mem:<var>"] for
    each of {!vars} and ["<thread>:<reg>"] for each register that
    thread loads — the only names [interesting] can usefully look up. *)

val writes_reg : instr -> reg option
val reads_regs : instr -> reg list
val fence_to_string : fence -> string
val pp_instr : Format.formatter -> instr -> unit
