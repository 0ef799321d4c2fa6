(** Control-flow extension of the micro-op DSL: labeled basic blocks,
    conditional branches on loaded registers, and back-edges (loops).

    A {!program} generalizes {!Lang.test}: each thread is a small CFG
    instead of a straight line.  Straight-line programs round-trip
    through {!of_test}/{!lower} unchanged, so every existing consumer
    (enumerator, sanitizer, timing simulator, [armb fix]) works on the
    loop-free fragment for free.  Programs with branches or loops are
    given semantics by bounded unrolling: {!slices} enumerates the
    acyclic paths through each thread (each block entered at most
    [unroll] times per path), flattens them to straight-line
    {!Lang.test}s with SSA-ish register versioning and recorded branch
    constraints, and {!reachable} is the union over feasible slices of
    the enumerator's outcomes projected back onto the program's base
    registers — the reorder-bounded under-approximation that serves as
    the optimizer's soundness oracle. *)

type label = string

type terminator =
  | Goto of label
  | Branch of { reg : Lang.reg; if_nonzero : label; if_zero : label }
      (** branch on the last loaded value of [reg]; induces a control
          dependency to every later store on the taken path *)
  | Return

type block = { label : label; body : Lang.instr list; term : terminator }

type thread_cfg = { entry : label; blocks : block list }

type program = {
  name : string;
  description : string;
  init : (string * int64) list;
  threads : thread_cfg list;
  interesting : (string -> int64) -> bool;
      (** over base register names (["thread:reg"]) and ["mem:var"],
          exactly as in {!Lang.test} *)
  expect_tso : bool;
  expect_wmm : bool;
}

(** {2 Structure} *)

val single_label : label
(** The block label used by {!of_thread} ("b0"). *)

val block : thread_cfg -> label -> block option
val block_exn : thread_cfg -> label -> block
val successors : terminator -> label list

val validate : program -> (unit, string) result
(** Unique labels, entry present, every jump target defined. *)

val reachable_blocks : thread_cfg -> block list
(** Blocks reachable from the entry, in DFS order (nonzero side first).
    Analyses and lowerings ignore unreachable blocks. *)

val has_loop : thread_cfg -> bool

val fence_count : program -> int
(** Fences in reachable blocks across all threads. *)

val thread_regs : thread_cfg -> Lang.reg list
(** Base registers written by loads in reachable blocks, sorted. *)

val vars : program -> string list
(** Shared variables: init plus any referenced in reachable blocks. *)

(** {2 Lifting and lowering} *)

val of_thread : Lang.thread -> thread_cfg
val of_test : Lang.test -> program

val straight_line : thread_cfg -> Lang.thread option
(** [Some instrs] when following Goto edges from the entry meets no
    branch and no repeated block; [None] otherwise. *)

val lower : program -> Lang.test option
(** [Some t] iff every thread is straight-line.  [lower (of_test t) =
    Some t] for all [t]. *)

(** {2 Bounded-unroll path semantics} *)

type path = {
  instrs : Lang.instr list;  (** flattened, registers versioned *)
  constraints : (Lang.reg * bool) list;
      (** (versioned reg, must-be-nonzero) recorded at each branch *)
  last_version : (Lang.reg * Lang.reg) list;  (** base -> last version *)
}

val thread_paths : ?unroll:int -> thread_cfg -> path list
(** All paths entering each block at most [unroll] (default 2) times.
    Registers are versioned on reassignment (first write keeps the base
    name, the k-th becomes ["r#k"]), so each version is written at most
    once and a branch constraint pins the exact value the branch saw.
    Stores after a branch gain the branch register as an address
    dependency — the DSL's encoding of ARM's branch-to-store control
    dependency.  Paths longer than the enumerator can index are
    dropped. *)

type slice = { threads : path list }

val slices : ?unroll:int -> program -> slice list
(** Cartesian product of per-thread paths.  Raises [Invalid_argument]
    beyond 512 combinations or when a thread has no in-bound path. *)

val project : program -> slice -> Enumerate.outcome -> Enumerate.outcome
(** Fold a slice outcome onto the program universe: base registers get
    their path-final version's value (0 if never written), every
    program variable gets its final (or initial) value. *)

val reachable : ?unroll:int -> Enumerate.model -> program -> Enumerate.outcome list
(** Sorted, de-duplicated union over all slices of feasible, projected
    enumerator outcomes.  On a loop-free program this is exact; with
    loops it under-approximates by bounding iterations — but comparing
    two programs at the same bound is an apples-to-apples check. *)

val allows : ?unroll:int -> Enumerate.model -> program -> bool
(** Is [interesting] satisfied by some reachable outcome? *)

val slice_test : name:string -> program -> slice -> Lang.test
(** The slice as a self-contained straight-line test: [interesting]
    holds only on feasible outcomes satisfying the program predicate
    (after projection), and expectations are recomputed per slice via
    the enumerator. *)

val verify_expectations : ?unroll:int -> program -> bool * string
(** Check [expect_tso]/[expect_wmm] against {!allows}. *)

(** {2 Construction helpers and printing} *)

val blk : label -> ?term:terminator -> Lang.instr list -> block
(** [term] defaults to [Return]. *)

val goto : label -> terminator
val branch : Lang.reg -> nonzero:label -> zero:label -> terminator

val cfg : ?entry:label -> block list -> thread_cfg
(** [entry] defaults to {!single_label}.  Raises [Invalid_argument] on
    an invalid thread (duplicate labels, missing targets). *)

val pp_terminator : Format.formatter -> terminator -> unit
val pp_thread : Format.formatter -> thread_cfg -> unit
val pp_program : Format.formatter -> program -> unit
