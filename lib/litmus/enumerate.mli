(** Exhaustive operational exploration of a litmus test's outcomes under
    either a weak ARM-style model or TSO.

    The model is a multi-copy-atomic "out-of-order perform" machine
    (in the spirit of Pulte et al.'s simplified ARMv8 operational
    model): there is one global memory; at each step any thread may
    perform any of its not-yet-performed memory operations whose
    program-order predecessors that {e must} stay ordered have already
    performed.  The must-stay-ordered relation encodes coherence
    (same-address program order), dependencies, acquire/release, and
    fences — and, for TSO, everything except store-to-later-load.  An
    access that reads a register also waits for the first load of its
    thread that writes that register, wherever that load sits in program
    order; a register no load writes reads 0.

    Each call compiles the test once (per-access ordering bitmasks,
    array-slot variables and registers) and explores its states depth
    first in place, visiting each state once.  A thread may hold at most
    [Sys.int_size] memory operations (63 on 64-bit hosts) and any number
    of fences: its performed set is one [int] mask.  The state space
    itself is not bounded, so keep tests small.

    The compiled form is also exposed for callers that ask about many
    value-neutral variants of one test (the repair search): fences,
    acquire/release flags and address dependencies change only the
    {e need} masks — which earlier accesses of its thread each access
    waits for — so a variant is one [int array] of masks over the base
    test's accesses.  {!witness} returns the op order of an execution
    that reaches the forbidden outcome, and {!replays} checks in one
    linear pass whether that same execution exists under other masks. *)

type model = Wmm | Tso

type outcome = (string * int64) list
(** Sorted binding list: ["thread:reg" -> value] for every register,
    plus ["mem:var" -> value] for each shared variable's final value. *)

val enumerate : model -> Lang.test -> outcome list
(** All reachable final outcomes, sorted and de-duplicated.
    @raise Invalid_argument naming the thread and its count when a
    thread has more than [Sys.int_size] memory operations. *)

val allows : model -> Lang.test -> bool
(** Is the test's [interesting] predicate satisfiable under the model?
    Stops at the first final state whose outcome the predicate accepts.
    @raise Invalid_argument as {!enumerate}. *)

type compiled
(** A test compiled once under one model: its accesses in a fixed order
    (by thread, in program order), each with its need mask, plus the
    test's [interesting] predicate. *)

val compile : model -> Lang.test -> compiled
(** @raise Invalid_argument as {!enumerate}. *)

val outcome_names : compiled -> string list
(** The names every outcome of the test binds, sorted: each shared
    variable as ["mem:var"] and each register some load writes as
    ["thread:reg"]. *)

val fold_finals : compiled -> (int64 array -> 'a -> 'a) -> 'a -> 'a
(** [fold_finals c f init] folds [f] over the reachable final states,
    each once, in depth-first order — the states {!enumerate} turns into
    outcomes.  The array holds each of {!outcome_names}' final value, in
    that order, and is reused from one state to the next: copy what you
    keep.  Distinct final states bind distinct values. *)

val needs : compiled -> int array
(** A copy of the need masks, one per access in the compiled order: bit
    [i] of an access's mask is set when the [i]-th access of its thread
    must perform first. *)

val needs_of : compiled -> Lang.test -> int array
(** [needs_of base t] compiles [t] under [base]'s model and returns its
    need masks, which then apply to [base]'s accesses.
    @raise Invalid_argument when [t]'s accesses, cells or outcome names
    differ from [base]'s in anything but the need masks — [t] must be
    [base]'s test with value-neutral ordering edits only. *)

val witness : compiled -> int array -> int array option
(** [witness c need] searches [c]'s executions under the masks [need]
    (depth first, as {!allows}) and returns the op order of the first
    one whose final outcome the predicate accepts: element [i] is the
    index, in the compiled order, of the access performed at step [i].
    [None] when the forbidden outcome is unreachable. *)

val replays : compiled -> int array -> int array -> bool
(** [replays c need order]: does every step of the execution [order]
    (from {!witness} on [c], under any masks) still find the accesses
    its need mask in [need] asks for performed?  If so, that execution
    exists under [need] too and ends in the same cells, so
    [witness c need] would find the forbidden outcome reachable.  One
    pass over [order]; no search. *)

val outcome_to_string : outcome -> string

val verify_expectations : Lang.test -> (bool * string)
(** Check [expect_tso]/[expect_wmm] against the enumerator; returns
    (ok, detail). *)
