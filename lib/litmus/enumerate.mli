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
    itself is not bounded, so keep tests small. *)

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

val outcome_to_string : outcome -> string

val verify_expectations : Lang.test -> (bool * string)
(** Check [expect_tso]/[expect_wmm] against the enumerator; returns
    (ok, detail). *)
