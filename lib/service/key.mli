(** Canonical content-addressed keys for service jobs.

    Two requests must coalesce onto one computation exactly when they
    denote the same computation, so the key must not depend on
    presentation details: test and register {e names}, shared-variable
    names, or the order of [init] bindings.  [canonical_test] produces a
    normal form that is invariant under

    - renaming registers (per thread) and shared variables,
    - permuting the [init] binding list, and
    - dropping/adding explicit [= 0] initial bindings,

    while still separating genuinely different programs: the
    instruction sequences, fences, dependency shapes, initial values,
    model expectations and the {e extensional} behaviour of the outcome
    predicate (evaluated over every WMM-reachable outcome, with renamed
    bindings) all feed the serialization.

    The job key then appends the non-test coordinates that change the
    computation's result: platform, core binding, seed, trial count,
    job kind and parameters, and the fault intensity. *)

val canonical_test : Armb_litmus.Lang.test -> string
(** Name-independent canonical serialization of a litmus test,
    including the predicate fingerprint.  The text of each
    {!Armb_litmus.Catalogue.all} test is computed once, when this
    module is initialised, and returned for that test itself (compared
    with [==]); any other test, a structurally equal copy included, is
    canonicalised afresh (one WMM enumeration), to the same bytes. *)

val canonical_program : Armb_litmus.Cfg.program -> string
(** Structural serialization of a CFG program (blocks, terminators,
    sorted init, expectation flags) for keying [Opt] jobs.  No renaming
    pass and no predicate fingerprint: codec-built programs always carry
    the trivially-false predicate, so structural equality implies
    computational equality; a hand-renamed variant only misses the
    cache, it can never coalesce wrongly. *)

val add_int : Buffer.t -> int -> unit
(** Append [string_of_int n] to the buffer without a format string. *)

val digest : string -> string
(** Hex MD5 of a canonical serialization — the content address. *)
