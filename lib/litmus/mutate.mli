(** Reusable litmus-test mutations.

    One home for the program surgery that used to live inside
    {!Sim_runner}: stripping ordering devices (the sanitizer's
    cross-check), and the point edits the fence synthesizer
    ([Armb_synth]) uses as its placement vocabulary. *)

val has_order_devices : Lang.test -> bool
(** Does the test contain any fence, acquire/release or dependency
    (address or data)? *)

val has_strippable_devices : keep_values:bool -> Lang.test -> bool
(** Like {!has_order_devices}, but with [~keep_values:true] data
    dependencies (register-valued stores) do not count — they are the
    devices {!strip_order} would preserve. *)

val strip_order : ?keep_values:bool -> Lang.test -> Lang.test
(** Remove ordering devices: fences deleted, acquire/release cleared,
    address dependencies dropped.  With [keep_values:false] (default)
    register-valued stores are made constant, severing data dependencies
    — the sanitizer's "surface the latent race" mode.  With
    [keep_values:true] stores keep their [Reg] values: data dependencies
    survive, so outcome {e values} are unchanged and the stripped test's
    allowed set is a superset of the original's — the property the
    synthesizer's round-trip and the fuzz-repair soak rely on (a bogus
    value-neutral edit can never recreate a severed value flow, so only
    value-neutral devices are stripped for repair).  The name gains a
    ["-stripped"] suffix. *)

(** {2 Point edits}

    The synthesizer's placement vocabulary.  An instruction is addressed
    by (thread, index within the thread), both 0-based.  All edits are
    value-neutral: they add ordering without changing any stored value,
    so outcome predicates keep their meaning.  An out-of-range thread or
    index leaves the test unchanged, and an insert position past the
    thread's end appends to it. *)

val insert_fence : thread:int -> pos:int -> Lang.fence -> Lang.test -> Lang.test
(** Insert a fence before the instruction at [pos]. *)

val set_acquire : thread:int -> idx:int -> Lang.test -> Lang.test
(** Upgrade the load at [idx] to a load-acquire (no-op on non-loads). *)

val set_release : thread:int -> idx:int -> Lang.test -> Lang.test
(** Upgrade the store at [idx] to a store-release (no-op on non-stores). *)

val set_addr_dep : thread:int -> idx:int -> reg:Lang.reg -> Lang.test -> Lang.test
(** Give the access at [idx] a (bogus) address dependency on [reg]. *)

val rename : string -> Lang.test -> Lang.test

val rename_cfg : string -> Cfg.program -> Cfg.program
