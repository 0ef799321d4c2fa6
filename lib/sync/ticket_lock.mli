(** Simulated ticket lock (after the Linux kernel's implementation),
    with the unlock-path barrier pluggable — the in-place-lock study of
    §5.1/§5.2 (Figure 7(a)).

    Acquire: atomic fetch-add on the next-ticket word, then spin on the
    now-serving word, then an acquire barrier (DMB ld) so critical-
    section accesses cannot hoist above the lock.  Release: the chosen
    barrier, then a plain store bumping now-serving.  When the critical
    section's last access was a remote memory reference, the release
    barrier lands strictly after an RMR — the paper's Observation 2
    cost, measurable by comparing release barriers. *)

type t

val create : Armb_cpu.Machine.t -> t

val acquire : t -> Armb_cpu.Core.t -> unit

val release : ?barrier:Armb_core.Ordering.t -> t -> Armb_cpu.Core.t -> unit
(** [barrier] defaults to [DMB full] ("Normal").  [No_barrier] is the
    unsound reference used by Figure 7(a)'s "Remove barrier after RMR";
    [Stlr_release] releases with STLR. *)

val has_waiters : t -> Armb_cpu.Core.t -> bool
(** Are there tickets beyond the one currently served?  Only meaningful
    when called by the lock holder (used by the cohort lock to decide
    whether to hand off within the node). *)
