(** Standard litmus tests, including the paper's Table 1 message-passing
    example in its unfenced and correctly-fenced variants. *)

val mp : Lang.test
(** Table 1: message passing with no ordering.  TSO forbids the stale
    read; WMM allows it. *)

val mp_dmb : Lang.test
(** MP with [DMB st] in the producer and [DMB ld] in the consumer:
    forbidden everywhere. *)

val mp_acq_rel : Lang.test
(** MP with STLR/LDAR. *)

val mp_addr_dep : Lang.test
(** MP with an address dependency on the consumer side and [DMB st] in
    the producer. *)

val mp_pilot : Lang.test
(** MP with data and flag packed into one aligned 64-bit word — the
    paper's Pilot optimization (§4): single-copy atomicity replaces the
    barrier, so the stale read is forbidden with no fence at all. *)

val sb : Lang.test
(** Store buffering: both loads may miss both stores — allowed under
    TSO {e and} WMM. *)

val sb_dmb : Lang.test
(** SB with full barriers: forbidden. *)

val lb : Lang.test
(** Load buffering: allowed under WMM, forbidden under TSO. *)

val lb_data_dep : Lang.test
(** LB with data dependencies: forbidden. *)

val wrc : Lang.test
(** Write-to-read causality with dependencies: forbidden on
    multi-copy-atomic ARMv8 (and under TSO). *)

val coherence : Lang.test
(** Same-location accesses stay ordered: the out-of-order read is
    forbidden under every model. *)

val s_test : Lang.test
(** S: write-after-write to one location vs a dependent store —
    forbidden with the data dependency under both models. *)

val r_test : Lang.test
(** R: store-store vs store-load; allowed under WMM without fences. *)

val two_plus_two_w : Lang.test
(** 2+2W: both locations ending with the other thread's first write —
    allowed under WMM, forbidden with DMB st on both sides. *)

val two_plus_two_w_dmb : Lang.test

val iriw_addr : Lang.test
(** IRIW with address dependencies on both readers: forbidden on
    multi-copy-atomic ARMv8 — the property Pulte et al. formalized and
    the paper's footnote 2 relies on. *)

val all : Lang.test list

val find : string -> Lang.test option
(** The [all] test with this name, compared case-insensitively: the one
    name lookup behind the CLI's NAME arguments and the service's
    ["test"] field. *)

(** {2 Control-flow tests}

    Loop- and branch-shaped programs for the fence optimizer, kept out
    of [all] (whose behavior is pinned by the golden digests). *)

val spin_mp : Cfg.program
(** MP with a spin-wait consumer: the poll loop's branch is only a
    control dependency to the data {e load}, so the stale read is still
    allowed. *)

val spin_mp_dmb : Cfg.program
(** Spin-wait MP with DMB ld between loop exit and data read: forbidden. *)

val flag_poll_acquire : Cfg.program
(** Spin-wait MP polling with LDAR: forbidden. *)

val spin_mp_full : Cfg.program
(** Spin-wait MP over-fenced with DMB full on both sides — the
    optimizer's canonical weakening target (full -> st / ld). *)

val cond_pub : Cfg.program
(** Diamond-shaped MP: data read only on the nonzero arm; ctrl dep to a
    load does not order, so still allowed. *)

val cond_pub_isb : Cfg.program
(** Diamond-shaped MP with ISB heading the read arm: forbidden. *)

val cfg_all : Cfg.program list

val cfg_slices : ?unroll:int -> unit -> Lang.test list
(** Bounded-unroll straight-line slices of every [cfg_all] program
    ({!Cfg.slice_test}), named ["<test>@s<i>"].  No command runs them;
    tests and the [sanitizer-findings] golden do. *)
