(** The optimizer's re-verification loop.

    Loop-free programs: exact — {!Armb_litmus.Cfg.reachable} enumerates
    every path of a DAG, so soundness is bit-identical WMM outcome-set
    equality.  Loopy programs: both sides are compared at the same
    unroll bound (reorder-bounded model checking), and the happens-
    before sanitizer additionally runs over the longest slices of both
    — every racy pair the optimized program exhibits must already be
    present in the input. *)

module Cfg = Armb_litmus.Cfg

type verdict = {
  sound : bool;
  loop_free : bool;
  oracle : string;  (** which oracle produced the verdict *)
  detail : string;  (** human-readable evidence on failure *)
}

val loop_free : Cfg.program -> bool

val longest_slice_indices : ?unroll:int -> int -> Cfg.program -> int list
(** Indices (into {!Cfg.slices}) of the [n] longest slices — stable
    across fence edits, which never change the path structure. *)

val equivalent : ?unroll:int -> Cfg.program -> Cfg.program -> verdict
(** [equivalent original optimized].  Default unroll 2; the sanitizer
    runs 25 trials at seed 11. *)
