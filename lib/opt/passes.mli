(** The RPO barrier-merging pass and the over-fencing stress input.

    A fence is modelled as the set of (from-kind, to-kind) ordering
    pairs it enforces.  The sweep turns each fence into a pending
    barrier restricted to its {e alive} pairs (escape analysis on both
    sides), sinks it past accesses its pairs do not mention, and
    materializes it — as the cheapest covering fence — immediately
    before the first access they do mention, merging with other pends
    materializing at the same point.  Fences with no alive pair vanish;
    DSB is pinned (never weakened, sunk or dropped) but absorbs
    whatever is pending at its position.

    Soundness is structural: every emitted fence orders exactly the
    (earlier, later) access pairs its original ordered, so the
    program's outcome set is preserved by construction — and the
    optimizer still re-verifies against the enumerator afterwards. *)

module Lang = Armb_litmus.Lang
module Cfg = Armb_litmus.Cfg

type kind = Ld | St

val cover : (kind * kind) list -> Lang.fence
(** Cheapest fence whose pairs are a superset of the (non-empty)
    needed set: DMB st, then DMB ld, then DMB full. *)

type stats = {
  mutable dead : int;  (** fences dropped: no ordering pair alive *)
  mutable weakened : int;  (** fences re-emitted as a cheaper kind *)
  mutable merged : int;  (** fences absorbed into another emission *)
}

val merge : ?cross_block:bool -> Cfg.program -> Cfg.program * stats
(** One RPO sweep per thread.  With [cross_block] (default true)
    pending barriers follow straight chain edges (unique successor
    whose only predecessor is this block, forward in RPO); without it
    they materialize at the block boundary — the SINGLE_BB flavor. *)

val over_fence : Cfg.program -> Cfg.program
(** DMB full at every instruction boundary of every block; the name
    gains ["+overfenced"]. *)
