(** Structure toolkit over one thread's CFG: predecessors, reverse
    postorder, and the escape analysis the barrier passes consume. *)

module Cfg = Armb_litmus.Cfg

val predecessors : Cfg.thread_cfg -> Cfg.label -> Cfg.label list
(** Predecessors among reachable blocks. *)

val rpo : Cfg.thread_cfg -> Cfg.label list
(** Reverse postorder of the reachable blocks from the entry. *)

(** {2 Escape analysis}

    Which access kinds may execute before / after each block — i.e. on
    which side of a program point a value can still become visible to
    (or have been observed from) another thread.  A fence ordering pair
    whose from-kind never precedes it or whose to-kind never follows it
    is vacuous. *)

type kinds = { loads : bool; stores : bool }

val no_kinds : kinds
val union : kinds -> kinds -> kinds
val kind_of : Armb_litmus.Lang.instr -> kinds

type escape = {
  before_in : Cfg.label -> kinds;
      (** kinds that may execute before entering the block, on some
          path from the entry (around loops too) *)
  after_out : Cfg.label -> kinds;
      (** kinds that may still execute after leaving the block *)
}

val escape : Cfg.thread_cfg -> escape
(** May-dataflow fixpoints over the reachable blocks. *)
