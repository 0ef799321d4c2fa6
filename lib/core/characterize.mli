(** Sweep drivers that regenerate the characterization figures
    (Figures 2, 3 and 5) as printable tables. *)

val fig2 : Armb_cpu.Config.t -> nop_counts:int list -> iters:int -> Armb_sim.Series.table
(** Intrinsic overhead: the no-memory-ops model with every barrier on
    the critical path.  One row per barrier choice, one column per NOP
    count. *)

val fig3 :
  Armb_cpu.Config.t ->
  cores:int * int ->
  label:string ->
  nop_counts:int list ->
  iters:int ->
  Armb_sim.Series.table
(** Store-store model: rows are "X-1"/"X-2" barrier placements plus
    No Barrier and STLR, columns are NOP counts. *)

val fig5 :
  Armb_cpu.Config.t ->
  cores:int * int ->
  nop_counts:int list ->
  iters:int ->
  Armb_sim.Series.table
(** Load-store model with the full set of approaches including
    dependencies, LDAR and CTRL+ISB. *)

val tipping_point :
  Armb_cpu.Config.t -> cores:int * int -> ?iters:int -> unit -> int option
(** Smallest NOP count (among a geometric sweep) at which DMB full-2's
    throughput reaches No Barrier's within 5% — the Figure 4
    tipping point.  [None] if never reached within the sweep. *)
