(** Dynamic happens-before sanitizer over the simulator's event stream.

    Plug {!observer} into [Armb_cpu.Machine.create ?observer] (or a bare
    [Core.make]); after the run, {!findings} reports every same-core
    program-order pair of accesses that no architectural device (barrier,
    acquire/release, dependency, same-address coherence) keeps ordered
    {i and} that sits on a communication cycle through other cores — the
    Shasha/Snir condition under which the reordering is observable.
    Detection is value-agnostic: a racy pair is flagged even on runs
    where the timing model happened to execute it in order. *)

type access = Read | Write | Update

type op = {
  op_core : int;
  op_seq : int;  (** per-core program-order index *)
  op_access : access;
  op_addr : int;  (** word-aligned address *)
  op_issued : int;
  op_completes : int;  (** simulated commit/sample time *)
}

type finding = {
  core : int;  (** core whose unfenced pair this is *)
  first : op;
  second : op;  (** po-later access not ordered after [first] *)
  chain : op list;  (** remote accesses closing the cycle *)
  witnessed : bool;  (** completion order actually inverted this run *)
  fix : string;  (** suggested minimal repair *)
  context : (int * string list) list Lazy.t;
      (** (core, lines) for the last 5 ops of each involved core, up to
          [second] on the pair's own core.  The windows are fixed when
          the finding is made and rendered when forced, so findings do
          not compare with [( = )]; compare {!signature}s instead. *)
}

type t

val create : unit -> t
(** An empty recorder.  Each core records at most 4096 ops: see
    {!observer}. *)

val observer : t -> Armb_cpu.Observe.t
(** The hook to pass to [Machine.create ?observer].  It raises
    [Invalid_argument], naming the core and the 4096 limit, on a
    core's 4097th op: a run longer than that is refused rather than
    checked in part. *)

val findings : t -> finding list
(** Analyse the recorded run.  Findings are deduplicated by
    (core, access kinds, addresses) and sorted by core and program
    order. *)

val signature : finding -> string
(** Stable key for deduplicating findings across trials. *)

val pp_finding : Format.formatter -> finding -> unit
(** Prints the pair, its chain, the fix and the context, forcing
    [context]. *)
