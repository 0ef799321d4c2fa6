(** Run litmus tests on the timing simulator.

    Unlike the exhaustive {!Enumerate}, this witnesses weak behaviours
    {e dynamically}: reorderings happen (or not) because of store-buffer
    drain timing, cache-line placement and issue overlap in the CPU
    model.  Each trial randomizes initial cache-line placement, thread
    start offsets and inter-instruction padding, and the harness counts
    how often each outcome appears.

    A modelling note: the runner issues both loads of a thread before
    awaiting either, so load-load reordering is visible; it cannot
    speculate past control flow (no branch prediction), so
    control-dependency-based tests are exercised only in their ordered
    form.

    Each call compiles the test once (variables and registers become
    array slots, each thread an array of ops with its barriers
    resolved) and runs every trial on one machine, reset between trials
    ({!Armb_cpu.Machine.reset}).  A trial's outcome is counted under
    its raw values; binding names are rendered, and the test's
    [interesting] predicate asked, once per distinct outcome at the
    end.  Predicates must therefore be pure: a function of the
    bindings it looks up, nothing else. *)

type result = {
  outcomes : (string * int) list;  (** outcome rendering -> occurrence count *)
  interesting_witnessed : bool;
      (** [interesting] holds on at least one distinct outcome *)
  trials : int;
  findings : Armb_check.Sanitizer.finding list;
      (** sanitizer report, deduplicated across trials; empty unless
          [run ~check:true] *)
  events : int;  (** kernel events processed, summed over all trials *)
  cycles : int;
      (** simulated makespan cycles summed over all trials — the
          synthesizer's per-platform cost metric ([cycles / trials] is
          the average end-to-end latency of one run of the test) *)
  fault_digest : int64;
      (** replay witness folding every trial's fault-event digest; [0L]
          unless a fault plan was armed *)
  fault_delay : int;  (** total injected extra cycles across all trials *)
}

val run :
  ?cfg:Armb_cpu.Config.t ->
  ?trials:int ->
  ?seed:int ->
  ?check:bool ->
  ?fault:Armb_fault.Plan.spec ->
  ?observer:Armb_cpu.Observe.t ->
  Lang.test ->
  result
(** Defaults: kunpeng916, 200 trials, seed 42, check off.  With
    [~check:true] every trial runs under the happens-before sanitizer
    ({!Armb_check.Sanitizer}) and [findings] carries the racy pairs.
    [fault] arms the plan on every trial's machine, re-seeded per trial
    ([plan.seed + trial]) so the sweep explores distinct fault schedules
    while remaining a pure function of (plan, seed, trials).
    [observer] receives the {!Armb_cpu.Observe} stream of {e every}
    trial; observing changes no result.  For an inspectable Perfetto
    export pass {!Armb_cpu.Trace.observer} and run one trial ([armb
    trace --test] does).  Raises [Invalid_argument] when given both
    [~check:true] and an [observer]: the check installs its own; and
    when the test has more threads than the platform has cores, naming
    both counts and the platform. *)

(** {2 The trial driver in parts}

    {!run} compiles the test, runs {!simulate} and renders the tally
    into a {!result}.  A caller that runs one test on several platforms
    compiles it once, and a caller that only needs {!cycles} skips the
    rendering: {!Armb_synth.Cost.measure} does both.  There is one trial loop, {!simulate}; only what is done with
    its tally differs. *)

type compiled
(** A test compiled for the simulator: variables and registers as
    slots, each thread an array of ops with its barriers resolved, and
    the outcome layout.  Immutable, so one serves any number of
    {!simulate} calls. *)

val compile : Lang.test -> compiled

type tally
(** What a trial loop counted: the distinct outcomes as raw values, and
    every other {!result} field. *)

val simulate :
  ?cfg:Armb_cpu.Config.t ->
  ?trials:int ->
  ?seed:int ->
  ?check:bool ->
  ?fault:Armb_fault.Plan.spec ->
  ?observer:Armb_cpu.Observe.t ->
  compiled ->
  tally
(** The trial loop of {!run}, with the same arguments and defaults. *)

val cycles : tally -> int
(** The [cycles] field {!run} gives, without rendering outcomes. *)

val consistent_with_model : result -> Lang.test -> bool
(** No witnessed interesting outcome unless the weak model allows it —
    the cross-check property between the two backends. *)

val pp_result : Format.formatter -> result -> unit

(** {2 Sanitizer cross-check}

    The sanitizer's own acceptance harness: every catalogue test whose
    weak outcome is forbidden must come out clean, and must be flagged
    again once its ordering devices (fences, acquire/release,
    dependencies) are stripped; racy-by-design tests must be flagged as
    they stand.

    The [strip_order]/[has_order_devices] aliases deprecated in PR 4
    are gone — use {!Mutate.strip_order} / {!Mutate.has_order_devices}. *)

type check_row = {
  test_name : string;
  forbidden : bool;  (** weak outcome forbidden ([not expect_wmm]) *)
  base_findings : int;
  stripped_findings : int option;  (** [None] when nothing to strip *)
  row_ok : bool;
}

val check_test :
  ?cfg:Armb_cpu.Config.t ->
  ?trials:int ->
  ?seed:int ->
  ?fault:Armb_fault.Plan.spec ->
  Lang.test ->
  result * result option
(** Run a test under the sanitizer, plus its stripped variant when it
    has ordering devices.  Default 50 trials. *)

val check_row_of : Lang.test -> base:result -> stripped:result option -> check_row
(** Judge one test from its {!check_test} results — the pure per-test
    verdict {!cross_check} folds over the catalogue (and the service
    engine's "check" job uses directly). *)

val cross_check :
  ?cfg:Armb_cpu.Config.t ->
  ?trials:int ->
  ?seed:int ->
  ?fault:Armb_fault.Plan.spec ->
  unit ->
  check_row list * bool
(** Apply {!check_test} to the whole {!Catalogue} and judge each row;
    the boolean is the conjunction. *)

val pp_check_row : Format.formatter -> check_row -> unit
