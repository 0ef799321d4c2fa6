module Lang = Armb_litmus.Lang
module AM = Armb_core.Abstracted_model
module RC = Armb_platform.Run_config
module Sim = Armb_litmus.Sim_runner
module Spsc = Armb_sync.Spsc_ring

type spec =
  | Litmus of Lang.test
  | Check of Lang.test
  | Model of {
      mem_ops : AM.mem_ops;
      approach : Armb_core.Ordering.t;
      location : AM.location;
      nops : int;
      iters : int;
    }
  | Ring of { combo : string; messages : int }
  | Fuzz of { tests : int }
  | Fix of { test : Lang.test; max_edits : int; budget : int }
  | Perturb of { test : Lang.test; intensities : float list; plan_seeds : int list }
  | Opt of {
      program : Armb_litmus.Cfg.program;
      algorithm : Armb_opt.Optimizer.algorithm;
      unroll : int;
    }

type t = { spec : spec; rc : RC.t; fault : float }

type result = { text : string; events : int; cycles : int }

let kind t =
  match t.spec with
  | Litmus _ -> "litmus"
  | Check _ -> "check"
  | Model _ -> "model"
  | Ring _ -> "ring"
  | Fuzz _ -> "fuzz"
  | Fix _ -> "fix"
  | Perturb _ -> "perturb"
  | Opt _ -> "opt"

let mem_ops_tag = function
  | AM.No_mem -> "no-mem"
  | AM.Store_store -> "st-st"
  | AM.Load_store -> "ld-st"
  | AM.Load_load -> "ld-ld"

let location_tag = function AM.Loc1 -> 1 | AM.Loc2 -> 2

let at_least field limit v =
  if v < limit then
    invalid_arg (Printf.sprintf "Job: %s must be at least %d (got %d)" field limit v)

let cores (cfg : Armb_cpu.Config.t) = Armb_mem.Topology.num_cores cfg.topo

(* The simulator runs each thread of a test on its own core of [cfg]. *)
let fits_cores ?(note = "") test (cfg : Armb_cpu.Config.t) =
  let threads = List.length test.Lang.threads and n = cores cfg in
  if threads > n then
    invalid_arg
      (Printf.sprintf "Job: the test has %d threads but %s has %d cores%s" threads cfg.name n
         note)

(* A fix is costed on every platform ({!Armb_synth.Cost.measure} runs
   on [Platform.all]), so its test must fit the one with fewest cores. *)
let smallest_platform =
  List.fold_left
    (fun a b -> if cores b < cores a then b else a)
    (List.hd Armb_platform.Platform.all) Armb_platform.Platform.all

(* The abstracted-model spec a model job runs: its counts are checked
   first, each by name, then the combination. *)
let model_spec (rc : RC.t) ~mem_ops ~approach ~location ~nops ~iters =
  at_least "iters" 1 iters;
  at_least "nops" 0 nops;
  let spec =
    { (AM.default_spec rc.cfg) with cores = rc.cores; mem_ops; approach; location; nops; iters }
  in
  if not (AM.valid spec) then
    invalid_arg (Printf.sprintf "Job: invalid model combination %s" (AM.label spec));
  spec

(* A float key coordinate as [Printf.sprintf "%.6f"] prints it: the same
   C conversion, called without interpreting a format at run time. *)
external format_float : string -> float -> string = "caml_format_float"

(* The fault plan is reconstructed from (intensity, rc.seed) at run
   time, so the key carries only the intensity — the seed is already a
   key component.  The key text is written straight into one buffer. *)
let key t =
  let b = Buffer.create 1024 in
  let str s = Buffer.add_string b s and chr c = Buffer.add_char b c in
  let int n = Key.add_int b n in
  let fixed6 f = str (format_float "%.6f" f) in
  let sep_list add = List.iteri (fun i x -> if i > 0 then chr ','; add x) in
  (match t.spec with
  | Litmus test ->
    fits_cores test t.rc.cfg;
    str "litmus\n";
    str (Key.canonical_test test)
  | Check test ->
    fits_cores test t.rc.cfg;
    str "check\n";
    str (Key.canonical_test test)
  | Model { mem_ops; approach; location; nops; iters } ->
    (* validate the spec now so a job that cannot run fails at submit *)
    ignore (model_spec t.rc ~mem_ops ~approach ~location ~nops ~iters);
    str "model|";
    str (mem_ops_tag mem_ops);
    chr '|';
    str (Armb_core.Ordering.to_string approach);
    chr '|';
    int (location_tag location);
    chr '|';
    int nops;
    chr '|';
    int iters;
    chr '\n'
  | Ring { combo; messages } ->
    (* validate the combo name and count now so a job that cannot run fails at submit *)
    ignore (Spsc.combo combo);
    at_least "messages" 1 messages;
    str "ring|";
    str combo;
    chr '|';
    int messages;
    chr '\n'
  | Fuzz { tests } ->
    at_least "tests" 0 tests;
    str "fuzz|";
    int tests;
    chr '\n'
  | Fix { test; max_edits; budget } ->
    (* validate the search limits and the test's size now so a job that
       cannot search or be costed fails at submit *)
    Armb_synth.Search.check_limits ~max_edits ~budget ();
    fits_cores test smallest_platform ~note:" (a fix is costed on every platform)";
    str "fix|";
    int max_edits;
    chr '|';
    int budget;
    chr '\n';
    str (Key.canonical_test test)
  | Perturb { test; intensities; plan_seeds } ->
    fits_cores test t.rc.cfg;
    str "perturb|";
    sep_list fixed6 intensities;
    chr '|';
    sep_list int plan_seeds;
    chr '\n';
    str (Key.canonical_test test)
  | Opt { program; algorithm; unroll } ->
    (* validate unroll now so a job that cannot run fails at submit *)
    at_least "unroll" 1 unroll;
    str "opt|";
    str (Armb_opt.Optimizer.algorithm_name algorithm);
    chr '|';
    int unroll;
    chr '\n';
    str (Key.canonical_program program));
  let a, bcore = t.rc.cores in
  chr '@';
  str t.rc.cfg.Armb_cpu.Config.name;
  chr '|';
  int a;
  chr ',';
  int bcore;
  str "|seed=";
  int t.rc.seed;
  str "|trials=";
  int t.rc.trials;
  str "|fault=";
  fixed6 t.fault;
  Key.digest (Buffer.contents b)

let fault_plan t =
  if t.fault <= 0.0 then None
  else
    Some (Armb_fault.Plan.of_intensity ~seed:t.rc.seed t.fault)

let run t =
  let rc = t.rc in
  let fault = fault_plan t in
  match t.spec with
  | Litmus test ->
    let r = Sim.run ~cfg:rc.cfg ~trials:rc.trials ~seed:rc.seed ?fault test in
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "%s witnessed=%b\n" test.Lang.name r.Sim.interesting_witnessed);
    List.iter
      (fun (o, n) -> Buffer.add_string b (Printf.sprintf "  %d %s\n" n o))
      r.Sim.outcomes;
    { text = Buffer.contents b; events = r.Sim.events; cycles = r.Sim.cycles }
  | Check test ->
    let base, stripped =
      Sim.check_test ~cfg:rc.cfg ~trials:rc.trials ~seed:rc.seed ?fault test
    in
    let row = Sim.check_row_of test ~base ~stripped in
    let events =
      base.Sim.events
      + match stripped with Some r -> r.Sim.events | None -> 0
    in
    let cycles =
      base.Sim.cycles
      + match stripped with Some r -> r.Sim.cycles | None -> 0
    in
    { text = Format.asprintf "%a\n" Sim.pp_check_row row; events; cycles }
  | Model { mem_ops; approach; location; nops; iters } ->
    let spec = model_spec rc ~mem_ops ~approach ~location ~nops ~iters in
    let cycles, events = AM.run_stats spec in
    let a, b = rc.cores in
    {
      text =
        Printf.sprintf "%s %s (%d,%d) nops=%d cycles=%d\n" (mem_ops_tag mem_ops)
          (Armb_core.Ordering.to_string approach) a b nops cycles;
      events;
      cycles;
    }
  | Ring { combo; messages } ->
    let spec =
      { (Spsc.default_spec rc.cfg ~cores:rc.cores) with
        messages;
        barriers = Spsc.combo combo;
        fault;
      }
    in
    let r = Spsc.verified_run spec in
    {
      text =
        Format.asprintf "%s cycles=%d %a\n" combo r.Spsc.cycles Armb_mem.Memsys.pp_counters
          r.Spsc.lines_touched;
      events = 0;
      cycles = r.Spsc.cycles;
    }
  | Fuzz { tests } ->
    let r =
      Armb_litmus.Fuzz.run ~cfg:rc.cfg ?fault ~tests ~trials_per_test:rc.trials ~seed:rc.seed ()
    in
    {
      text = Format.asprintf "%a@." Armb_litmus.Fuzz.pp_report r;
      events = r.Armb_litmus.Fuzz.events;
      cycles = 0;
    }
  | Fix { test; max_edits; budget } ->
    let o = Armb_synth.Fix.fix ~max_edits ~budget ~trials:rc.trials ~seed:rc.seed test in
    {
      text = Format.asprintf "%a@." Armb_synth.Report.pp_outcome o;
      events = o.Armb_synth.Fix.oracle_calls;
      cycles = 0;
    }
  | Perturb { test; intensities; plan_seeds } ->
    let module P = Armb_litmus.Perturb in
    (* the job-level [fault] knob is ignored here: the sweep itself owns
       the injection (intensities x plan seeds vs a faults-off baseline) *)
    let s =
      P.sweep ~cfg:rc.cfg ~trials:rc.trials ~seed:rc.seed ~intensities
        ~plan_seeds ~tests:[ test ] ()
    in
    let b = Buffer.create 256 in
    List.iter
      (fun row -> Buffer.add_string b (Format.asprintf "%a\n" P.pp_row row))
      s.P.results;
    let drift_total =
      List.fold_left (fun acc r -> acc +. r.P.drift) 0.0 s.P.results
    in
    let delay_total =
      List.fold_left (fun acc r -> acc + r.P.fault_delay) 0 s.P.results
    in
    (* machine-parseable trailer: the soak driver's invariant checker and
       drift accounting key off these two markers *)
    Buffer.add_string b
      (Printf.sprintf "drift-total=%.3f sweep: %s\n" drift_total
         (if s.P.ok then "OK" else "VIOLATIONS"));
    { text = Buffer.contents b; events = delay_total; cycles = 0 }
  | Opt { program; algorithm; unroll } ->
    let module O = Armb_opt.Optimizer in
    let r =
      O.optimize ~algorithm ~unroll ~cost:false ~trials:rc.trials ~seed:rc.seed
        program
    in
    {
      text =
        Printf.sprintf
          "opt %s %s fences %d -> %d removed=%d weakened=%d merged=%d sound=%b reverted=%b\n"
          (O.algorithm_name r.O.algorithm)
          r.O.name r.O.input_fences r.O.output_fences r.O.removed r.O.weakened
          r.O.merged r.O.verdict.Armb_opt.Verify.sound r.O.reverted;
      events = 0;
      cycles = 0;
    }
