module Lang = Armb_litmus.Lang
module AM = Armb_core.Abstracted_model
module Config = Armb_cpu.Config
module Sim = Armb_litmus.Sim_runner
module Spsc = Armb_sync.Spsc_ring

type t =
  | Litmus of { test : Lang.test; cfg : Config.t; seed : int; trials : int; fault : float }
  | Check of { test : Lang.test; cfg : Config.t; seed : int; trials : int; fault : float }
  | Model of {
      mem_ops : AM.mem_ops;
      approach : Armb_core.Ordering.t;
      location : AM.location;
      nops : int;
      iters : int;
      cfg : Config.t;
      cores : int * int;
      seed : int;
    }
  | Ring of {
      combo : string;
      messages : int;
      cfg : Config.t;
      cores : int * int;
      seed : int;
      fault : float;
    }
  | Fuzz of { tests : int; cfg : Config.t; seed : int; trials : int; fault : float }
  | Fix of { test : Lang.test; max_edits : int; budget : int; seed : int; trials : int }
  | Perturb of {
      test : Lang.test;
      intensities : float list;
      plan_seeds : int list;
      cfg : Config.t;
      seed : int;
      trials : int;
    }
  | Opt of {
      program : Armb_litmus.Cfg.program;
      algorithm : Armb_opt.Optimizer.algorithm;
      unroll : int;
      seed : int;
    }

type result = { text : string; events : int; cycles : int }

let kind = function
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

let cores (cfg : Config.t) = Armb_mem.Topology.num_cores cfg.topo

(* The simulator runs each thread of a test on its own core of [cfg]. *)
let fits_cores ?(note = "") test (cfg : Config.t) =
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
let model_spec ~cfg ~cores ~mem_ops ~approach ~location ~nops ~iters =
  at_least "iters" 1 iters;
  at_least "nops" 0 nops;
  let spec = { (AM.default_spec cfg) with cores; mem_ops; approach; location; nops; iters } in
  if not (AM.valid spec) then
    invalid_arg (Printf.sprintf "Job: invalid model combination %s" (AM.label spec));
  spec

(* A float key coordinate as [Printf.sprintf "%.6f"] prints it: the same
   C conversion, called without interpreting a format at run time. *)
external format_float : string -> float -> string = "caml_format_float"

(* The key text is written straight into one buffer: a kind's
   parameters, then the run settings its record keeps, in the order
   platform, cores, seed, trials, fault. *)
let key t =
  let b = Buffer.create 1024 in
  let str s = Buffer.add_string b s and chr c = Buffer.add_char b c in
  let int n = Key.add_int b n in
  let fixed6 f = str (format_float "%.6f" f) in
  let sep_list add = List.iteri (fun i x -> if i > 0 then chr ','; add x) in
  let settings ?cfg ?cores ~seed ?trials ?fault () =
    Option.iter (fun (cfg : Config.t) -> chr '@'; str cfg.name) cfg;
    Option.iter (fun (a, c) -> chr '|'; int a; chr ','; int c) cores;
    str "|seed=";
    int seed;
    Option.iter (fun n -> str "|trials="; int n) trials;
    Option.iter (fun f -> str "|fault="; fixed6 f) fault
  in
  (match t with
  | Litmus { test; cfg; seed; trials; fault } ->
    fits_cores test cfg;
    str "litmus\n";
    str (Key.canonical_test test);
    settings ~cfg ~seed ~trials ~fault ()
  | Check { test; cfg; seed; trials; fault } ->
    fits_cores test cfg;
    str "check\n";
    str (Key.canonical_test test);
    settings ~cfg ~seed ~trials ~fault ()
  | Model { mem_ops; approach; location; nops; iters; cfg; cores; seed } ->
    (* validate the spec now so a job that cannot run fails at submit *)
    ignore (model_spec ~cfg ~cores ~mem_ops ~approach ~location ~nops ~iters);
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
    chr '\n';
    settings ~cfg ~cores ~seed ()
  | Ring { combo; messages; cfg; cores; seed; fault } ->
    (* validate the combo name and count now so a job that cannot run fails at submit *)
    ignore (Spsc.combo combo);
    at_least "messages" 1 messages;
    str "ring|";
    str combo;
    chr '|';
    int messages;
    chr '\n';
    settings ~cfg ~cores ~seed ~fault ()
  | Fuzz { tests; cfg; seed; trials; fault } ->
    at_least "tests" 0 tests;
    str "fuzz|";
    int tests;
    chr '\n';
    settings ~cfg ~seed ~trials ~fault ()
  | Fix { test; max_edits; budget; seed; trials } ->
    (* validate the search limits and the test's size now so a job that
       cannot search or be costed fails at submit *)
    Armb_synth.Search.check_limits ~max_edits ~budget ();
    fits_cores test smallest_platform ~note:" (a fix is costed on every platform)";
    str "fix|";
    int max_edits;
    chr '|';
    int budget;
    chr '\n';
    str (Key.canonical_test test);
    settings ~seed ~trials ()
  | Perturb { test; intensities; plan_seeds; cfg; seed; trials } ->
    fits_cores test cfg;
    str "perturb|";
    sep_list fixed6 intensities;
    chr '|';
    sep_list int plan_seeds;
    chr '\n';
    str (Key.canonical_test test);
    settings ~cfg ~seed ~trials ()
  | Opt { program; algorithm; unroll; seed } ->
    (* validate unroll now so a job that cannot run fails at submit *)
    at_least "unroll" 1 unroll;
    str "opt|";
    str (Armb_opt.Optimizer.algorithm_name algorithm);
    chr '|';
    int unroll;
    chr '\n';
    str (Key.canonical_program program);
    settings ~seed ());
  Key.digest (Buffer.contents b)

(* The fault plan is rebuilt from (intensity, seed) at run time, so a
   key carries only the intensity: the seed is already in it. *)
let fault_plan ~seed fault =
  if fault <= 0.0 then None else Some (Armb_fault.Plan.of_intensity ~seed fault)

let run = function
  | Litmus { test; cfg; seed; trials; fault } ->
    let r = Sim.run ~cfg ~trials ~seed ?fault:(fault_plan ~seed fault) test in
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "%s witnessed=%b\n" test.Lang.name r.Sim.interesting_witnessed);
    List.iter
      (fun (o, n) -> Buffer.add_string b (Printf.sprintf "  %d %s\n" n o))
      r.Sim.outcomes;
    { text = Buffer.contents b; events = r.Sim.events; cycles = r.Sim.cycles }
  | Check { test; cfg; seed; trials; fault } ->
    let base, stripped =
      Sim.check_test ~cfg ~trials ~seed ?fault:(fault_plan ~seed fault) test
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
  | Model { mem_ops; approach; location; nops; iters; cfg; cores; seed = _ } ->
    (* The model reads no seed.  Its key keeps one because the frozen
       benchmark's serve-cold stream tells requests apart by seed alone
       (perfbench/test's [serve-cold keys are distinct]). *)
    let spec = model_spec ~cfg ~cores ~mem_ops ~approach ~location ~nops ~iters in
    let cycles, events = AM.run_stats spec in
    let a, b = cores in
    {
      text =
        Printf.sprintf "%s %s (%d,%d) nops=%d cycles=%d\n" (mem_ops_tag mem_ops)
          (Armb_core.Ordering.to_string approach) a b nops cycles;
      events;
      cycles;
    }
  | Ring { combo; messages; cfg; cores; seed; fault } ->
    let spec =
      { (Spsc.default_spec cfg ~cores) with
        messages;
        barriers = Spsc.combo combo;
        fault = fault_plan ~seed fault;
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
  | Fuzz { tests; cfg; seed; trials; fault } ->
    let r =
      Armb_litmus.Fuzz.run ~cfg ?fault:(fault_plan ~seed fault) ~tests ~trials_per_test:trials
        ~seed ()
    in
    {
      text = Format.asprintf "%a@." Armb_litmus.Fuzz.pp_report r;
      events = r.Armb_litmus.Fuzz.events;
      cycles = 0;
    }
  | Fix { test; max_edits; budget; seed; trials } ->
    let o = Armb_synth.Fix.fix ~max_edits ~budget ~trials ~seed test in
    {
      text = Format.asprintf "%a@." Armb_synth.Report.pp_outcome o;
      events = o.Armb_synth.Fix.oracle_calls;
      cycles = 0;
    }
  | Perturb { test; intensities; plan_seeds; cfg; seed; trials } ->
    let module P = Armb_litmus.Perturb in
    let s = P.sweep ~cfg ~trials ~seed ~intensities ~plan_seeds ~tests:[ test ] () in
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
  | Opt { program; algorithm; unroll; seed = _ } ->
    let module O = Armb_opt.Optimizer in
    (* With costing off the optimizer reads no seed.  The key keeps one
       for perfbench/test's [serve-cold keys are distinct], as a model
       job's does. *)
    let r = O.optimize ~algorithm ~unroll ~cost:false program in
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
