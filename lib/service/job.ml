module Lang = Armb_litmus.Lang
module AM = Armb_core.Abstracted_model
module RC = Armb_platform.Run_config
module Sim = Armb_litmus.Sim_runner
module Spsc = Armb_sync.Spsc_ring

type spec =
  | Litmus of Lang.test
  | Check of Lang.test
  | Model of {
      label : string;
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
  | Opt of { program : Armb_litmus.Cfg.program; algorithm : string; unroll : int }

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

let label t =
  match t.spec with
  | Litmus test -> "litmus " ^ test.Lang.name
  | Check test -> "check " ^ test.Lang.name
  | Model { label; mem_ops; nops; _ } ->
    Printf.sprintf "model %s %s nops=%d" (mem_ops_tag mem_ops) label nops
  | Ring { combo; messages } -> Printf.sprintf "ring %s n=%d" combo messages
  | Fuzz { tests } -> Printf.sprintf "fuzz tests=%d" tests
  | Fix { test; _ } -> "fix " ^ test.Lang.name
  | Perturb { test; intensities; plan_seeds } ->
    Printf.sprintf "perturb %s x%d" test.Lang.name
      (List.length intensities * List.length plan_seeds)
  | Opt { program; algorithm; _ } ->
    Printf.sprintf "opt %s %s" algorithm program.Armb_litmus.Cfg.name

let at_least field limit v =
  if v < limit then
    invalid_arg (Printf.sprintf "Job: %s must be at least %d (got %d)" field limit v)

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

(* The fault plan is reconstructed from (intensity, rc.seed) at run
   time, so the key carries only the intensity — the seed is already a
   key component. *)
let key t =
  let b = Buffer.create 1024 in
  (match t.spec with
  | Litmus test ->
    Buffer.add_string b "litmus\n";
    Buffer.add_string b (Key.canonical_test test)
  | Check test ->
    Buffer.add_string b "check\n";
    Buffer.add_string b (Key.canonical_test test)
  | Model { mem_ops; approach; location; nops; iters; label = _ } ->
    (* validate the spec now so a job that cannot run fails at submit *)
    ignore (model_spec t.rc ~mem_ops ~approach ~location ~nops ~iters);
    Buffer.add_string b
      (Printf.sprintf "model|%s|%s|%d|%d|%d\n" (mem_ops_tag mem_ops)
         (Armb_core.Ordering.to_string approach)
         (location_tag location) nops iters)
  | Ring { combo; messages } ->
    (* validate the combo name and count now so a job that cannot run fails at submit *)
    ignore (Spsc.combo combo);
    at_least "messages" 1 messages;
    Buffer.add_string b (Printf.sprintf "ring|%s|%d\n" combo messages)
  | Fuzz { tests } -> Buffer.add_string b (Printf.sprintf "fuzz|%d\n" tests)
  | Fix { test; max_edits; budget } ->
    (* validate the search limits now so a job that cannot search fails at submit *)
    Armb_synth.Search.check_limits ~max_edits ~budget ();
    Buffer.add_string b (Printf.sprintf "fix|%d|%d\n" max_edits budget);
    Buffer.add_string b (Key.canonical_test test)
  | Perturb { test; intensities; plan_seeds } ->
    Buffer.add_string b
      (Printf.sprintf "perturb|%s|%s\n"
         (String.concat "," (List.map (Printf.sprintf "%.6f") intensities))
         (String.concat "," (List.map string_of_int plan_seeds)));
    Buffer.add_string b (Key.canonical_test test)
  | Opt { program; algorithm; unroll } ->
    (* validate the algorithm and unroll now so a job that cannot run fails at submit *)
    (match Armb_opt.Optimizer.algorithm_of_string algorithm with
    | Some _ -> ()
    | None -> invalid_arg (Printf.sprintf "Job.key: unknown algorithm %S" algorithm));
    at_least "unroll" 1 unroll;
    Buffer.add_string b (Printf.sprintf "opt|%s|%d\n" algorithm unroll);
    Buffer.add_string b (Key.canonical_program program));
  let a, bcore = t.rc.cores in
  Buffer.add_string b
    (Printf.sprintf "@%s|%d,%d|seed=%d|trials=%d|fault=%.6f"
       t.rc.cfg.Armb_cpu.Config.name a bcore t.rc.seed t.rc.trials t.fault);
  Key.digest (Buffer.contents b)

let fault_plan t =
  if t.fault <= 0.0 then None
  else
    Some
      (Armb_fault.Plan.of_intensity ~seed:t.rc.seed
         ~name:(Printf.sprintf "serve-%.2f" t.fault)
         t.fault)

let run t =
  let rc = t.rc in
  let fault = fault_plan t in
  match t.spec with
  | Litmus test ->
    let r = Sim.run_rc ?fault rc test in
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
  | Model { label; mem_ops; approach; location; nops; iters } ->
    let spec = model_spec rc ~mem_ops ~approach ~location ~nops ~iters in
    let cycles, events = AM.run_stats spec in
    let a, b = rc.cores in
    {
      text =
        Printf.sprintf "%s %s (%d,%d) nops=%d cycles=%d\n" (mem_ops_tag mem_ops) label a b
          nops cycles;
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
    let r = Spsc.run spec in
    {
      text =
        Format.asprintf "%s cycles=%d %a\n" combo r.Spsc.cycles Armb_mem.Memsys.pp_counters
          r.Spsc.lines_touched;
      events = 0;
      cycles = r.Spsc.cycles;
    }
  | Fuzz { tests } ->
    let r = Armb_litmus.Fuzz.run ?fault ~tests ~trials_per_test:rc.trials ~seed:rc.seed () in
    {
      text = Format.asprintf "%a@." Armb_litmus.Fuzz.pp_report r;
      events = r.Armb_litmus.Fuzz.events;
      cycles = 0;
    }
  | Fix { test; max_edits; budget } ->
    let o = Armb_synth.Fix.fix_rc ~max_edits ~budget rc test in
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
    let algorithm =
      match O.algorithm_of_string algorithm with
      | Some a -> a
      | None -> invalid_arg (Printf.sprintf "Job.run: unknown algorithm %S" algorithm)
    in
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
