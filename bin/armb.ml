(* armb: command-line front end of the library.

   Subcommands: platforms, model, tipping, observations, advise, litmus,
   check, fix, opt, ring, report, fuzz, perturb, barrier, trace, serve,
   soak.
   See `armb --help`. *)

open Cmdliner

module AM = Armb_core.Abstracted_model
module Advisor = Armb_core.Advisor
module Barrier = Armb_cpu.Barrier
module Catalogue = Armb_litmus.Catalogue
module Json = Armb_json.Json
module Lang = Armb_litmus.Lang
module Opt = Armb_opt.Optimizer
module Ordering = Armb_core.Ordering
module P = Armb_platform.Platform
module RC = Armb_platform.Run_config

(* Every subcommand that takes --out/--output routes file writing
   through here: Armb_service.Out creates missing parent directories
   and writes atomically (temp file + rename), so a watcher tailing a
   rolling artifact never reads a torn file.  Any I/O failure becomes
   one consistent message instead of a raw Sys_error. *)
let write_with path writer =
  match Armb_service.Out.write_with ~path writer with
  (* report on stderr: stdout may be a data stream (armb serve) *)
  | Ok () -> Printf.eprintf "wrote %s\n" path
  | Error m ->
    Printf.eprintf "armb: cannot write %s: %s\n" path m;
    exit 1

let write_out path text = write_with path (fun oc -> output_string oc text)

(* A report on stdout, and the same text in FILE with --out. *)
let emit out text =
  print_string text;
  if text <> "" && text.[String.length text - 1] <> '\n' then print_newline ();
  Option.iter (fun path -> write_out path text) out

let read_lines path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  with
  | lines -> lines
  | exception Sys_error m ->
    Printf.eprintf "armb: cannot read %s: %s\n" path m;
    exit 1

(* ---------- flag values ----------

   Every flag value is parsed and range-checked by its converter before
   any command runs, with the bound the library it feeds enforces: a
   value the library would refuse is a usage error (exit 124) naming
   the flag and the value, never an Invalid_argument from inside a run.
   Run bodies check only combinations of flags. *)

let checked_int check =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
    | Some n -> Result.map_error (fun m -> `Msg m) (check n)
  in
  Arg.conv (parse, Format.pp_print_int)

let int_from min =
  checked_int (fun n ->
      if n >= min then Ok n else Error (Printf.sprintf "expected an integer >= %d, got %d" min n))

let checked_float ~expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let non_negative_float = checked_float ~expected:"a non-negative number" (fun x -> x >= 0.0)

(* A fault intensity, in [0,1] as on the wire. *)
let intensity = checked_float ~expected:"a number in [0,1]" (fun x -> x >= 0.0 && x <= 1.0)

(* A name resolved by [find]; the error lists the accepted names. *)
let named ~what find names to_name =
  let parse s =
    match find s with
    | Some v -> Ok v
    | None ->
      Error (`Msg (Printf.sprintf "unknown %s %S; available: %s" what s (String.concat ", " (names ()))))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (to_name v))

let platform_arg =
  named ~what:"platform" P.by_name (fun () -> P.names) (fun (c : Armb_cpu.Config.t) -> c.name)

let test_arg =
  let name (t : Lang.test) = t.name in
  named ~what:"test" Catalogue.find (fun () -> List.map name Catalogue.all) name

let program_arg =
  let name (p : Armb_litmus.Cfg.program) = p.name in
  named ~what:"program" Opt.find_input (fun () -> List.map name Opt.sweep_inputs) name

let algorithm_arg =
  named ~what:"algorithm" Opt.algorithm_of_string
    (fun () -> List.map Opt.algorithm_name [ Single_bb; Linear_scan; Second_chance ])
    Opt.algorithm_name

(* At least one size, each a valid manycore machine. *)
let manycore_sizes =
  let sizes = Arg.list (checked_int (fun n -> Result.map (fun _ -> n) (P.manycore_shape n))) in
  let parse s =
    match Arg.conv_parser sizes s with
    | Ok [] -> Error (`Msg "expected at least one core count")
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer sizes)

(* Shared terms: each command keeps its own doc string. *)
let name_pos names ~doc = Arg.(value & pos 0 (some names) None & info [] ~docv:"NAME" ~doc)
let out ~doc = Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
let json ~doc = Arg.(value & flag & info [ "json" ] ~doc)
let soak ~doc = Arg.(value & opt (int_from 0) 0 & info [ "soak" ] ~docv:"N" ~doc)

let platform =
  Arg.(value & opt platform_arg P.kunpeng916 & info [ "p"; "platform" ] ~docv:"NAME" ~doc:"Target platform (kunpeng916, kirin960, kirin970, raspberrypi4).")

(* The run settings, one term each, so a simulator command takes only
   those its run reads: [platform], [placement] (the platform and the
   two cores its threads bind to, validated together), [seed], and
   [trials] at the command's historical default.  [run_config] is all
   four, for the commands that read them all. *)
let placement =
  let cores =
    Arg.(value & opt (some (pair ~sep:',' int int)) None
         & info [ "cores" ] ~docv:"A,B"
             ~doc:"Cores the two threads bind to (default: core 0 and the first core of the \
                   far half of the machine).")
  in
  let build cfg cores =
    match RC.make ?cores cfg with
    | rc -> Ok (rc.cfg, rc.cores)
    | exception Invalid_argument m -> Error (`Msg m)
  in
  Term.(term_result (const build $ platform $ cores))

let seed =
  Arg.(value & opt (int_from 0) 42 & info [ "seed" ] ~docv:"N" ~doc:"Base RNG seed (litmus harnesses, fault plans).")

let trials ~default =
  Arg.(value & opt (int_from 1) default
       & info [ "trials" ] ~docv:"N" ~doc:"Simulator trials per litmus experiment.")

let run_config ?(trials_default = 300) () =
  let make (cfg, cores) seed trials = RC.make ~cores ~seed ~trials cfg in
  Term.(const make $ placement $ seed $ trials ~default:trials_default)

(* Fault intensity knob shared by the subcommands that can perturb a
   run (ring, perturb, fuzz). *)
let fault_intensity =
  Arg.(value & opt intensity 0.0
       & info [ "fault" ] ~docv:"X"
           ~doc:"Fault-injection intensity in [0,1]: 0 disables (default), 1 arms every \
                 site of the deterministic fault plan.")

(* Ring message count shared by ring, perturb and trace. *)
let messages ~default =
  Arg.(value & opt (int_from 1) default
       & info [ "messages" ] ~docv:"N" ~doc:"Messages the producer-consumer ring transfers.")

let fault_of ~seed intensity =
  if intensity <= 0.0 then None else Some (Armb_fault.Plan.of_intensity ~seed intensity)

let approach =
  Arg.(value & opt (enum Ordering.named) (Ordering.Bar (Barrier.Dmb Full)) & info [ "a"; "approach" ] ~docv:"APPROACH" ~doc:"Order-preserving approach.")

let mem_ops =
  Arg.(value
      & opt (enum [ ("none", AM.No_mem); ("store-store", AM.Store_store); ("load-store", AM.Load_store); ("load-load", AM.Load_load) ]) AM.Store_store
      & info [ "m"; "mem-ops" ] ~docv:"KIND" ~doc:"Memory operations around the barrier.")

let location =
  Arg.(value & opt (enum [ ("1", AM.Loc1); ("2", AM.Loc2) ]) AM.Loc1 & info [ "l"; "loc" ] ~docv:"1|2" ~doc:"Barrier placement: strictly after the first access (1) or after the NOPs (2).")

let nops = Arg.(value & opt (int_from 0) 300 & info [ "n"; "nops" ] ~docv:"N" ~doc:"NOPs between the accesses.")

let iters = Arg.(value & opt (int_from 1) 2000 & info [ "iters" ] ~docv:"N" ~doc:"Loop iterations per thread.")

(* ---------- platforms ---------- *)

let platforms_cmd =
  let run () = List.iter (fun c -> Format.printf "%a@.@." Armb_cpu.Config.pp c) P.all in
  Cmd.v (Cmd.info "platforms" ~doc:"List the calibrated platform models.") Term.(const run $ const ())

(* ---------- model ---------- *)

let model_cmd =
  let run (cfg, cores) mem_ops approach location nops iters =
    let spec = { (AM.default_spec cfg) with cores; mem_ops; approach; location; nops; iters } in
    if not (AM.valid spec) then begin
      Printf.eprintf "invalid combination: %s with this mem-ops kind\n" (AM.label spec);
      exit 1
    end;
    let cycles, _ = AM.run_stats spec in
    let thr =
      Armb_sim.Stats.throughput_per_sec ~ops:iters ~cycles ~freq_ghz:cfg.Armb_cpu.Config.freq_ghz
    in
    Printf.printf "%s on %s, %d nops: %.2f M loops/s (%d cycles)\n" (AM.label spec)
      cfg.Armb_cpu.Config.name nops (thr /. 1e6) cycles
  in
  Cmd.v
    (Cmd.info "model" ~doc:"Run one abstracted model (the paper's Algorithm 1).")
    Term.(const run $ placement $ mem_ops $ approach $ location $ nops $ iters)

(* ---------- tipping ---------- *)

let tipping_cmd =
  let run (cfg, cores) =
    match Armb_core.Characterize.tipping_point cfg ~cores () with
    | Some n ->
      Printf.printf "DMB full fully hidden behind ~%d NOPs on %s\n" n cfg.Armb_cpu.Config.name
    | None -> print_endline "no tipping point found in the sweep"
  in
  Cmd.v
    (Cmd.info "tipping" ~doc:"Find the NOP count at which DMB full-2 matches No Barrier (Figure 4).")
    Term.(const run $ placement)

(* ---------- observations ---------- *)

let observations_cmd =
  let run () =
    let verdicts = Armb_core.Observations.all () in
    List.iter
      (fun (name, (v : Armb_core.Observations.verdict)) ->
        Printf.printf "%-50s %s\n  %s\n" name (if v.holds then "HOLDS" else "FAILS") v.detail)
      verdicts;
    if not (List.for_all (fun (_, (v : Armb_core.Observations.verdict)) -> v.holds) verdicts)
    then exit 1
  in
  Cmd.v
    (Cmd.info "observations"
       ~doc:"Check the paper's six observations against the simulator; exit 1 if one fails.")
    Term.(const run $ const ())

(* ---------- advise ---------- *)

let advise_cmd =
  let from_a =
    Arg.(required
        & opt (some (enum [ ("load", Advisor.From_load); ("store", Advisor.From_store); ("any", Advisor.From_any) ])) None
        & info [ "from" ] ~docv:"ACCESS" ~doc:"Earlier access kind: load, store or any.")
  in
  let to_a =
    Arg.(required
        & opt (some (enum [ ("load", Advisor.To_load); ("loads", Advisor.To_loads); ("store", Advisor.To_store); ("stores", Advisor.To_stores); ("any", Advisor.To_any) ])) None
        & info [ "to" ] ~docv:"ACCESS" ~doc:"Later access kind: load, loads, store, stores or any.")
  in
  let run from_ to_ =
    List.iter
      (fun (s : Advisor.suggestion) ->
        Printf.printf "%d. %s%s\n" (s.rank + 1) (Ordering.to_string s.approach)
          (match s.caveat with Some c -> "  — " ^ c | None -> ""))
      (Advisor.suggest ~from_ ~to_)
  in
  Cmd.v
    (Cmd.info "advise" ~doc:"Suggest order-preserving approaches (the paper's Table 3).")
    Term.(const run $ from_a $ to_a)

(* ---------- litmus ---------- *)

let litmus_cmd =
  let test = name_pos test_arg ~doc:"Test name (default: all)." in
  let run cfg seed trials test =
    let tests = match test with None -> Catalogue.all | Some t -> [ t ] in
    List.iter
      (fun (t : Lang.test) ->
        let wmm = Armb_litmus.Enumerate.allows Armb_litmus.Enumerate.Wmm t in
        let tso = Armb_litmus.Enumerate.allows Armb_litmus.Enumerate.Tso t in
        let r = Armb_litmus.Sim_runner.run ~cfg ~trials ~seed t in
        Printf.printf "%-18s TSO:%-9s WMM:%-9s witnessed:%b\n" t.name
          (if tso then "Allowed" else "Forbidden")
          (if wmm then "Allowed" else "Forbidden")
          r.interesting_witnessed;
        List.iter (fun (o, k) -> Printf.printf "    %5d  %s\n" k o) r.outcomes)
      tests
  in
  Cmd.v
    (Cmd.info "litmus" ~doc:"Run litmus tests exhaustively and on the timing simulator.")
    Term.(const run $ platform $ seed $ trials ~default:300 $ test)

(* ---------- check ---------- *)

let check_cmd =
  let test =
    name_pos test_arg ~doc:"Litmus test to sanitize (default: cross-check the whole catalogue)."
  in
  let run cfg seed trials test =
    let module Sim = Armb_litmus.Sim_runner in
    match test with
    | None ->
      let rows, ok = Sim.cross_check ~cfg ~trials ~seed () in
      List.iter (fun r -> Format.printf "%a@." Sim.pp_check_row r) rows;
      Format.printf "cross-check: %s@." (if ok then "ok" else "FAIL");
      if not ok then exit 1
    | Some (t : Lang.test) ->
      let base, stripped = Sim.check_test ~cfg ~trials ~seed t in
      let report tag (r : Sim.result) =
        match r.findings with
        | [] -> Format.printf "%s: clean@." tag
        | fs ->
          Format.printf "%s: %d racy pair(s)@." tag (List.length fs);
          List.iter
            (fun f -> Format.printf "%a@." Armb_check.Sanitizer.pp_finding f)
            fs
      in
      report t.name base;
      (match stripped with
      | Some r -> report (t.name ^ " (order stripped)") r
      | None -> Format.printf "%s has no ordering devices to strip@." t.name);
      if base.findings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Happens-before sanitizer: flag program-order pairs left unordered by \
             barriers/dependencies that other cores can observe reordered, with a \
             suggested minimal fix.")
    Term.(const run $ platform $ seed $ trials ~default:50 $ test)

(* ---------- ring ---------- *)

let ring_cmd =
  let combo_arg =
    let names = Armb_sync.Spsc_ring.combo_names in
    let parse s =
      if String.lowercase_ascii s = "pilot" || List.mem s names then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf "unknown combination %S (try: %s, pilot)" s
                (String.concat ", " (List.map (Printf.sprintf "%S") names))))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let combo =
    Arg.(value & opt combo_arg "DMB ld - DMB st" & info [ "combo" ] ~docv:"NAME" ~doc:"Barrier combination (Figure 6(a) legend name), or \"pilot\".")
  in
  let run (cfg, cores) seed combo messages intensity =
    let fault = fault_of ~seed intensity in
    let pilot = String.lowercase_ascii combo = "pilot" in
    let barriers =
      if pilot then Armb_sync.Spsc_ring.Pilot else Armb_sync.Spsc_ring.combo combo
    in
    let r =
      Armb_sync.Spsc_ring.verified_run
        { (Armb_sync.Spsc_ring.default_spec cfg ~cores) with messages; barriers; fault }
    in
    if pilot then
      Printf.printf "Pilot ring on %s: %.2f M msgs/s (%d fallbacks)\n" cfg.Armb_cpu.Config.name
        (r.throughput /. 1e6) r.fallbacks
    else
      Printf.printf "%s on %s: %.2f M msgs/s\n" combo cfg.Armb_cpu.Config.name
        (r.throughput /. 1e6)
  in
  Cmd.v
    (Cmd.info "ring" ~doc:"Run the producer-consumer ring with a chosen barrier combination.")
    Term.(const run $ placement $ seed $ combo $ messages ~default:4000 $ fault_intensity)

(* ---------- report ---------- *)

let report_cmd =
  let run cfg =
    Armb_core.Report.print (Armb_core.Report.generate cfg)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Generate the full Markdown barrier-characterization report for a platform.")
    Term.(const run $ platform)

(* ---------- fuzz ---------- *)

let fuzz_cmd =
  let tests = Arg.(value & opt (int_from 0) 50 & info [ "tests" ] ~docv:"N" ~doc:"Random tests to generate.") in
  let run cfg seed trials tests intensity =
    let fault = fault_of ~seed intensity in
    let r = Armb_litmus.Fuzz.run ~cfg ?fault ~tests ~trials_per_test:trials ~seed () in
    Format.printf "%a@." Armb_litmus.Fuzz.pp_report r;
    if r.Armb_litmus.Fuzz.violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzz: random litmus tests, simulator outcomes checked against the operational model.")
    Term.(const run $ platform $ seed $ trials ~default:60 $ tests $ fault_intensity)

(* ---------- barrier ---------- *)

let barrier_cmd =
  let module BS = Armb_workloads.Barrier_study in
  let sizes =
    Arg.(value & opt manycore_sizes BS.default_sizes
         & info [ "sizes" ] ~docv:"N,.."
             ~doc:(Printf.sprintf
                     "Core counts to sweep.  Each must be a multiple of 8 between %d and \
                      %d that splits into uniform NUMA nodes (validated before any \
                      simulation runs)."
                     Armb_platform.Platform.manycore_min Armb_platform.Platform.manycore_max))
  in
  let episodes =
    Arg.(value & opt (int_from 1) 4 & info [ "episodes" ] ~docv:"N" ~doc:"Barrier episodes per run.")
  in
  let work =
    Arg.(value & opt (int_from 0) 64
         & info [ "work" ] ~docv:"CYCLES" ~doc:"ALU cycles of per-core work between barriers.")
  in
  let arity =
    Arg.(value & opt (int_from 2) 4 & info [ "arity" ] ~docv:"K" ~doc:"Combining-tree arity (>= 2).")
  in
  let out = out ~doc:"Also write the sweep as JSON." in
  let run sizes episodes work arity out =
    let t =
      BS.run ~sizes ~episodes ~work ~arity
        ~progress:(fun n -> Printf.printf "barrier: %d cores...\n%!" n)
        ()
    in
    Format.printf "%a@." BS.pp t;
    Option.iter (fun p -> write_out p (Json.to_string (BS.to_json t) ^ "\n")) out
  in
  Cmd.v
    (Cmd.info "barrier"
       ~doc:"Many-core barrier crossover study: central counter vs combining tree vs \
             dissemination on scaled-out manycore machines, cycles per episode and the \
             central-to-tree crossover point.")
    Term.(const run $ sizes $ episodes $ work $ arity $ out)

(* ---------- perturb ---------- *)

let perturb_cmd =
  (* The positive intensities, sorted and distinct: at least one. *)
  let positive_intensities =
    let floats = Arg.list intensity in
    let parse s =
      match Arg.conv_parser floats s with
      | Ok xs -> (
        match List.sort_uniq Float.compare (List.filter (fun x -> x > 0.0) xs) with
        | [] -> Error (`Msg (Printf.sprintf "no positive intensity to sweep in %S" s))
        | xs -> Ok xs)
      | Error _ as e -> e
    in
    Arg.conv (parse, Arg.conv_printer floats)
  in
  let intensities =
    Arg.(value & opt positive_intensities [ 0.25; 0.5; 1.0 ]
         & info [ "intensities" ] ~docv:"X,Y,.."
             ~doc:"Fault intensities to sweep, each in [0,1] (0 is always measured as the \
                   baseline).")
  in
  let out = out ~doc:"Also write the report to FILE (CI drift artifact)." in
  let run (rc : RC.t) intensities messages out =
    let buf = Buffer.create 4096 in
    let say fmt = Printf.bprintf buf fmt in
    (* 1. the litmus catalogue under perturbation: legality + drift *)
    say "== litmus catalogue under fault injection (%s, %d trials, seed %d) ==\n"
      rc.cfg.Armb_cpu.Config.name rc.trials rc.seed;
    let sweep =
      Armb_litmus.Perturb.sweep ~cfg:rc.cfg ~trials:rc.trials ~seed:rc.seed ~intensities ()
    in
    List.iter
      (fun (s : Armb_litmus.Perturb.summary) ->
        say "%s\n" (Format.asprintf "%a" Armb_litmus.Perturb.pp_summary s))
      sweep.summaries;
    let bad = List.filter (fun (r : Armb_litmus.Perturb.row) -> not r.row_ok) sweep.results in
    List.iter
      (fun (r : Armb_litmus.Perturb.row) ->
        say "VIOLATION %s\n" (Format.asprintf "%a" Armb_litmus.Perturb.pp_row r))
      bad;
    (* 2. degradation curve of the message-passing ring, Pilot included *)
    let a, b = rc.cores in
    say "\n== MP ring degradation (%s, cores %d,%d, %d messages) ==\n"
      rc.cfg.Armb_cpu.Config.name a b messages;
    let ring barriers intensity =
      let fault = fault_of ~seed:rc.seed intensity in
      let spec =
        { (Armb_sync.Spsc_ring.default_spec rc.cfg ~cores:rc.cores) with messages; barriers; fault }
      in
      (Armb_sync.Spsc_ring.verified_run spec).Armb_sync.Spsc_ring.throughput
    in
    let spsc = ring (Armb_sync.Spsc_ring.combo "DMB ld - DMB st")
    and pilot = ring Armb_sync.Spsc_ring.Pilot in
    let base_spsc = spsc 0.0 and base_pilot = pilot 0.0 in
    say "  %-10s %22s %22s\n" "intensity" "DMB ld - DMB st" "Pilot";
    let point intensity s p =
      say "  %-10.2f %12.2f (%.2fx) %12.2f (%.2fx)\n" intensity (s /. 1e6) (s /. base_spsc)
        (p /. 1e6) (p /. base_pilot)
    in
    point 0.0 base_spsc base_pilot;
    List.iter (fun x -> point x (spsc x) (pilot x)) intensities;
    say "\nperturbation sweep: %s\n" (if sweep.ok then "ok" else "FAIL");
    emit out (Buffer.contents buf);
    if not sweep.ok then exit 1
  in
  Cmd.v
    (Cmd.info "perturb"
       ~doc:"Sweep deterministic fault-injection intensity: litmus outcome drift and \
             legality plus the message-passing ring's degradation curve (Pilot included).")
    Term.(const run $ run_config ~trials_default:40 () $ intensities $ messages ~default:2000 $ out)

(* ---------- fix ---------- *)

let fix_cmd =
  let module Fix = Armb_synth.Fix in
  let module Report = Armb_synth.Report in
  let module Soak = Armb_synth.Soak in
  let test = name_pos test_arg ~doc:"Litmus test to repair (catalogue name)." in
  let all =
    Arg.(value & flag
         & info [ "all" ] ~doc:"Strip-and-resynthesize every eligible catalogue test.")
  in
  let strip =
    Arg.(value & flag
         & info [ "strip" ]
             ~doc:"Round trip: strip NAME of its ordering devices first, then repair and \
                   compare the winner's simulated cost against the original.")
  in
  let soak =
    soak
      ~doc:"Fuzz-repair soak: generate N random tests, strip, repair, re-verify \
            (0 disables)."
  in
  let json = json ~doc:"Emit JSON instead of text/Markdown." in
  let out = out ~doc:"Also write the report to FILE." in
  let max_edits =
    Arg.(value & opt (int_from 1) 3
         & info [ "max-edits" ] ~docv:"N" ~doc:"Largest edit set the search considers.")
  in
  let budget =
    Arg.(value & opt (int_from 1) 4000
         & info [ "budget" ] ~docv:"N" ~doc:"Oracle-call budget per search.")
  in
  let run seed trials test all strip soak json out max_edits budget =
    let emit = emit out in
    if soak > 0 then begin
      let r = Soak.run ~tests:soak ~seed ~max_edits:(min max_edits 2) ~budget () in
      Format.printf "%a@." Soak.pp_report r;
      if not (Soak.ok r) then exit 1
    end
    else if all then begin
      let rts = Fix.catalogue_round_trips ~max_edits ~budget ~trials ~seed () in
      emit
        (if json then Json.to_string (Report.round_trips_json rts)
         else Report.round_trips_markdown rts);
      if List.exists (fun (rt : Fix.round_trip) -> not rt.ok) rts then exit 1
    end
    else
      match test with
      | None ->
        Printf.eprintf "fix: give a test NAME, or --all, or --soak N\n";
        exit 2
      | Some (t : Lang.test) ->
        if strip then (
          match Fix.strip_round_trip ~max_edits ~budget ~trials ~seed t with
          | None ->
            Printf.eprintf
              "%s is not eligible for a strip round trip (weak outcome expected, or \
               nothing strippable)\n"
              t.name;
            exit 1
          | Some rt ->
            emit
              (if json then Json.to_string (Report.round_trips_json [ rt ])
               else Format.asprintf "%a@." Report.pp_round_trip rt);
            if not rt.ok then exit 1)
        else begin
          let o = Fix.fix ~max_edits ~budget ~trials ~seed t in
          emit
            (if json then Json.to_string (Report.outcome_json o)
             else Format.asprintf "%a@." Report.pp_outcome o);
          if (not o.already_sound) && o.repairs = [] then exit 1
        end
  in
  Cmd.v
    (Cmd.info "fix"
       ~doc:"Synthesize minimal-cost ordering repairs: irredundant sufficient fence/\
             acquire-release/dependency edit sets (plus the Pilot single-word rewrite \
             for MP-shaped tests), costed per platform on the timing simulator.")
    Term.(const run $ seed $ trials ~default:60 $ test $ all $ strip $ soak
          $ json $ out $ max_edits $ budget)

(* ---------- opt ---------- *)

module Opt_verify = Armb_opt.Verify
module Opt_report = Armb_opt.Report
module Opt_soak = Armb_opt.Soak

let opt_cmd =
  let program =
    name_pos program_arg
      ~doc:"Program to optimize: any catalogue litmus test or control-flow test, \
            plus the +overfenced variants (e.g. $(b,MP+overfenced))."
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Optimize the whole catalogue sweep.") in
  let soak =
    soak
      ~doc:"Optimizer soak: N rounds of random CFG programs (loops included), \
            over-fenced, optimized and re-verified; fails on any unsoundness or \
            barrier-count increase."
  in
  let algorithm =
    Arg.(value & opt algorithm_arg Opt.Second_chance
         & info [ "algorithm" ] ~docv:"ALGO"
             ~doc:"Placement algorithm: $(b,single-bb), $(b,linear-scan) or \
                   $(b,second-chance).")
  in
  let unroll =
    Arg.(value & opt (int_from 1) 2
         & info [ "unroll" ] ~docv:"K" ~doc:"Loop unroll bound for slicing and verification.")
  in
  let json = json ~doc:"Emit the report as JSON instead of Markdown." in
  let out = out ~doc:"Also write the report to FILE." in
  let no_cost =
    Arg.(value & flag
         & info [ "no-cost" ]
             ~doc:"Skip platform costing (and with it the slower-platform revert guard).")
  in
  let min_improved =
    Arg.(value & opt (int_from 0) 0
         & info [ "min-improved" ] ~docv:"N"
             ~doc:"Fail unless at least N programs improved (the CI guard).")
  in
  let run seed trials program all soak algorithm unroll json out no_cost min_improved =
    let cost = not no_cost in
    let finish results =
      emit out
        (if json then Json.to_string (Opt_report.json results) ^ "\n"
         else Opt_report.markdown results);
      let unsound =
        List.filter (fun (r : Opt.result) -> not r.Opt.verdict.Opt_verify.sound) results
      in
      let increase =
        List.filter (fun (r : Opt.result) -> r.Opt.output_fences > r.Opt.input_fences) results
      in
      let improved = List.length (List.filter Opt.improved results) in
      List.iter
        (fun (r : Opt.result) -> Printf.eprintf "opt: UNSOUND on %s: %s\n" r.Opt.name r.Opt.verdict.Opt_verify.detail)
        unsound;
      List.iter
        (fun (r : Opt.result) ->
          Printf.eprintf "opt: barrier count increased on %s (%d -> %d)\n" r.Opt.name
            r.Opt.input_fences r.Opt.output_fences)
        increase;
      if unsound <> [] || increase <> [] then exit 1;
      if improved < min_improved then begin
        Printf.eprintf "opt: only %d program(s) improved (expected at least %d)\n" improved
          min_improved;
        exit 1
      end
    in
    if soak > 0 then begin
      let r = Opt_soak.run ~rounds:soak ~seed ~algorithm ~unroll () in
      Format.printf "%a@." Opt_soak.pp_report r;
      if not (Opt_soak.ok r) then exit 1
    end
    else if all then
      finish (Opt.sweep ~algorithm ~unroll ~cost ~trials ~seed ())
    else
      match program with
      | None ->
        Printf.eprintf "opt: give a program NAME, or --all, or --soak N\n";
        exit 2
      | Some p -> finish [ Opt.optimize ~algorithm ~unroll ~cost ~trials ~seed p ]
  in
  Cmd.v
    (Cmd.info "opt"
       ~doc:"Whole-program fence optimization: RPO barrier merging over the CFG IR plus \
             cost-ranked placement (single-bb / linear-scan / second-chance), verified \
             against the exhaustive WMM enumerator (loop-free) or bounded unrolling with \
             the happens-before sanitizer (loops), and priced per platform on the timing \
             simulator.")
    Term.(const run $ seed $ trials ~default:30 $ program $ all $ soak $ algorithm
          $ unroll $ json $ out $ no_cost $ min_improved)

(* ---------- trace ---------- *)

let trace_cmd =
  let out =
    Arg.(value & opt string "armb-trace.json" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (Chrome trace-event JSON).")
  in
  let test =
    Arg.(value & opt (some test_arg) None
         & info [ "test" ] ~docv:"NAME"
             ~doc:"Trace one simulator trial of a catalogue litmus test instead of the ring.")
  in
  let fixed =
    Arg.(value & flag
         & info [ "fixed" ]
             ~doc:"With $(b,--test): synthesize a repair first (armb fix) and trace this \
                   platform's winner instead of the test as written.")
  in
  let module Trace = Armb_cpu.Trace in
  let write out tr = write_with out (fun oc -> Trace.write_chrome_json (output_string oc) tr) in
  let run_litmus (rc : RC.t) out (t : Lang.test) fixed =
    let t =
      if not fixed then t
      else begin
        let o = Armb_synth.Fix.fix ~trials:rc.trials ~seed:rc.seed t in
        if o.already_sound then begin
          Printf.printf "%s is already sound; tracing it as written\n" t.name;
          t
        end
        else
          match List.assoc_opt rc.cfg.Armb_cpu.Config.name o.winners with
          | Some (r : Armb_synth.Fix.repair) ->
            Printf.printf "tracing winner on %s: %s\n" rc.cfg.Armb_cpu.Config.name r.label;
            r.test
          | None ->
            Printf.eprintf "no repair found for %s\n" t.name;
            exit 1
      end
    in
    let tr = Trace.create () in
    let r =
      Armb_litmus.Sim_runner.run ~cfg:rc.cfg ~trials:1 ~seed:rc.seed ~observer:(Trace.observer tr) t
    in
    write out tr;
    Printf.printf "%d spans (%d dropped) covering %d cycles of %s\n" (Trace.length tr)
      (Trace.dropped tr) r.Armb_litmus.Sim_runner.cycles t.name;
    print_endline "open it at chrome://tracing or https://ui.perfetto.dev"
  in
  let run (rc : RC.t) out messages test fixed =
    match test with
    | Some t -> run_litmus rc out t fixed
    | None when fixed ->
      prerr_endline "armb trace: --fixed repairs a litmus test; it needs --test NAME";
      exit 2
    | None ->
      let tr = Trace.create () in
      let spec = { (Armb_sync.Spsc_ring.default_spec rc.cfg ~cores:rc.cores) with messages } in
      let r = Armb_sync.Spsc_ring.verified_run ~observer:(Trace.observer tr) spec in
      write out tr;
      Printf.printf "%d spans (%d dropped) covering %d cycles\n" (Trace.length tr)
        (Trace.dropped tr) r.cycles;
      print_endline "open it at chrome://tracing or https://ui.perfetto.dev"
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace the producer-consumer ring that $(b,armb ring) measures — or, with \
             $(b,--test), one simulator trial of a litmus test (optionally after repair) — \
             and export Chrome trace-event JSON.")
    Term.(const run $ run_config () $ out $ messages ~default:200 $ test $ fixed)

(* ---------- serve ---------- *)

module Engine = Armb_service.Engine
module Serve = Armb_service.Serve
module Codec = Armb_service.Codec
module Metrics = Armb_service.Metrics

let no_cache =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable memoization and coalescing: every request computes from \
                 scratch (cold baseline).")

let queue_bound =
  Arg.(value & opt (int_from 1) 256
       & info [ "queue-bound" ] ~docv:"N"
           ~doc:"Most distinct computations queued at once; beyond it requests are \
                 shed with a retry-after hint.")

let cache_cap =
  Arg.(value & opt (int_from 1) 512
       & info [ "cache-cap" ] ~docv:"N" ~doc:"Memo-cache capacity (LRU eviction).")

let metrics_out =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the engine's metrics JSON (schema armb-serve-metrics-v1) to \
                 FILE on exit.")

let dump_metrics metrics = function
  | None -> ()
  | Some path -> write_out path (Json.to_string (Metrics.to_json metrics) ^ "\n")

let serve_cmd =
  let batch_file =
    Arg.(value & opt (some string) None
         & info [ "batch" ] ~docv:"FILE"
             ~doc:"One-shot mode: read every request from FILE, write all responses \
                   to stdout, then exit (instead of streaming stdin/stdout).")
  in
  let drain_every =
    Arg.(value & opt (int_from 0) 16
         & info [ "drain-every" ] ~docv:"N"
             ~doc:"Streaming mode: run queued computations whenever N are pending, \
                   whenever the next request has not arrived yet, and at end of input.")
  in
  let max_requests =
    Arg.(value & opt (some (int_from 0)) None
         & info [ "max-requests" ] ~docv:"N"
             ~doc:"Streaming mode: stop accepting input after N requests, drain \
                   everything already accepted, answer it all, then exit.  The \
                   bound stops reading, never answering: a bounded serve is a \
                   prefix of the unbounded one.")
  in
  let duration =
    Arg.(value & opt (some non_negative_float) None
         & info [ "duration" ] ~docv:"SECONDS"
             ~doc:"Streaming mode: stop accepting input after SECONDS of wall \
                   clock, with the same drain-then-exit semantics as \
                   $(b,--max-requests).")
  in
  let compare_cold =
    Arg.(value & flag
         & info [ "compare-cold" ]
             ~doc:"With $(b,--batch): run FILE through a cacheless engine and a caching \
                   engine, each with a queue sized to FILE so neither sheds, print the \
                   caching engine's responses, report on stderr whether the two agree \
                   response for response and the speedup, and exit 1 if they differ.  \
                   $(b,--metrics-out) writes the caching engine's metrics.")
  in
  let min_speedup =
    Arg.(value & opt non_negative_float 0.0
         & info [ "min-speedup" ] ~docv:"X"
             ~doc:"With $(b,--compare-cold): exit 1 unless warm is at least X times \
                   faster than cold (0 disables the gate).")
  in
  let run no_cache queue_bound cache_cap drain_every max_requests duration batch_file
      compare_cold min_speedup metrics_out =
    let usage m =
      Printf.eprintf "armb serve: %s\n" m;
      exit 2
    in
    if compare_cold && batch_file = None then usage "--compare-cold needs --batch FILE";
    if compare_cold && no_cache then
      usage "--compare-cold runs its own cacheless engine; drop --no-cache";
    if min_speedup > 0.0 && not compare_cold then usage "--min-speedup needs --compare-cold";
    let print_responses (b : Serve.batch) =
      List.iter (fun r -> print_endline (Codec.response_to_line r)) b.responses
    in
    match batch_file with
    | Some f when compare_cold ->
      let c = Serve.compare_cold ~cache_cap ~lines:(read_lines f) () in
      print_responses c.warm;
      Printf.eprintf "armb serve: identical %b, speedup %.2fx (cold %.3f s, warm %.3f s)\n"
        c.identical c.speedup c.cold.wall_s c.warm.wall_s;
      dump_metrics c.warm_metrics metrics_out;
      if not c.identical then begin
        Printf.eprintf "armb serve: warm responses differ from cold responses\n";
        exit 1
      end;
      if c.speedup < min_speedup then begin
        Printf.eprintf "armb serve: speedup %.2fx below required %.2fx\n" c.speedup
          min_speedup;
        exit 1
      end
    | _ ->
      let engine = Engine.create ~cache_cap ~queue_bound ~no_cache () in
      (match batch_file with
      | None ->
        Serve.serve ~drain_every ?max_requests ?duration_s:duration engine stdin stdout
      | Some f -> print_responses (Serve.run_batch engine ~lines:(read_lines f)));
      dump_metrics (Engine.metrics engine) metrics_out
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Job service: newline-delimited JSON requests in, responses out, with \
             content-addressed memoization, request coalescing, fair-share priority \
             scheduling and load shedding; $(b,--batch) $(b,--compare-cold) checks the \
             memo cache against a cold run.")
    Term.(const run $ no_cache $ queue_bound $ cache_cap $ drain_every $ max_requests
          $ duration $ batch_file $ compare_cold $ min_speedup $ metrics_out)

(* ---------- soak ---------- *)

module Soak_gen = Armb_soak.Gen
module Soak_driver = Armb_soak.Driver

let soak_cmd =
  let seed =
    Arg.(value & opt int 2026
         & info [ "seed" ] ~docv:"N"
             ~doc:"Stream seed.  The same seed (and pool parameters) reproduces the \
                   identical request stream, byte for byte.")
  in
  let requests =
    Arg.(value & opt (int_from 0) 500
         & info [ "requests" ] ~docv:"N"
             ~doc:"Stop after N submissions (0 = unbounded; requires $(b,--duration)).")
  in
  let duration =
    Arg.(value & opt (some non_negative_float) None
         & info [ "duration" ] ~docv:"SECONDS"
             ~doc:"Also stop after SECONDS of wall clock, whichever bound hits first.")
  in
  let wave =
    Arg.(value & opt (int_from 1) 32
         & info [ "wave" ] ~docv:"N" ~doc:"Requests per wave (one batch round trip).")
  in
  let pool =
    Arg.(value & opt (int_from 1) Soak_gen.default_pool
         & info [ "pool" ] ~docv:"N"
             ~doc:"Distinct jobs in the sampling pool (interleaved across kinds, so \
                   a small pool still mixes every kind).")
  in
  let alpha =
    Arg.(value & opt non_negative_float 1.1
         & info [ "alpha" ] ~docv:"A"
             ~doc:"Zipf skew over the pool: higher concentrates traffic on hot keys \
                   (memo-cache and coalescing pressure).")
  in
  let snapshot_every =
    Arg.(value & opt (int_from 0) 4
         & info [ "snapshot-every" ] ~docv:"N"
             ~doc:"Rewrite the rolling metrics artifact every N waves (0 = only the \
                   final snapshot).")
  in
  let bundle_dir =
    Arg.(value & opt (some string) None
         & info [ "bundle-dir" ] ~docv:"DIR"
             ~doc:"Persist each invariant violation as a self-contained repro bundle \
                   (schema armb-soak-violation-v1: seed, verbatim request line, \
                   response) under DIR.")
  in
  let emit =
    Arg.(value & opt (some string) None
         & info [ "emit" ] ~docv:"FILE"
             ~doc:"Do not run anything: write the deterministic NDJSON request \
                   stream for this seed to FILE and exit.  Two runs with the same \
                   seed produce byte-identical files (the reproducibility check).")
  in
  let run seed requests duration wave pool alpha snapshot_every metrics_out bundle_dir emit
      queue_bound cache_cap =
    if requests = 0 && emit <> None then begin
      Printf.eprintf "armb soak: --emit needs --requests N (> 0)\n";
      exit 2
    end;
    if requests = 0 && duration = None then begin
      Printf.eprintf "armb soak: give --requests N (> 0) and/or --duration S\n";
      exit 2
    end;
    match emit with
    | Some path ->
      let jobs = Soak_gen.stream ~pool ~alpha ~requests ~seed () in
      write_out path
        (String.concat "" (List.map (fun j -> j.Soak_gen.line ^ "\n") jobs))
    | None ->
      let cfg =
        {
          (Soak_driver.default_config ~seed) with
          Soak_driver.requests;
          duration_s = duration;
          wave;
          pool;
          alpha;
          queue_bound;
          cache_cap;
          snapshot_every;
          metrics_out;
          bundle_dir;
        }
      in
      let r = Soak_driver.run cfg in
      Format.printf "%a@." Soak_driver.pp_report r;
      (match metrics_out with
      | Some p -> Printf.eprintf "metrics artifact: %s (%d snapshots)\n" p r.Soak_driver.snapshots
      | None -> ());
      List.iter
        (fun (path, m) -> Printf.eprintf "armb soak: cannot write %s: %s\n" path m)
        r.Soak_driver.write_failures;
      if not r.Soak_driver.ok || r.Soak_driver.write_failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Continuous soak farm: a seeded, Zipf-skewed stream of litmus / check / \
             perturb / fix / opt jobs played against the in-process job service as \
             production traffic, every response invariant-checked (repair soundness, \
             optimizer safety, sanitizer cleanliness, perturbation legality), each \
             shed request resubmitted once its wave has drained, violations persisted \
             as repro bundles, and a rolling armb-soak-metrics-v2 artifact written \
             atomically.")
    Term.(const run $ seed $ requests $ duration $ wave $ pool $ alpha $ snapshot_every
          $ metrics_out $ bundle_dir $ emit $ queue_bound $ cache_cap)

let () =
  let doc = "ARM barrier characterization and optimization toolkit (PPoPP'20 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "armb" ~version:"1.0.0" ~doc)
          [
            platforms_cmd;
            model_cmd;
            tipping_cmd;
            observations_cmd;
            advise_cmd;
            litmus_cmd;
            check_cmd;
            fix_cmd;
            opt_cmd;
            ring_cmd;
            report_cmd;
            fuzz_cmd;
            perturb_cmd;
            barrier_cmd;
            trace_cmd;
            serve_cmd;
            soak_cmd;
          ]))
