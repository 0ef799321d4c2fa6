module Lang = Armb_litmus.Lang
module Mutate = Armb_litmus.Mutate
module Enumerate = Armb_litmus.Enumerate
module Fuzz = Armb_litmus.Fuzz
module Sim_runner = Armb_litmus.Sim_runner
module Rng = Armb_sim.Rng

type report = {
  tests : int;
  skipped_no_devices : int;
  stripped_still_sound : int;
  repaired : int;
  no_repair : int;
  unsound : int;
  redundant : int;
  sim_violations : int;
  oracle_calls : int;
  failures : string list;
}

let ok r = r.unsound = 0 && r.redundant = 0 && r.sim_violations = 0

let outcome_set t =
  List.map Enumerate.outcome_to_string (Enumerate.enumerate Enumerate.Wmm t)

let subset a b = List.for_all (fun x -> List.mem x b) a

(* [k] distinct random picks from [arr] (k <= length). *)
let sample rng arr k =
  let n = Array.length arr in
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + Rng.int rng (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  List.init k (fun i -> arr.(idx.(i)))

(* Tight two-thread skeletons: randomized instances of the classic
   communication shapes (MP, SB, LB, 2+2W) with shuffled variable roles,
   thread order and store values.  Broad fuzz tests have near-maximal
   outcome sets, so ordering devices are almost always inert on them;
   these shapes are exactly where a device forbids something, which is
   what makes the repair path exercise. *)
let shaped_skeleton rng =
  let x, y = if Rng.bool rng then ("x", "y") else ("y", "x") in
  let v () = Int64.of_int (1 + Rng.int rng 3) in
  let t0, t1 =
    match Rng.int rng 4 with
    | 0 ->
      (* MP: publish two locations / read them back in reverse *)
      ([ Lang.st x (v ()); Lang.st y (v ()) ], [ Lang.ld y "r1"; Lang.ld x "r2" ])
    | 1 ->
      (* SB: each side stores its own then reads the other's *)
      ([ Lang.st x (v ()); Lang.ld y "r1" ], [ Lang.st y (v ()); Lang.ld x "r1" ])
    | 2 ->
      (* LB: each side loads the other's then stores its own *)
      ([ Lang.ld x "r1"; Lang.st y (v ()) ], [ Lang.ld y "r1"; Lang.st x (v ()) ])
    | _ ->
      (* 2+2W: both sides store both locations, opposite orders *)
      ([ Lang.st x (v ()); Lang.st y (v ()) ], [ Lang.st y (v ()); Lang.st x (v ()) ])
  in
  let threads = if Rng.bool rng then [ t0; t1 ] else [ t1; t0 ] in
  {
    Lang.name = "shaped";
    description = "randomized two-thread communication skeleton";
    init = [ ("x", 0L); ("y", 0L) ];
    threads;
    interesting = (fun _ -> false);
    expect_tso = false;
    expect_wmm = false;
  }

type status = Skipped_no_devices | Still_sound | Repaired | No_repair

(* One round's tallies; [run] sums them into the report. *)
type round = {
  status : status;
  unsound : int;
  redundant : int;
  sim_violations : int;
  oracle_calls : int;
  failures : string list;
}

(* Simulator trials on each round's cheapest repair. *)
let sim_trials = 25

let run_round ~seed ~max_edits ~budget rng i =
  let unsound = ref 0 and redundant = ref 0 in
  let sim_violations = ref 0 and calls = ref 0 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* A fuzzed test reduced to its access skeleton, then re-armed with
     a random ground-truth device set drawn from the same vocabulary
     the repairer uses.  Stripping the armed test recovers the
     skeleton, so the synthesizer is asked to win back (a minimal
     subset of) exactly what was injected — soundness is monotone in
     the edit set, so a sufficient repair within [max_edits] edits is
     guaranteed to exist whenever the budget lets the search reach
     it. *)
  let skeleton =
    if Rng.int rng 4 = 0 then
      Mutate.strip_order ~keep_values:true (Fuzz.generate ~with_isb:true rng)
    else shaped_skeleton rng
  in
  let skeleton = Mutate.rename (Printf.sprintf "fuzz-fix-%d" i) skeleton in
  let cands = Array.of_list (Placement.candidates skeleton) in
  let status =
    if Array.length cands = 0 then Skipped_no_devices
    else begin
      let k = min max_edits (Array.length cands) in
      let injected =
        (* A one-sided device set is almost always inert (MP needs both
           the producer and the consumer armed), so spread multi-edit
           injections across distinct threads when possible. *)
        let threads =
          List.sort_uniq compare (List.map Placement.thread_of (Array.to_list cands))
        in
        if k >= 2 && List.length threads >= 2 then
          let pick th =
            let pool = Array.of_list
                (List.filter (fun e -> Placement.thread_of e = th) (Array.to_list cands))
            in
            pool.(Rng.int rng (Array.length pool))
          in
          let ths = sample rng (Array.of_list threads) (min k (List.length threads)) in
          let spread = List.map pick ths in
          let extra = k - List.length spread in
          if extra > 0 then spread @ sample rng cands extra else spread
        else sample rng cands k
      in
      let injected = List.sort_uniq compare injected in
      let original = Placement.apply skeleton injected in
      let allowed = outcome_set original in
      let sound tt =
        incr calls;
        subset (outcome_set tt) allowed
      in
      if subset (outcome_set skeleton) allowed then
        (* the injected devices forbid nothing observable *)
        Still_sound
      else begin
        let s = Search.search ~max_edits ~budget ~sound skeleton in
        match s.Search.repairs with
        | [] ->
          if s.Search.complete then
            (* cannot happen: [injected] itself is sufficient and within
               [max_edits]; a complete search must find a subset of it *)
            fail "%s: complete search found no repair despite injected [%s]"
              skeleton.Lang.name
              (String.concat "; "
                 (List.map (Placement.edit_to_string skeleton) injected));
          No_repair
        | sets ->
          List.iter
            (fun set ->
              let rt = Placement.apply skeleton set in
              if not (subset (outcome_set rt) allowed) then begin
                incr unsound;
                fail "%s: UNSOUND repair [%s]" skeleton.Lang.name
                  (String.concat "; " (List.map (Placement.edit_to_string skeleton) set))
              end;
              if not (Search.irredundant ~sound skeleton set) then begin
                incr redundant;
                fail "%s: REDUNDANT repair [%s]" skeleton.Lang.name
                  (String.concat "; " (List.map (Placement.edit_to_string skeleton) set))
              end)
            sets;
          (* differential: the cheapest repair on the timing simulator
             must stay inside its own WMM set (the fuzzer's core
             property, now applied to synthesized programs) *)
          let cheapest = Placement.apply skeleton (List.hd sets) in
          let own = outcome_set cheapest in
          let r = Sim_runner.run ~trials:sim_trials ~seed:(seed + i) cheapest in
          List.iter
            (fun (o, _) ->
              if not (List.mem o own) then begin
                incr sim_violations;
                fail "%s: simulator outcome outside WMM set: %s" cheapest.Lang.name o
              end)
            r.Sim_runner.outcomes;
          Repaired
      end
    end
  in
  {
    status;
    unsound = !unsound;
    redundant = !redundant;
    sim_violations = !sim_violations;
    oracle_calls = !calls;
    failures = List.rev !failures;
  }

let run ?(tests = 20) ?(seed = 2024) ?(max_edits = 2) ?(budget = 1200) () =
  let rng = Rng.create seed in
  let rounds = List.init tests (fun i -> run_round ~seed ~max_edits ~budget rng (i + 1)) in
  let count st = List.length (List.filter (fun r -> r.status = st) rounds) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rounds in
  {
    tests;
    skipped_no_devices = count Skipped_no_devices;
    stripped_still_sound = count Still_sound;
    repaired = count Repaired;
    no_repair = count No_repair;
    unsound = sum (fun r -> r.unsound);
    redundant = sum (fun r -> r.redundant);
    sim_violations = sum (fun r -> r.sim_violations);
    oracle_calls = sum (fun r -> r.oracle_calls);
    failures = List.concat_map (fun r -> r.failures) rounds;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "fix-soak: %d tests (%d no candidates, %d inert devices), %d repaired, %d \
     exhausted, %d oracle calls; unsound %d, redundant %d, sim violations %d"
    r.tests r.skipped_no_devices r.stripped_still_sound r.repaired r.no_repair
    r.oracle_calls r.unsound r.redundant r.sim_violations;
  List.iter (fun f -> Format.fprintf ppf "@.  %s" f) r.failures
