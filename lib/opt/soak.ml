(* Optimizer fuzz soak: generate a random small CFG, over-fence it,
   optimize, and re-verify — asserting soundness (the optimized
   program's bounded WMM outcome set is bit-identical to the
   over-fenced input's) and barrier-count monotonicity (optimization
   never emits more fences than it was given).  Costing is skipped:
   this loop is about correctness volume, not pricing. *)

module Cfg = Armb_litmus.Cfg
module Fuzz = Armb_litmus.Fuzz
module Mutate = Armb_litmus.Mutate
module Rng = Armb_sim.Rng

type report = {
  rounds : int;
  unsound : int;  (** FATAL: optimized outcome set diverged *)
  fence_increase : int;  (** FATAL: more fences out than in *)
  improved : int;  (** rounds where a fence was removed or weakened *)
  fences_in : int;
  fences_out : int;
  failures : string list;
}

let ok r = r.unsound = 0 && r.fence_increase = 0

(* One round's tallies; [run] sums them into the report. *)
type round = {
  input_fences : int;
  output_fences : int;
  improved : bool;
  unsound : bool;
  fence_increase : bool;
  failures : string list;
}

let run_round ~algorithm ~unroll rng i =
  let p = Mutate.rename_cfg (Printf.sprintf "fuzz-cfg-%d" i) (Fuzz.generate_cfg rng) in
  let q = Passes.over_fence p in
  let r = Optimizer.optimize ~algorithm ~unroll ~cost:false q in
  let failures = ref [] in
  let unsound = not r.Optimizer.verdict.Verify.sound in
  if unsound then
    failures :=
      Printf.sprintf "%s: UNSOUND (%s): %s" q.Cfg.name r.Optimizer.verdict.Verify.oracle
        r.Optimizer.verdict.Verify.detail
      :: !failures;
  let fence_increase = r.Optimizer.output_fences > r.Optimizer.input_fences in
  if fence_increase then
    failures :=
      Printf.sprintf "%s: fence count grew %d -> %d" q.Cfg.name r.Optimizer.input_fences
        r.Optimizer.output_fences
      :: !failures;
  {
    input_fences = r.Optimizer.input_fences;
    output_fences = r.Optimizer.output_fences;
    improved = Optimizer.improved r;
    unsound;
    fence_increase;
    failures = List.rev !failures;
  }

let run ?(rounds = 12) ?(seed = 2025) ?(algorithm = Optimizer.Linear_scan) ?(unroll = 2)
    () =
  let rng = Rng.create seed in
  let rs = List.init rounds (fun i -> run_round ~algorithm ~unroll rng (i + 1)) in
  let count f = List.length (List.filter f rs) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  {
    rounds;
    unsound = count (fun r -> r.unsound);
    fence_increase = count (fun r -> r.fence_increase);
    improved = count (fun r -> r.improved);
    fences_in = sum (fun r -> r.input_fences);
    fences_out = sum (fun r -> r.output_fences);
    failures = List.concat_map (fun r -> r.failures) rs;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "opt soak: %d rounds, %d improved, fences %d -> %d, %d unsound, %d fence increases"
    r.rounds r.improved r.fences_in r.fences_out r.unsound r.fence_increase;
  List.iter (fun f -> Format.fprintf ppf "@.  %s" f) r.failures
