(* Cost-ranked whole-program fence optimization (BarrierSetter-style
   algorithm ladder):

   - SINGLE_BB:      the merge pass confined to one basic block — pends
                     die at the block boundary.
   - LINEAR_SCAN:    the merge pass carrying pends across straight
                     chain edges (the default pass shape).
   - SECOND_CHANCE:  LINEAR_SCAN, then a greedy oracle-guided pass that
                     offers every surviving fence a second chance to
                     disappear or weaken: a candidate edit is kept only
                     if the WMM-reachable outcome set stays bit-
                     identical to the *original* program's.  This is
                     what removes fences the static pass cannot prove
                     redundant — ones subsumed by acquire/release
                     attributes or dependencies.

   Every result is priced on all calibrated platform models by summing
   the timing simulator's average makespan over the longest slices
   (same paths on both sides), and reverted wholesale if any platform
   got slower — the optimizer never trades one platform against
   another. *)

module Lang = Armb_litmus.Lang
module Cfg = Armb_litmus.Cfg
module Enumerate = Armb_litmus.Enumerate
module Catalogue = Armb_litmus.Catalogue
module Cost = Armb_synth.Cost
module Placement = Armb_synth.Placement

type algorithm = Single_bb | Linear_scan | Second_chance

let algorithm_name = function
  | Single_bb -> "single-bb"
  | Linear_scan -> "linear-scan"
  | Second_chance -> "second-chance"

let algorithm_of_string s =
  match String.lowercase_ascii s with
  | "single-bb" | "single_bb" | "single" -> Some Single_bb
  | "linear-scan" | "linear_scan" | "linear" -> Some Linear_scan
  | "second-chance" | "second_chance" | "second" -> Some Second_chance
  | _ -> None

type result = {
  name : string;
  algorithm : algorithm;
  input : Cfg.program;
  optimized : Cfg.program;
  input_fences : int;
  output_fences : int;
  removed : int;
  weakened : int;
  merged : int;
  verdict : Verify.verdict;
  costs_before : Cost.platform_cost list;
  costs_after : Cost.platform_cost list;
  reverted : bool;  (** optimization undone: some platform got slower *)
}

(* ---------- second chance ---------- *)

(* (thread, label, in-block index, fence) of every reachable non-DSB
   fence; DSB is pinned (see Passes). *)
let fence_sites (p : Cfg.program) =
  List.concat
    (List.mapi
       (fun th (g : Cfg.thread_cfg) ->
         List.concat_map
           (fun (b : Cfg.block) ->
             List.mapi (fun idx instr -> (idx, instr)) b.Cfg.body
             |> List.filter_map (fun (idx, instr) ->
                    match instr with
                    | Lang.Fence Lang.F_dsb -> None
                    | Lang.Fence f -> Some (th, b.Cfg.label, idx, f)
                    | _ -> None))
           (Cfg.reachable_blocks g))
       p.Cfg.threads)

let edit_body (p : Cfg.program) th lbl f =
  {
    p with
    Cfg.threads =
      List.mapi
        (fun i (g : Cfg.thread_cfg) ->
          if i <> th then g
          else
            {
              g with
              Cfg.blocks =
                List.map
                  (fun (b : Cfg.block) ->
                    if b.Cfg.label = lbl then { b with Cfg.body = f b.Cfg.body } else b)
                  g.Cfg.blocks;
            })
        p.Cfg.threads;
  }

let delete_at p th lbl idx = edit_body p th lbl (List.filteri (fun i _ -> i <> idx))

let replace_at p th lbl idx f =
  edit_body p th lbl (List.mapi (fun i x -> if i = idx then Lang.Fence f else x))

(* Candidate screening uses the bounded reachable set alone (the full
   verdict, sanitizer included, runs once on the final program). *)
let second_chance ~unroll ~reference q0 =
  let ref_reachable = Cfg.reachable ~unroll Enumerate.Wmm reference in
  let keeps p = Cfg.reachable ~unroll Enumerate.Wmm p = ref_reachable in
  let removed = ref 0 and weakened = ref 0 in
  (* deletions first: cheapest possible outcome for a site *)
  let rec delete_pass q =
    let try_site q site =
      let th, lbl, idx, _ = site in
      let candidate = delete_at q th lbl idx in
      if keeps candidate then Some candidate else None
    in
    match List.find_map (fun s -> try_site q s) (fence_sites q) with
    | Some q' ->
      incr removed;
      delete_pass q'
    | None -> q
  in
  let q = delete_pass q0 in
  (* then weaken survivors to the cheapest kind the oracle accepts *)
  let weaken_site q (th, lbl, idx, f) =
    let candidates =
      List.filter
        (fun f' -> Placement.fence_cost f' < Placement.fence_cost f)
        [ Lang.F_dmb_st; Lang.F_dmb_ld; Lang.F_isb; Lang.F_dmb_full ]
    in
    let rec try_kinds = function
      | [] -> q
      | f' :: rest ->
        let candidate = replace_at q th lbl idx f' in
        if keeps candidate then begin
          incr weakened;
          candidate
        end
        else try_kinds rest
    in
    try_kinds candidates
  in
  let q = List.fold_left (fun q site -> weaken_site q site) q (fence_sites q) in
  (q, !removed, !weakened)

(* ---------- costing ---------- *)

(* Sum the per-platform average makespan over the [n] longest slices.
   Both programs are sampled at the same path indices — fence edits
   never change the path structure, so this is a like-for-like race. *)
let program_cost ?(unroll = 2) ?(slices = 3) ~trials ~seed (p : Cfg.program) =
  let indices = Verify.longest_slice_indices ~unroll slices p in
  let all = Cfg.slices ~unroll p in
  let per_slice =
    List.filter_map
      (fun i ->
        Option.map
          (fun s ->
            Cost.measure ~trials ~seed
              (Cfg.slice_test ~name:(Printf.sprintf "%s@cost%d" p.Cfg.name i) p s))
          (List.nth_opt all i))
      indices
  in
  match per_slice with
  | [] -> []
  | first :: rest ->
    List.fold_left
      (fun acc costs ->
        List.map2
          (fun (a : Cost.platform_cost) (c : Cost.platform_cost) ->
            { a with Cost.cycles = a.Cost.cycles +. c.Cost.cycles })
          acc costs)
      first rest

(* ---------- the driver ---------- *)

let optimize ?(algorithm = Second_chance) ?(unroll = 2) ?(cost = true) ?(trials = 30)
    ?(seed = 42) (p : Cfg.program) =
  let cross_block = algorithm <> Single_bb in
  let merged, stats = Passes.merge ~cross_block p in
  let rename q = { q with Cfg.name = p.Cfg.name ^ "+opt" } in
  (* The second-chance screen is reachable-set equality alone; the full
     verdict (sanitizer included) gates the result, and if it rejects
     the oracle-guided edits we fall back to the structurally sound
     merge-only program.  (The screen can accept a deletion whose
     reordering is invisible in the projected outcomes yet still
     introduces a racy pair — e.g. dropping MP+spin's producer dmb.st
     when the consumer side was already racy.) *)
  let q, sc_weakened, verdict =
    match algorithm with
    | Second_chance ->
      let q_sc, _sc_removed, sc_weakened = second_chance ~unroll ~reference:p merged in
      let q_sc = rename q_sc in
      let verdict_sc = Verify.equivalent ~unroll p q_sc in
      if verdict_sc.Verify.sound || q_sc = rename merged then (q_sc, sc_weakened, verdict_sc)
      else
        let q_m = rename merged in
        (q_m, 0, Verify.equivalent ~unroll p q_m)
    | Single_bb | Linear_scan ->
      let q_m = rename merged in
      (q_m, 0, Verify.equivalent ~unroll p q_m)
  in
  let input_fences = Cfg.fence_count p and output_fences = Cfg.fence_count q in
  let costs_before, costs_after =
    if cost then (program_cost ~unroll ~trials ~seed p, program_cost ~unroll ~trials ~seed q)
    else ([], [])
  in
  let reverted = cost && verdict.Verify.sound && not (Cost.cheaper_or_equal costs_after costs_before) in
  let q, output_fences, costs_after =
    if reverted then (p, input_fences, costs_before) else (q, output_fences, costs_after)
  in
  {
    name = p.Cfg.name;
    algorithm;
    input = p;
    optimized = q;
    input_fences;
    output_fences;
    removed = (if reverted then 0 else input_fences - output_fences);
    weakened = (if reverted then 0 else stats.Passes.weakened + sc_weakened);
    merged = (if reverted then 0 else stats.Passes.merged);
    verdict;
    costs_before;
    costs_after;
    reverted;
  }

(* ---------- the catalogue sweep ---------- *)

(* Every straight-line catalogue test (lifted) and every control-flow
   test, each both as-is and over-fenced — the benchmark [armb opt]
   and CI report on.  Built once: the service looks a named program up
   here on every request that names one. *)
let sweep_inputs =
  let base = List.map Cfg.of_test Catalogue.all @ Catalogue.cfg_all in
  base @ List.map Passes.over_fence base

(* [sweep_inputs] under lowercased names, so a lookup lowercases only its query *)
let by_name =
  List.map (fun (p : Cfg.program) -> (String.lowercase_ascii p.Cfg.name, p)) sweep_inputs

let find_input name =
  let name = String.lowercase_ascii name in
  List.find_map (fun (n, p) -> if String.equal n name then Some p else None) by_name

let sweep ?algorithm ?unroll ?cost ?trials ?seed () =
  List.map (optimize ?algorithm ?unroll ?cost ?trials ?seed) sweep_inputs

(* An input "improved" when a barrier disappeared or got weaker. *)
let improved r = (not r.reverted) && (r.removed > 0 || r.weakened > 0)
