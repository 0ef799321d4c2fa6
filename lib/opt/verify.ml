(* The optimizer's re-verification loop.

   Loop-free programs get the exact oracle: the bounded-unroll slice
   semantics visits every block at most once per path on a DAG, so
   [Cfg.reachable] is the exhaustive WMM outcome set and soundness is
   bit-identical equality (fence edits only ever move the set in one
   direction, so equality also rules out silent strengthening).  Loopy
   programs are compared at the same unroll bound on both sides — the
   Joshi-Kroening reorder-bounded argument: any divergence within the
   bound is caught, and both programs are cut off identically — and
   additionally cross-checked dynamically: the happens-before sanitizer
   runs over the longest slices of both, and every racy pair the
   optimized program exhibits must already be present in the input. *)

module Lang = Armb_litmus.Lang
module Cfg = Armb_litmus.Cfg
module Enumerate = Armb_litmus.Enumerate
module Sim_runner = Armb_litmus.Sim_runner
module Sanitizer = Armb_check.Sanitizer

type verdict = {
  sound : bool;
  loop_free : bool;
  oracle : string;  (** which oracle produced the verdict *)
  detail : string;  (** human-readable evidence on failure *)
}

let loop_free (p : Cfg.program) =
  List.for_all (fun g -> not (Cfg.has_loop g)) p.Cfg.threads

(* The [n] longest slices, with their indices so both programs sample
   the same paths (fence edits never change the path structure). *)
let longest_slice_indices ?unroll n p =
  let len (s : Cfg.slice) =
    List.fold_left (fun acc (pa : Cfg.path) -> acc + List.length pa.Cfg.instrs) 0 s.Cfg.threads
  in
  Cfg.slices ?unroll p
  |> List.mapi (fun i s -> (i, len s))
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < n)
  |> List.map fst

let sanitizer_signatures ?unroll ~trials ~seed indices (p : Cfg.program) =
  let slices = Cfg.slices ?unroll p in
  List.concat_map
    (fun i ->
      match List.nth_opt slices i with
      | None -> []
      | Some s ->
        let t = Cfg.slice_test ~name:(Printf.sprintf "%s@hb%d" p.Cfg.name i) p s in
        let r = Sim_runner.run ~trials ~seed ~check:true t in
        List.map Sanitizer.signature r.Sim_runner.findings)
    indices
  |> List.sort_uniq compare

let check_trials = 25
let check_seed = 11

let equivalent ?(unroll = 2) (original : Cfg.program) (optimized : Cfg.program) =
  let ra = Cfg.reachable ~unroll Enumerate.Wmm original in
  let rb = Cfg.reachable ~unroll Enumerate.Wmm optimized in
  let equal = ra = rb in
  let lf = loop_free original && loop_free optimized in
  if lf then
    {
      sound = equal;
      loop_free = true;
      oracle = "enumerator (exact on loop-free)";
      detail =
        (if equal then "reachable outcome sets identical"
         else
           Printf.sprintf "outcome sets differ: %d vs %d outcomes" (List.length ra)
             (List.length rb));
    }
  else begin
    (* same paths on both sides: structure is fence-edit invariant *)
    let indices = longest_slice_indices ~unroll 2 original in
    let sa = sanitizer_signatures ~unroll ~trials:check_trials ~seed:check_seed indices original in
    let sb = sanitizer_signatures ~unroll ~trials:check_trials ~seed:check_seed indices optimized in
    let new_races = List.filter (fun s -> not (List.mem s sa)) sb in
    {
      sound = equal && new_races = [];
      loop_free = false;
      oracle = Printf.sprintf "bounded unroll (%d) + happens-before sanitizer" unroll;
      detail =
        (if not equal then
           Printf.sprintf "bounded outcome sets differ: %d vs %d outcomes" (List.length ra)
             (List.length rb)
         else if new_races <> [] then
           Printf.sprintf "optimized program introduces %d racy pair(s): %s"
             (List.length new_races)
             (String.concat "; " new_races)
         else "bounded outcome sets identical, no new racy pairs");
    }
  end
