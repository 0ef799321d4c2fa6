module Plan = Armb_fault.Plan

type row = {
  test_name : string;
  intensity : float;
  plan_seed : int;
  trials : int;
  forbidden : bool;
  drift : float;
  illegal : string list;
  findings : int;
  fault_digest : int64;
  fault_delay : int;
  row_ok : bool;
}

type summary = {
  intensity : float;
  rows : int;
  mean_drift : float;
  max_drift : float;
  illegal_total : int;
  findings_on_forbidden : int;
  delay_total : int;
}

type sweep = { results : row list; summaries : summary list; ok : bool }

let drift a b =
  let total h = float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 h) in
  let ta = total a and tb = total b in
  if ta = 0. || tb = 0. then 0.
  else begin
    let names = List.sort_uniq compare (List.map fst a @ List.map fst b) in
    let p h t o =
      match List.assoc_opt o h with Some n -> float_of_int n /. t | None -> 0.
    in
    0.5 *. List.fold_left (fun acc o -> acc +. Float.abs (p a ta o -. p b tb o)) 0. names
  end

let sweep ?cfg ?(trials = 40) ?(seed = 42) ?(intensities = [ 0.25; 0.5; 1.0 ])
    ?(plan_seeds = [ 1; 2; 3 ]) ?(tests = Catalogue.all) () =
  let intensities = List.sort_uniq compare intensities in
  let results =
    List.concat_map
      (fun (t : Lang.test) ->
        (* One faults-off baseline per test; the same litmus seed drives
           every perturbed run so drift isolates the plan's effect. *)
        let base = Sim_runner.run ?cfg ~trials ~seed t in
        let allowed =
          List.map Enumerate.outcome_to_string (Enumerate.enumerate Enumerate.Wmm t)
        in
        let forbidden = not t.Lang.expect_wmm in
        List.concat_map
          (fun intensity ->
            List.map
              (fun plan_seed ->
                let plan = Plan.of_intensity ~seed:plan_seed intensity in
                let r = Sim_runner.run ?cfg ~trials ~seed ~check:true ~fault:plan t in
                let illegal =
                  List.filter_map
                    (fun (o, _) -> if List.mem o allowed then None else Some o)
                    r.Sim_runner.outcomes
                in
                let findings = List.length r.Sim_runner.findings in
                (* Fenced-to-forbidden tests must stay sanitizer-clean:
                   latency can't break a preserved-order edge.  Racy
                   tests are expected to be flagged; their count is
                   informational. *)
                let row_ok = illegal = [] && ((not forbidden) || findings = 0) in
                {
                  test_name = t.Lang.name;
                  intensity;
                  plan_seed;
                  trials;
                  forbidden;
                  drift = drift r.Sim_runner.outcomes base.Sim_runner.outcomes;
                  illegal;
                  findings;
                  fault_digest = r.Sim_runner.fault_digest;
                  fault_delay = r.Sim_runner.fault_delay;
                  row_ok;
                })
              plan_seeds)
          intensities)
      tests
  in
  let summaries =
    List.map
      (fun intensity ->
        let rs = List.filter (fun (r : row) -> r.intensity = intensity) results in
        let n = List.length rs in
        let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rs in
        {
          intensity;
          rows = n;
          mean_drift = (if n = 0 then 0. else sum (fun r -> r.drift) /. float_of_int n);
          max_drift = List.fold_left (fun acc r -> Float.max acc r.drift) 0. rs;
          illegal_total =
            List.fold_left (fun acc r -> acc + List.length r.illegal) 0 rs;
          findings_on_forbidden =
            List.fold_left (fun acc r -> if r.forbidden then acc + r.findings else acc) 0 rs;
          delay_total = List.fold_left (fun acc r -> acc + r.fault_delay) 0 rs;
        })
      intensities
  in
  { results; summaries; ok = List.for_all (fun r -> r.row_ok) results }

let pp_row ppf r =
  Format.fprintf ppf "%-18s x=%.2f seed=%d drift=%.3f delay=%d findings=%d%s %s" r.test_name
    r.intensity r.plan_seed r.drift r.fault_delay r.findings
    (match r.illegal with
    | [] -> ""
    | os -> Printf.sprintf " ILLEGAL[%s]" (String.concat "; " os))
    (if r.row_ok then "ok" else "FAIL")

let pp_summary ppf s =
  Format.fprintf ppf
    "x=%.2f rows=%d mean-drift=%.3f max-drift=%.3f illegal=%d forbidden-findings=%d \
     extra-cycles=%d"
    s.intensity s.rows s.mean_drift s.max_drift s.illegal_total s.findings_on_forbidden
    s.delay_total
