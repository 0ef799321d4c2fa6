(* Markdown and JSON rendering of optimizer results (the [armb opt]
   report and the CI artifact). *)

module Cost = Armb_synth.Cost
module Json = Armb_json.Json

let pct_saving before after =
  if before <= 0.0 then 0.0 else (before -. after) /. before *. 100.0

let cost_pairs (r : Optimizer.result) =
  List.map
    (fun (cb : Cost.platform_cost) ->
      let after =
        match
          List.find_opt (fun (ca : Cost.platform_cost) -> ca.Cost.platform = cb.Cost.platform)
            r.Optimizer.costs_after
        with
        | Some ca -> ca.Cost.cycles
        | None -> cb.Cost.cycles
      in
      (cb.Cost.platform, cb.Cost.cycles, after))
    r.Optimizer.costs_before

let summary_counts results =
  let count f = List.length (List.filter f results) in
  ( List.length results,
    count (fun (r : Optimizer.result) -> not r.Optimizer.verdict.Verify.sound),
    count (fun (r : Optimizer.result) -> r.Optimizer.output_fences > r.Optimizer.input_fences),
    count Optimizer.improved )

let markdown results =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let total, unsound, increase, improved = summary_counts results in
  add "# armb opt report\n\n";
  (match results with
  | r :: _ -> add "Algorithm: `%s`.\n\n" (Optimizer.algorithm_name r.Optimizer.algorithm)
  | [] -> ());
  add "%d programs; %d improved, %d unsound, %d with more fences than input.\n\n" total
    improved unsound increase;
  add "| test | loops | fences in → out | removed | weakened | merged | sound | reverted |";
  List.iter (fun p -> add " %s Δ%% |" p) Cost.platforms;
  add "\n|---|---|---|---|---|---|---|---|";
  List.iter (fun _ -> add "---|") Cost.platforms;
  add "\n";
  List.iter
    (fun (r : Optimizer.result) ->
      add "| %s | %s | %d → %d | %d | %d | %d | %s | %s |" r.Optimizer.name
        (if Verify.loop_free r.Optimizer.input then "no" else "yes")
        r.Optimizer.input_fences r.Optimizer.output_fences r.Optimizer.removed
        r.Optimizer.weakened r.Optimizer.merged
        (if r.Optimizer.verdict.Verify.sound then "yes" else "**NO**")
        (if r.Optimizer.reverted then "yes" else "no");
      List.iter
        (fun pl ->
          match
            List.find_opt (fun (p, _, _) -> p = pl) (cost_pairs r)
          with
          | Some (_, before, after) -> add " %.1f |" (pct_saving before after)
          | None -> add " – |")
        Cost.platforms;
      add "\n")
    results;
  add "\nPer-platform columns show estimated-cycle savings (positive = faster) on the\n";
  add "longest bounded-unroll slices, summed; a reverted row kept its input.\n";
  Buffer.contents buf

let json results =
  let total, unsound, increase, improved = summary_counts results in
  let algorithm =
    match results with
    | r :: _ -> [ ("algorithm", Json.Str (Optimizer.algorithm_name r.Optimizer.algorithm)) ]
    | [] -> []
  in
  let result (r : Optimizer.result) =
    Json.Obj
      [
        ("name", Json.Str r.Optimizer.name);
        ("loop_free", Json.Bool (Verify.loop_free r.Optimizer.input));
        ("input_fences", Json.Int r.Optimizer.input_fences);
        ("output_fences", Json.Int r.Optimizer.output_fences);
        ("removed", Json.Int r.Optimizer.removed);
        ("weakened", Json.Int r.Optimizer.weakened);
        ("merged", Json.Int r.Optimizer.merged);
        ("sound", Json.Bool r.Optimizer.verdict.Verify.sound);
        ("reverted", Json.Bool r.Optimizer.reverted);
        ("oracle", Json.Str r.Optimizer.verdict.Verify.oracle);
        ( "costs",
          Json.List
            (List.map
               (fun (pl, before, after) ->
                 Json.Obj
                   [
                     ("platform", Json.Str pl);
                     ("before", Json.Float before);
                     ("after", Json.Float after);
                   ])
               (cost_pairs r)) );
      ]
  in
  Json.Obj
    (algorithm
    @ [
        ( "summary",
          Json.Obj
            [
              ("programs", Json.Int total);
              ("improved", Json.Int improved);
              ("unsound", Json.Int unsound);
              ("fence_increase", Json.Int increase);
            ] );
        ("results", Json.List (List.map result results));
      ])
