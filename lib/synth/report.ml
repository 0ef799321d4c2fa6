module Json = Armb_json.Json
module Lang = Armb_litmus.Lang

let pp_costs = Cost.pp

let kind_str = function Fix.Edits _ -> "edits" | Fix.Pilot -> "pilot"

let pp_repair ppf (r : Fix.repair) =
  Format.fprintf ppf "@[<v 2>%s  (static %d, %s%s)@,cost: %a@]" r.label r.static_cost
    (kind_str r.kind)
    (if r.irredundant then "" else ", REDUNDANT")
    pp_costs r.costs;
  match r.advisor with
  | [] -> ()
  | hints -> Format.fprintf ppf "@,  advisor: %s" (String.concat "; " hints)

let pp_outcome ppf (o : Fix.outcome) =
  Format.fprintf ppf "@[<v>test: %s@," o.original.Lang.name;
  if o.already_sound then
    Format.fprintf ppf "already sound: forbidden outcome unreachable, nothing to do@]"
  else begin
    Format.fprintf ppf "search: %d oracle calls%s, %d repair(s)@," o.oracle_calls
      (if o.search_complete then "" else " (budget exhausted: may be incomplete)")
      (List.length o.repairs);
    List.iter (fun r -> Format.fprintf ppf "- %a@," pp_repair r) o.repairs;
    Format.fprintf ppf "winners:@,";
    List.iter
      (fun (p, (r : Fix.repair)) -> Format.fprintf ppf "  %-14s %s@," p r.label)
      o.winners;
    Format.fprintf ppf "@]"
  end

let verdict b = if b then "ok" else "FAIL"

let pp_round_trip ppf (rt : Fix.round_trip) =
  Format.fprintf ppf
    "@[<v>== %s (stripped -> resynthesized) ==@,original cost: %a@,%a@,sufficient:%s \
     irredundant:%s cost:%s pilot:%s => %s@]"
    rt.test_name pp_costs rt.original_costs pp_outcome rt.outcome
    (verdict rt.sufficient_ok) (verdict rt.irredundant_ok) (verdict rt.cost_ok)
    (if rt.pilot_expected then verdict rt.pilot_ok else "n/a")
    (verdict rt.ok)

(* ---------- markdown ---------- *)

let buf_add = Buffer.add_string

let cost_on platform costs =
  match List.find_opt (fun c -> c.Cost.platform = platform) costs with
  | Some c -> c.Cost.cycles
  | None -> nan

let round_trips_markdown rts =
  let b = Buffer.create 4096 in
  buf_add b "# Repair report: strip -> resynthesize round trips\n\n";
  buf_add b
    "Each eligible catalogue test is stripped of its ordering devices (data-dependency \
     values kept), handed to the synthesizer, and the per-platform winner is compared \
     against the original hand-fenced version (simulated cycles per trial, lower is \
     better).\n\n";
  buf_add b "| test | repairs | ";
  List.iter (fun p -> buf_add b (Printf.sprintf "%s (orig) | " p)) Cost.platforms;
  buf_add b "verdict |\n|---|---|";
  List.iter (fun _ -> buf_add b "---|") Cost.platforms;
  buf_add b "---|\n";
  List.iter
    (fun (rt : Fix.round_trip) ->
      buf_add b (Printf.sprintf "| %s | %d | " rt.test_name (List.length rt.outcome.repairs));
      List.iter
        (fun p ->
          let orig = cost_on p rt.original_costs in
          match List.assoc_opt p rt.outcome.winners with
          | Some (r : Fix.repair) ->
            buf_add b (Printf.sprintf "%.1f (%.1f) | " (cost_on p r.costs) orig)
          | None -> buf_add b (Printf.sprintf "- (%.1f) | " orig))
        Cost.platforms;
      buf_add b
        (Printf.sprintf "%s%s |\n"
           (if rt.ok then "ok" else "FAIL")
           (if rt.pilot_expected then " (pilot)" else "")))
    rts;
  buf_add b "\n";
  List.iter
    (fun (rt : Fix.round_trip) ->
      buf_add b (Printf.sprintf "## %s\n\n```\n" rt.test_name);
      buf_add b (Format.asprintf "%a" pp_round_trip rt);
      buf_add b "\n```\n\n")
    rts;
  Buffer.contents b

(* ---------- JSON ---------- *)

let jcosts costs =
  Json.List
    (List.map
       (fun c ->
         Json.Obj
           [ ("platform", Json.Str c.Cost.platform); ("cycles", Json.Float c.Cost.cycles) ])
       costs)

let jrepair (r : Fix.repair) =
  Json.Obj
    [
      ("label", Json.Str r.label);
      ("kind", Json.Str (kind_str r.kind));
      ("static_cost", Json.Int r.static_cost);
      ("irredundant", Json.Bool r.irredundant);
      ("advisor", Json.List (List.map (fun h -> Json.Str h) r.advisor));
      ("costs", jcosts r.costs);
    ]

let outcome_json (o : Fix.outcome) =
  Json.Obj
    [
      ("test", Json.Str o.original.Lang.name);
      ("already_sound", Json.Bool o.already_sound);
      ("oracle_calls", Json.Int o.oracle_calls);
      ("search_complete", Json.Bool o.search_complete);
      ("repairs", Json.List (List.map jrepair o.repairs));
      ( "winners",
        Json.Obj (List.map (fun (p, (r : Fix.repair)) -> (p, Json.Str r.label)) o.winners) );
    ]

let round_trips_json rts =
  Json.List
    (List.map
       (fun (rt : Fix.round_trip) ->
         Json.Obj
           [
             ("test", Json.Str rt.test_name);
             ("original_costs", jcosts rt.original_costs);
             ("outcome", outcome_json rt.outcome);
             ("sufficient_ok", Json.Bool rt.sufficient_ok);
             ("irredundant_ok", Json.Bool rt.irredundant_ok);
             ("cost_ok", Json.Bool rt.cost_ok);
             ("pilot_expected", Json.Bool rt.pilot_expected);
             ("pilot_ok", Json.Bool rt.pilot_ok);
             ("ok", Json.Bool rt.ok);
           ])
       rts)
