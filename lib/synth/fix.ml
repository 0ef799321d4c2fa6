module Lang = Armb_litmus.Lang
module Mutate = Armb_litmus.Mutate
module Catalogue = Armb_litmus.Catalogue
module Ordering = Armb_core.Ordering

type kind = Edits of Placement.edit list | Pilot

type repair = {
  label : string;
  kind : kind;
  test : Lang.test;
  static_cost : int;
  irredundant : bool;
  advisor : string list;
  costs : Cost.platform_cost list;
}

type outcome = {
  original : Lang.test;
  already_sound : bool;
  repairs : repair list;
  winners : (string * repair) list;
  search_complete : bool;
  oracle_calls : int;
}

let edits_label t es = String.concat " & " (List.map (Placement.edit_to_string t) es)

let advisor_hints t es =
  List.map
    (fun e ->
      match Placement.advisor_hint t e with
      | Some o -> Ordering.to_string o
      | None -> "-")
    es

let pick_winners repairs =
  List.filter_map
    (fun platform ->
      let best =
        List.fold_left
          (fun acc r ->
            match List.find_opt (fun c -> c.Cost.platform = platform) r.costs with
            | None -> acc
            | Some c -> (
              match acc with
              | Some (_, cy) when cy <= c.Cost.cycles -> acc
              | _ -> Some (r, c.Cost.cycles)))
          None repairs
      in
      Option.map (fun (r, _) -> (platform, r)) best)
    Cost.platforms

let fix ?max_edits ?budget ?trials ?seed t =
  Search.check_limits ?max_edits ?budget ();
  if Search.default_sound t then
    {
      original = t;
      already_sound = true;
      repairs = [];
      winners = [];
      search_complete = true;
      oracle_calls = 1;
    }
  else begin
    (* one replaying oracle per job: the search's witnesses also
       decide the irredundancy re-check's subsets *)
    let ctx = Search.context t in
    let s = Search.search ?max_edits ?budget ~ctx t in
    let edit_repairs =
      List.map
        (fun es ->
          let repaired = Placement.apply t es in
          {
            label = edits_label t es;
            kind = Edits es;
            test = repaired;
            static_cost = Placement.total_cost es;
            irredundant = Search.irredundant ~ctx t es;
            advisor = advisor_hints t es;
            costs = Cost.measure ?trials ?seed repaired;
          })
        s.Search.repairs
    in
    (* The Pilot candidate bypasses the placement IR entirely (it
       changes the program's shape, so no need mask describes it); it
       is admitted only if the rewritten program itself passes the
       soundness oracle. *)
    let pilot_calls = ref 0 in
    let pilot_repairs =
      match Pilot_rewrite.rewrite t with
      | None -> []
      | Some (_, rewritten) ->
        incr pilot_calls;
        if Search.default_sound rewritten then
          [
            {
              label = "pilot: pack into one 64-bit word";
              kind = Pilot;
              test = rewritten;
              static_cost = 0;
              irredundant = true;
              advisor = [];
              costs = Cost.measure ?trials ?seed rewritten;
            };
          ]
        else []
    in
    let repairs = edit_repairs @ pilot_repairs in
    {
      original = t;
      already_sound = false;
      repairs;
      winners = pick_winners repairs;
      search_complete = s.Search.complete;
      oracle_calls = s.Search.oracle_calls + 1 + !pilot_calls;
    }
  end

type round_trip = {
  test_name : string;
  stripped : Lang.test;
  original_costs : Cost.platform_cost list;
  outcome : outcome;
  sufficient_ok : bool;
  irredundant_ok : bool;
  cost_ok : bool;
  pilot_expected : bool;
  pilot_ok : bool;
  ok : bool;
}

let strip_round_trip ?max_edits ?budget ?trials ?seed (t : Lang.test) =
  if t.Lang.expect_wmm || not (Mutate.has_strippable_devices ~keep_values:true t) then
    None
  else begin
    let stripped = Mutate.strip_order ~keep_values:true t in
    let original_costs = Cost.measure ?trials ?seed t in
    let outcome = fix ?max_edits ?budget ?trials ?seed stripped in
    let sufficient_ok =
      outcome.already_sound
      || (outcome.repairs <> []
         && List.for_all (fun r -> Search.default_sound r.test) outcome.repairs)
    in
    let irredundant_ok = List.for_all (fun r -> r.irredundant) outcome.repairs in
    let cost_ok =
      outcome.already_sound
      || List.for_all
           (fun (platform, r) ->
             match
               ( List.find_opt (fun c -> c.Cost.platform = platform) r.costs,
                 List.find_opt (fun c -> c.Cost.platform = platform) original_costs )
             with
             | Some w, Some o -> w.Cost.cycles <= o.Cost.cycles
             | _ -> true)
           outcome.winners
    in
    let pilot_expected = Pilot_rewrite.detect stripped <> None in
    let pilot_ok =
      (not pilot_expected)
      || (List.exists (fun r -> r.kind = Pilot) outcome.repairs
         && List.for_all (fun (_, r) -> r.kind = Pilot) outcome.winners)
    in
    let ok = sufficient_ok && irredundant_ok && cost_ok && pilot_ok in
    Some
      {
        test_name = t.Lang.name;
        stripped;
        original_costs;
        outcome;
        sufficient_ok;
        irredundant_ok;
        cost_ok;
        pilot_expected;
        pilot_ok;
        ok;
      }
  end

let catalogue_round_trips ?max_edits ?budget ?trials ?seed () =
  List.filter_map (strip_round_trip ?max_edits ?budget ?trials ?seed) Catalogue.all
