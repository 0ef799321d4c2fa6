(* Tests for the fence synthesizer: placement IR, minimal-repair search,
   the Pilot rewrite, catalogue strip/resynthesize round trips, the
   advisor-vs-enumerator agreement property, and the fuzz-repair soak. *)

module Lang = Armb_litmus.Lang
module Enum = Armb_litmus.Enumerate
module Sim = Armb_litmus.Sim_runner
module Cat = Armb_litmus.Catalogue
module Mut = Armb_litmus.Mutate
module Ordering = Armb_core.Ordering
module Advisor = Armb_core.Advisor
module Barrier = Armb_cpu.Barrier
module P = Armb_synth.Placement
module Search = Armb_synth.Search
module Cost = Armb_synth.Cost
module Pilot = Armb_synth.Pilot_rewrite
module Fix = Armb_synth.Fix
module Soak = Armb_synth.Soak
module Fuzz = Armb_litmus.Fuzz
module Gen = Armb_soak.Gen
module Codec = Armb_service.Codec
module Engine = Armb_service.Engine
module Job = Armb_service.Job

let check = Alcotest.check

let allows = Enum.allows Enum.Wmm

(* ---------- Mutate (moved out of Sim_runner) ---------- *)

let test_strip_keep_values () =
  let stripped = Mut.strip_order ~keep_values:true Cat.lb_data_dep in
  (* data-dependency values survive a keep-values strip *)
  let has_reg_store =
    List.exists
      (List.exists (function
        | Lang.Store { v = Lang.Reg _; _ } -> true
        | _ -> false))
      stripped.Lang.threads
  in
  check Alcotest.bool "Reg values kept" true has_reg_store;
  check Alcotest.bool "still forbidden" false (allows stripped);
  (* the default strip severs them *)
  let severed = Mut.strip_order Cat.lb_data_dep in
  let has_reg_store' =
    List.exists
      (List.exists (function
        | Lang.Store { v = Lang.Reg _; _ } -> true
        | _ -> false))
      severed.Lang.threads
  in
  check Alcotest.bool "Reg values severed" false has_reg_store';
  check Alcotest.bool "race resurfaces" true (allows severed)

let test_mutate_point_edits () =
  let t = Mut.strip_order ~keep_values:true Cat.mp_dmb in
  let with_fence = Mut.insert_fence ~thread:0 ~pos:1 Lang.F_dmb_st t in
  (match with_fence.Lang.threads with
  | [ [ _; Lang.Fence Lang.F_dmb_st; _ ]; _ ] -> ()
  | _ -> Alcotest.fail "fence not inserted at producer gap");
  let acq = Mut.set_acquire ~thread:1 ~idx:0 t in
  (match acq.Lang.threads with
  | [ _; Lang.Load { acquire = true; _ } :: _ ] -> ()
  | _ -> Alcotest.fail "acquire not set");
  let rel = Mut.set_release ~thread:0 ~idx:1 t in
  (match rel.Lang.threads with
  | [ [ _; Lang.Store { release = true; _ } ]; _ ] -> ()
  | _ -> Alcotest.fail "release not set")

(* ---------- first-class ctrl+ISB ---------- *)

let mp_with_consumer consumer =
  {
    Cat.mp with
    Lang.name = "MP+test-consumer";
    threads =
      [ [ Lang.st "data" 23L; Lang.fence Lang.F_dmb_st; Lang.st "flag" 1L ]; consumer ];
  }

let test_isb_enumerator () =
  (* ctrl+ISB on the consumer orders the two loads: forbidden *)
  let isb =
    mp_with_consumer [ Lang.ld "flag" "r1"; Lang.fence Lang.F_isb; Lang.ld "data" "r2" ]
  in
  check Alcotest.bool "MP+isb forbidden" false (allows isb);
  (* a store fence on the load side orders nothing: still allowed *)
  let st_fence =
    mp_with_consumer
      [ Lang.ld "flag" "r1"; Lang.fence Lang.F_dmb_st; Lang.ld "data" "r2" ]
  in
  check Alcotest.bool "MP+dmb.st-consumer allowed" true (allows st_fence)

let test_isb_no_store_order () =
  (* ISB never orders store->store: 2+2W stays weak under it *)
  let t =
    {
      Cat.two_plus_two_w with
      Lang.name = "2+2W+isbs";
      threads =
        [
          [ Lang.st "x" 1L; Lang.fence Lang.F_isb; Lang.st "y" 2L ];
          [ Lang.st "y" 1L; Lang.fence Lang.F_isb; Lang.st "x" 2L ];
        ];
    }
  in
  check Alcotest.bool "2+2W+isbs still allowed" true (allows t)

let test_isb_sim_and_sanitizer () =
  let isb =
    mp_with_consumer [ Lang.ld "flag" "r1"; Lang.fence Lang.F_isb; Lang.ld "data" "r2" ]
  in
  let r = Sim.run ~trials:60 ~check:true isb in
  check Alcotest.bool "sim never witnesses forbidden outcome" false
    r.Sim.interesting_witnessed;
  check Alcotest.bool "consistent with model" true (Sim.consistent_with_model r isb);
  check Alcotest.int "sanitizer clean" 0 (List.length r.Sim.findings)

(* ---------- placement ---------- *)

let test_apply_reconstructs () =
  let stripped = Mut.strip_order ~keep_values:true Cat.mp_dmb in
  let repaired =
    P.apply stripped
      [
        P.Insert_fence { thread = 0; pos = 1; fence = Lang.F_dmb_st };
        P.Insert_fence { thread = 1; pos = 1; fence = Lang.F_dmb_ld };
      ]
  in
  check Alcotest.bool "same threads as hand-fenced original" true
    (repaired.Lang.threads = Cat.mp_dmb.Lang.threads);
  check Alcotest.bool "forbidden again" false (allows repaired)

let test_candidates_value_neutral () =
  (* no candidate edit may change a stored value *)
  let values t =
    List.map
      (List.filter_map (function
        | Lang.Store { v; var; _ } -> Some (var, v)
        | _ -> None))
      t.Lang.threads
  in
  List.iter
    (fun (t : Lang.test) ->
      let base = values t in
      List.iter
        (fun e ->
          let edited = values (P.apply t [ e ]) in
          if edited <> base then
            Alcotest.failf "%s: edit %s changed stored values" t.Lang.name
              (P.edit_to_string t e))
        (P.candidates t))
    [ Cat.mp; Cat.sb; Cat.lb; Mut.strip_order ~keep_values:true Cat.wrc ]

(* ---------- advisor vs enumerator (property) ---------- *)

(* Canonical two-thread tests where exactly one program-order pair on
   the "device side" must be ordered; the other side is fully ordered
   by construction.  A device is applied at that pair and the
   enumerator's verdict (forbidden iff the device suffices) must agree
   with [Advisor.sufficient] for the corresponding pair kind. *)

type pattern = {
  pat_name : string;
  base : Lang.test;  (** device side bare; weak outcome reachable *)
  device_thread : int;
  from_ : Advisor.from_access;
  to_ : Advisor.to_access;
}

let mp_ll =
  {
    pat_name = "load->load (MP consumer)";
    base =
      {
        Cat.mp with
        Lang.name = "pat-ll";
        threads =
          [
            [ Lang.st "data" 23L; Lang.fence Lang.F_dmb_st; Lang.st "flag" 1L ];
            [ Lang.ld "flag" "r1"; Lang.ld "data" "r2" ];
          ];
      };
    device_thread = 1;
    from_ = Advisor.From_load;
    to_ = Advisor.To_load;
  }

let lb_ls =
  {
    pat_name = "load->store (LB side)";
    base =
      {
        Cat.lb with
        Lang.name = "pat-ls";
        threads =
          [
            [ Lang.ld "x" "r1"; Lang.st "y" 2L ];
            [ Lang.ld "y" "r1"; Lang.st ~addr_dep:"r1" "x" 3L ];
          ];
        interesting = (fun o -> o "0:r1" = 3L && o "1:r1" = 2L);
      };
    device_thread = 0;
    from_ = Advisor.From_load;
    to_ = Advisor.To_store;
  }

let mp_ss =
  {
    pat_name = "store->store (MP producer)";
    base =
      {
        Cat.mp with
        Lang.name = "pat-ss";
        threads =
          [
            [ Lang.st "data" 23L; Lang.st "flag" 1L ];
            [ Lang.ld "flag" "r1"; Lang.ld ~addr_dep:"r1" "data" "r2" ];
          ];
      };
    device_thread = 0;
    from_ = Advisor.From_store;
    to_ = Advisor.To_store;
  }

let sb_sl =
  {
    pat_name = "store->load (SB side)";
    base =
      {
        Cat.sb with
        Lang.name = "pat-sl";
        threads =
          [
            [ Lang.st "x" 1L; Lang.ld "y" "r1" ];
            [ Lang.st "y" 1L; Lang.fence Lang.F_dmb_full; Lang.ld "x" "r1" ];
          ];
      };
    device_thread = 0;
    from_ = Advisor.From_store;
    to_ = Advisor.To_load;
  }

let patterns = [ mp_ll; lb_ls; mp_ss; sb_sl ]

(* Approaches expressible as value-neutral point edits.  [Data_dep] and
   [Ctrl_dep] are absent by design: the first changes stored values, the
   second is represented by [Addr_dep] in this language. *)
let approaches =
  [
    Ordering.Bar (Barrier.Dmb Full);
    Ordering.Bar (Barrier.Dmb St);
    Ordering.Bar (Barrier.Dmb Ld);
    Ordering.Bar (Barrier.Dsb Full);
    Ordering.Ctrl_isb;
    Ordering.Ldar_acquire;
    Ordering.Stlr_release;
    Ordering.Addr_dep;
  ]

let edit_of_approach (p : pattern) approach =
  let th = p.device_thread in
  let first_is_load = p.from_ = Advisor.From_load in
  let second_is_store = p.to_ = Advisor.To_store in
  let first_reg =
    match List.nth (List.nth p.base.Lang.threads th) 0 with
    | Lang.Load { reg; _ } -> Some reg
    | _ -> None
  in
  match approach with
  | Ordering.Bar (Barrier.Dmb Full) ->
    Some (P.Insert_fence { thread = th; pos = 1; fence = Lang.F_dmb_full })
  | Ordering.Bar (Barrier.Dmb St) ->
    Some (P.Insert_fence { thread = th; pos = 1; fence = Lang.F_dmb_st })
  | Ordering.Bar (Barrier.Dmb Ld) ->
    Some (P.Insert_fence { thread = th; pos = 1; fence = Lang.F_dmb_ld })
  | Ordering.Bar (Barrier.Dsb Full) ->
    Some (P.Insert_fence { thread = th; pos = 1; fence = Lang.F_dsb })
  | Ordering.Ctrl_isb when first_is_load ->
    Some (P.Insert_fence { thread = th; pos = 1; fence = Lang.F_isb })
  | Ordering.Ldar_acquire when first_is_load ->
    Some (P.Make_acquire { thread = th; idx = 0 })
  | Ordering.Stlr_release when second_is_store ->
    Some (P.Make_release { thread = th; idx = 1 })
  | Ordering.Addr_dep when first_is_load -> (
    match first_reg with
    | Some reg -> Some (P.Add_addr_dep { thread = th; idx = 1; reg })
    | None -> None)
  | _ -> None

let test_advisor_agrees_with_enumerator () =
  List.iter
    (fun p ->
      check Alcotest.bool (p.pat_name ^ ": weak outcome reachable bare") true
        (allows p.base);
      List.iter
        (fun approach ->
          match edit_of_approach p approach with
          | None -> ()
          | Some e ->
            let armed = P.apply p.base [ e ] in
            let enum_sufficient = not (allows armed) in
            let advisor_sufficient =
              Advisor.sufficient approach ~from_:p.from_ ~to_:p.to_
            in
            if enum_sufficient <> advisor_sufficient then
              Alcotest.failf "%s with %s: enumerator says %b, advisor says %b"
                p.pat_name (Ordering.to_string approach) enum_sufficient
                advisor_sufficient)
        approaches)
    patterns

(* ---------- search ---------- *)

let test_search_minimal_on_mp () =
  let stripped = Mut.strip_order ~keep_values:true Cat.mp_dmb in
  let s = Search.search stripped in
  check Alcotest.bool "search complete" true s.Search.complete;
  check Alcotest.bool "found repairs" true (s.Search.repairs <> []);
  List.iter
    (fun set ->
      if not (Search.irredundant ~sound:Search.default_sound stripped set) then
        Alcotest.failf "redundant repair [%s]"
          (String.concat "; " (List.map (P.edit_to_string stripped) set)))
    s.Search.repairs;
  (* the hand-written fencing must be among the minimal repairs *)
  let reconstruction =
    [
      P.Insert_fence { thread = 0; pos = 1; fence = Lang.F_dmb_st };
      P.Insert_fence { thread = 1; pos = 1; fence = Lang.F_dmb_ld };
    ]
  in
  check Alcotest.bool "hand fencing rediscovered" true
    (List.exists
       (fun set -> List.sort compare set = List.sort compare reconstruction)
       s.Search.repairs)

let test_search_single_edit_on_wrc () =
  let stripped = Mut.strip_order ~keep_values:true Cat.wrc in
  let s = Search.search stripped in
  check Alcotest.bool "search complete" true s.Search.complete;
  (* the reader's lost address dependency comes back as a 1-edit fix *)
  check Alcotest.bool "single-edit repair exists" true
    (List.exists (fun set -> List.length set = 1) s.Search.repairs)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_limits_below_one () =
  let stripped = Mut.strip_order ~keep_values:true Cat.mp_dmb in
  let rejects says f =
    match f () with
    | _ -> Alcotest.failf "accepted where %S was due" says
    | exception Invalid_argument msg ->
      if not (contains msg says) then Alcotest.failf "error %S lacks %S" msg says
  in
  rejects "max_edits must be at least 1 (got 0)" (fun () ->
      ignore (Search.search ~max_edits:0 stripped));
  rejects "budget must be at least 1 (got 0)" (fun () ->
      ignore (Search.search ~budget:0 ~sound:Search.default_sound stripped));
  (* MP+dmb needs no repair: the limits are checked before that answer *)
  rejects "max_edits must be at least 1 (got -1)" (fun () ->
      ignore (Fix.fix ~max_edits:(-1) Cat.mp_dmb));
  rejects "budget must be at least 1 (got 0)" (fun () ->
      ignore (Fix.fix ~budget:0 Cat.mp_dmb));
  let s = Search.search ~max_edits:1 ~budget:1 stripped in
  check Alcotest.int "a budget of 1 decides one set" 1 s.Search.oracle_calls

(* ---------- the replaying oracle ---------- *)

(* The inputs the replaying oracle serves: the stripped catalogue of
   [armb fix --all] at its limits, the service pool's fix skeletons at
   theirs, and the fixed fuzz corpus of the sanitizer-findings golden. *)
let stripped_catalogue () =
  List.filter_map
    (fun (t : Lang.test) ->
      if t.Lang.expect_wmm || not (Mut.has_strippable_devices ~keep_values:true t) then
        None
      else Some (Mut.strip_order ~keep_values:true t))
    Cat.all

let pool_fix_jobs () =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (j : Gen.job) ->
      match Codec.request_of_line j.Gen.line with
      | Ok { Engine.job = { Job.spec = Job.Fix { test; max_edits; budget }; _ }; _ }
        when not (Hashtbl.mem seen test.Lang.name) ->
        Hashtbl.add seen test.Lang.name ();
        Some (test, max_edits, budget)
      | _ -> None)
    (Gen.stream ~pool:54 ~alpha:0.0 ~requests:1000 ~seed:1 ())

let fuzz_corpus () =
  let rng = Armb_sim.Rng.create 2026 in
  List.init 50 (fun _ -> Fuzz.generate ~with_isb:true rng)

let two_deps_on_one_access set =
  let deps =
    List.filter_map
      (function P.Add_addr_dep { thread; idx; _ } -> Some (thread, idx) | _ -> None)
      set
  in
  List.length (List.sort_uniq compare deps) < List.length deps

(* Every edit only adds need bits: a set's masks are the base's OR each
   edit's delta, for every set of up to 3 candidates.  [needs_of] also
   pins that no edit changes an access's thread, bit or cells. *)
let test_need_deltas_compose () =
  let pool = List.map (fun (t, _, _) -> t) (pool_fix_jobs ()) in
  check Alcotest.int "pool fix skeletons" 6 (List.length pool);
  let sets = ref 0 in
  List.iter
    (fun (t : Lang.test) ->
      let base = Enum.compile Enum.Wmm t in
      let base_need = Enum.needs base in
      let cands = Array.of_list (P.candidates t) in
      let deltas =
        Array.map
          (fun e ->
            let need = Enum.needs_of base (P.apply t [ e ]) in
            Array.map2 (fun n b -> n land lnot b) need base_need)
          cands
      in
      let check_set idxs =
        let set = List.map (fun i -> cands.(i)) idxs in
        if not (two_deps_on_one_access set) then begin
          incr sets;
          let ored = Array.copy base_need in
          List.iter
            (fun i -> Array.iteri (fun g d -> ored.(g) <- ored.(g) lor d) deltas.(i))
            idxs;
          if Enum.needs_of base (P.apply t set) <> ored then
            Alcotest.failf "%s: [%s] is not the OR of its edits' deltas" t.Lang.name
              (String.concat "; " (List.map (P.edit_to_string t) set))
        end
      in
      let n = Array.length cands in
      for i = 0 to n - 1 do
        check_set [ i ];
        for j = i + 1 to n - 1 do
          check_set [ i; j ];
          for k = j + 1 to n - 1 do
            check_set [ i; j; k ]
          done
        done
      done)
    (stripped_catalogue () @ pool @ fuzz_corpus ());
  check Alcotest.bool "sets checked" true (!sets > 10_000)

(* The replaying oracle answers exactly what applying each set and
   asking the enumerator answers: the same repairs, call counts and
   completeness, and the same irredundancy verdicts — on repairs and on
   the redundant sets one more edit makes of them. *)
let test_replay_matches_apply_and_ask () =
  let ask t = Search.default_sound t in
  let same ?max_edits ?budget (t : Lang.test) =
    let ctx = Search.context t in
    let replayed = Search.search ?max_edits ?budget ~ctx t in
    let asked = Search.search ?max_edits ?budget ~sound:ask t in
    let name = t.Lang.name in
    check Alcotest.bool (name ^ ": repairs") true
      (replayed.Search.repairs = asked.Search.repairs);
    check Alcotest.int (name ^ ": oracle calls") asked.Search.oracle_calls
      replayed.Search.oracle_calls;
    check Alcotest.bool (name ^ ": complete") asked.Search.complete
      replayed.Search.complete;
    let cands = P.candidates t in
    List.iter
      (fun r ->
        let extra = List.filter (fun e -> not (List.mem e r)) cands in
        List.iter
          (fun set ->
            if Search.irredundant ~ctx t set <> Search.irredundant ~sound:ask t set then
              Alcotest.failf "%s: irredundant disagrees on [%s]" name
                (String.concat "; " (List.map (P.edit_to_string t) set)))
          (r :: List.filteri (fun i _ -> i < 3) (List.map (fun e -> r @ [ e ]) extra)))
      replayed.Search.repairs;
    replayed
  in
  List.iter (fun t -> ignore (same t)) (stripped_catalogue ());
  List.iter
    (fun (t, max_edits, budget) -> ignore (same ~max_edits ~budget t))
    (pool_fix_jobs ());
  List.iter (fun t -> ignore (same ~max_edits:2 t)) (fuzz_corpus ());
  (* a budget that truncates the walk truncates it at the same set *)
  let iriw =
    List.find
      (fun (t : Lang.test) -> t.Lang.name = "IRIW+addrs-stripped")
      (stripped_catalogue ())
  in
  check Alcotest.bool "truncated" false (same ~budget:60 iriw).Search.complete

(* [Mutate.set_addr_dep] keeps only the last of two address
   dependencies on one access, so such a set is not the OR of its
   deltas.  Here P0's store must wait for both loads: the OR forbids the
   outcome, the applied set allows it, and the search must say what
   [Placement.apply] says. *)
let test_two_addr_deps_on_one_access () =
  let t =
    {
      Cat.mp with
      Lang.name = "two-deps";
      init = [ ("x", 0L); ("y", 0L); ("z", 0L) ];
      threads =
        [
          [ Lang.ld "x" "r1"; Lang.ld "y" "r2"; Lang.st "z" 1L ];
          [
            Lang.ld "z" "r1"; Lang.fence Lang.F_dmb_full; Lang.st "x" 1L; Lang.st "y" 1L;
          ];
        ];
      interesting = (fun o -> o "1:r1" = 1L && (o "0:r1" = 1L || o "0:r2" = 1L));
    }
  in
  let dep reg = P.Add_addr_dep { thread = 0; idx = 2; reg } in
  let set = [ dep "r1"; dep "r2" ] in
  List.iter
    (fun e -> check Alcotest.bool "candidate" true (List.mem e (P.candidates t)))
    set;
  let base = Enum.compile Enum.Wmm t in
  let ored =
    List.fold_left
      (fun acc e -> Array.map2 ( lor ) acc (Enum.needs_of base (P.apply t [ e ])))
      (Enum.needs base) set
  in
  check Alcotest.bool "the OR of the deltas forbids it" true
    (Enum.witness base ored = None);
  check Alcotest.bool "the applied set allows it" true (allows (P.apply t set));
  let s = Search.search ~max_edits:2 ~candidates:set t in
  check Alcotest.bool "no repair" true (s.Search.repairs = []);
  check Alcotest.int "three sets decided" 3 s.Search.oracle_calls;
  check Alcotest.bool "not sufficient" false (Search.irredundant t set)

(* ---------- pilot rewrite ---------- *)

let test_pilot_detects_mp () =
  List.iter
    (fun (t : Lang.test) ->
      match Pilot.rewrite (Mut.strip_order ~keep_values:true t) with
      | None -> Alcotest.failf "%s: MP shape not detected" t.Lang.name
      | Some (_, rewritten) ->
        check Alcotest.bool (t.Lang.name ^ ": rewrite sound") false (allows rewritten);
        check Alcotest.int
          (t.Lang.name ^ ": single shared word")
          1
          (List.length rewritten.Lang.init))
    [ Cat.mp_dmb; Cat.mp_acq_rel; Cat.mp_addr_dep ]

let test_pilot_rejects_non_mp () =
  List.iter
    (fun (t : Lang.test) ->
      match Pilot.detect t with
      | Some _ -> Alcotest.failf "%s: claimed MP-shaped" t.Lang.name
      | None -> ())
    [ Cat.sb; Cat.lb; Cat.coherence; Cat.two_plus_two_w ];
  (* right shape, wrong question: predicate probing must reject *)
  let not_mp = { Cat.mp with Lang.interesting = (fun o -> o "1:r2" = 23L) } in
  check Alcotest.bool "wrong predicate rejected" true (Pilot.detect not_mp = None);
  (* values that do not fit 32 bits cannot be packed *)
  let wide =
    {
      Cat.mp with
      Lang.threads =
        [
          [ Lang.st "data" 0x1_0000_0000L; Lang.st "flag" 1L ];
          [ Lang.ld "flag" "r1"; Lang.ld "data" "r2" ];
        ];
      interesting = (fun o -> o "1:r1" = 1L && o "1:r2" <> 0x1_0000_0000L);
    }
  in
  check Alcotest.bool "wide values rejected" true (Pilot.detect wide = None)

(* ---------- catalogue round trips (the acceptance bar) ---------- *)

let test_catalogue_round_trips () =
  let rts = Fix.catalogue_round_trips ~trials:30 () in
  check Alcotest.bool "several eligible tests" true (List.length rts >= 5);
  List.iter
    (fun (rt : Fix.round_trip) ->
      if not rt.ok then
        Alcotest.failf "%s: sufficient:%b irredundant:%b cost:%b pilot:%b" rt.test_name
          rt.sufficient_ok rt.irredundant_ok rt.cost_ok rt.pilot_ok)
    rts;
  (* every MP-shaped test must be won by the Pilot rewrite *)
  let mp_rts =
    List.filter (fun (rt : Fix.round_trip) -> rt.pilot_expected) rts
  in
  check Alcotest.bool "MP-shaped round trips present" true (List.length mp_rts >= 3);
  List.iter
    (fun (rt : Fix.round_trip) ->
      List.iter
        (fun (platform, (r : Fix.repair)) ->
          if r.kind <> Fix.Pilot then
            Alcotest.failf "%s on %s: winner is %s, not pilot" rt.test_name platform
              r.label)
        rt.outcome.winners)
    mp_rts

let test_cost_deterministic () =
  let a = Cost.measure ~trials:20 Cat.mp_dmb in
  let b = Cost.measure ~trials:20 Cat.mp_dmb in
  check Alcotest.bool "same program, same cost" true (a = b);
  List.iter
    (fun (c : Cost.platform_cost) ->
      if c.cycles <= 0.0 then Alcotest.failf "%s: non-positive cost" c.platform)
    a

(* [measure] compiles once for its four platforms and renders nothing:
   it must still read exactly the cycles a full [Sim_runner.run] on
   each platform reports. *)
let prop_cost_is_run_cycles =
  QCheck.Test.make ~name:"cost = run cycles per trial" ~count:60
    QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng = Armb_sim.Rng.create seed in
      let t = Fuzz.generate ~with_isb:true rng in
      let trials = 1 + Armb_sim.Rng.int rng 20 and seed = Armb_sim.Rng.int rng 1_000_000 in
      let want =
        List.map
          (fun (cfg : Armb_cpu.Config.t) ->
            { Cost.platform = cfg.name;
              cycles = float (Sim.run ~cfg ~trials ~seed t).cycles /. float trials })
          Armb_platform.Platform.all
      in
      Cost.measure ~trials ~seed t = want)

(* ---------- fuzz-repair soak ---------- *)

let test_soak () =
  let r = Soak.run ~tests:15 () in
  if not (Soak.ok r) then
    Alcotest.failf "soak failures: %s" (String.concat " | " r.Soak.failures);
  check Alcotest.bool "repair path exercised" true (r.Soak.repaired >= 1)

let () =
  Alcotest.run "armb_synth"
    [
      ( "mutate",
        [
          Alcotest.test_case "strip keep-values" `Quick test_strip_keep_values;
          Alcotest.test_case "point edits" `Quick test_mutate_point_edits;
        ] );
      ( "isb",
        [
          Alcotest.test_case "enumerator" `Quick test_isb_enumerator;
          Alcotest.test_case "no store order" `Quick test_isb_no_store_order;
          Alcotest.test_case "sim and sanitizer" `Quick test_isb_sim_and_sanitizer;
        ] );
      ( "placement",
        [
          Alcotest.test_case "apply reconstructs" `Quick test_apply_reconstructs;
          Alcotest.test_case "value neutral" `Quick test_candidates_value_neutral;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "agrees with enumerator" `Quick
            test_advisor_agrees_with_enumerator;
        ] );
      ( "search",
        [
          Alcotest.test_case "minimal on MP" `Quick test_search_minimal_on_mp;
          Alcotest.test_case "single edit on WRC" `Quick test_search_single_edit_on_wrc;
          Alcotest.test_case "limits below 1 rejected" `Quick test_limits_below_one;
        ] );
      ( "replay",
        [
          Alcotest.test_case "need deltas compose" `Quick test_need_deltas_compose;
          Alcotest.test_case "matches apply-and-ask" `Quick
            test_replay_matches_apply_and_ask;
          Alcotest.test_case "two address deps on one access" `Quick
            test_two_addr_deps_on_one_access;
        ] );
      ( "pilot",
        [
          Alcotest.test_case "detects MP" `Quick test_pilot_detects_mp;
          Alcotest.test_case "rejects non-MP" `Quick test_pilot_rejects_non_mp;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "catalogue" `Quick test_catalogue_round_trips;
          Alcotest.test_case "cost deterministic" `Quick test_cost_deterministic;
          QCheck_alcotest.to_alcotest prop_cost_is_run_cycles;
        ] );
      ("soak", [ Alcotest.test_case "fuzz repair" `Quick test_soak ]);
    ]
