(* Tests for the paper's core contribution library: ordering predicates,
   abstracted models, observations, the advisor and the Pilot codec. *)

module Barrier = Armb_cpu.Barrier
module AM = Armb_core.Abstracted_model
module Advisor = Armb_core.Advisor
module Obs = Armb_core.Observations
module Ordering = Armb_core.Ordering
module Pilot = Armb_core.Pilot
module P = Armb_platform.Platform

let check = Alcotest.check

(* ---------- Ordering predicates ---------- *)

let test_ordering_names () =
  check Alcotest.string "dmb" "DMB full" (Ordering.to_string (Ordering.Bar (Barrier.Dmb Full)));
  check Alcotest.string "stlr" "STLR" (Ordering.to_string Ordering.Stlr_release);
  check Alcotest.string "dep" "ADDR DEP" (Ordering.to_string Ordering.Addr_dep)

let test_ordering_strength () =
  check Alcotest.bool "DMB st does not order loads" false
    (Ordering.orders_load_load (Ordering.Bar (Barrier.Dmb St)));
  check Alcotest.bool "DMB ld orders load-load" true
    (Ordering.orders_load_load (Ordering.Bar (Barrier.Dmb Ld)));
  check Alcotest.bool "only full barriers order store-load" true
    (Ordering.orders_store_load (Ordering.Bar (Barrier.Dmb Full))
    && (not (Ordering.orders_store_load (Ordering.Bar (Barrier.Dmb St))))
    && not (Ordering.orders_store_load Ordering.Stlr_release));
  check Alcotest.bool "ctrl orders load-store only" true
    (Ordering.orders_load_store Ordering.Ctrl_dep
    && not (Ordering.orders_load_load Ordering.Ctrl_dep));
  check Alcotest.bool "ctrl+isb orders load-load" true
    (Ordering.orders_load_load Ordering.Ctrl_isb)

let test_ordering_bus () =
  check Alcotest.bool "DMB full involves the bus" true
    (Ordering.involves_bus (Ordering.Bar (Barrier.Dmb Full)));
  check Alcotest.bool "DMB ld resolved locally" false
    (Ordering.involves_bus (Ordering.Bar (Barrier.Dmb Ld)));
  check Alcotest.bool "deps never involve the bus" false (Ordering.involves_bus Ordering.Addr_dep);
  check Alcotest.bool "LDAR resolved locally" false (Ordering.involves_bus Ordering.Ldar_acquire)

(* ---------- Abstracted models ---------- *)

let small cfg = { (AM.default_spec cfg) with iters = 400; buffer_lines = 16 }

let test_am_labels () =
  let s = { (small P.kunpeng916) with approach = Ordering.Bar (Barrier.Dmb Full) } in
  check Alcotest.string "loc1 label" "DMB full-1" (AM.label s);
  check Alcotest.string "loc2 label" "DMB full-2" (AM.label { s with location = AM.Loc2 });
  check Alcotest.string "no location for STLR" "STLR"
    (AM.label { s with approach = Ordering.Stlr_release })

let test_am_validity () =
  let s = small P.kunpeng916 in
  check Alcotest.bool "data dep invalid for store-store" false
    (AM.valid { s with mem_ops = AM.Store_store; approach = Ordering.Data_dep });
  check Alcotest.bool "stlr invalid for load-load" false
    (AM.valid { s with mem_ops = AM.Load_load; approach = Ordering.Stlr_release });
  check Alcotest.bool "deps valid for load-store" true
    (AM.valid { s with mem_ops = AM.Load_store; approach = Ordering.Data_dep });
  check Alcotest.bool "no-mem accepts only barriers" false
    (AM.valid { s with mem_ops = AM.No_mem; approach = Ordering.Ldar_acquire })

let test_am_deterministic () =
  let s = { (small P.kunpeng916) with approach = Ordering.Bar (Barrier.Dmb St) } in
  check Alcotest.int "same spec, same cycles" (AM.run_cycles s) (AM.run_cycles s)

let test_am_nops_scale () =
  let s = small P.kunpeng916 in
  let t100 = AM.run { s with nops = 100 } in
  let t700 = AM.run { s with nops = 700 } in
  check Alcotest.bool "more nops, lower throughput" true (t700 < t100)

let test_am_dsb_worst () =
  let s = { (small P.kunpeng916) with cores = (0, 28) } in
  let dsb = AM.run { s with approach = Ordering.Bar (Barrier.Dsb Full) } in
  let dmb = AM.run { s with approach = Ordering.Bar (Barrier.Dmb Full) } in
  let none = AM.run { s with approach = Ordering.No_barrier } in
  check Alcotest.bool "DSB < DMB < none" true (dsb < dmb && dmb < none)

let test_am_invalid_raises () =
  let s = { (small P.kunpeng916) with mem_ops = AM.Store_store; approach = Ordering.Data_dep } in
  match AM.run s with
  | _ -> Alcotest.fail "invalid spec accepted"
  | exception Invalid_argument _ -> ()

(* ---------- Observations (the paper's claims as regression tests) ---------- *)

let test_observations_all_hold () =
  List.iter
    (fun (name, (v : Obs.verdict)) ->
      if not v.holds then Alcotest.failf "%s failed: %s" name v.detail)
    (Obs.all ())

(* ---------- Tipping point (Figure 4) ---------- *)

let test_tipping_point_ratio () =
  match Armb_core.Characterize.tipping_point P.kunpeng916 ~cores:(0, 28) ~iters:800 () with
  | None -> Alcotest.fail "no tipping point found"
  | Some nops ->
    (* at the tipping point, DMB full-1 throughput is about half of
       DMB full-2 (the paper's Figure 4 argument) *)
    let spec loc =
      {
        (AM.default_spec P.kunpeng916) with
        cores = (0, 28);
        approach = Ordering.Bar (Barrier.Dmb Full);
        location = loc;
        nops;
        iters = 800;
      }
    in
    let r1 = AM.run (spec AM.Loc1) and r2 = AM.run (spec AM.Loc2) in
    let ratio = r1 /. r2 in
    if ratio < 0.4 || ratio > 0.75 then
      Alcotest.failf "tipping ratio %.2f outside [0.4, 0.75] at %d nops" ratio nops

(* ---------- Advisor (Table 3) ---------- *)

let test_advisor_best_choices () =
  check Alcotest.string "store-store" "DMB st"
    (Ordering.to_string (Advisor.best ~from_:Advisor.From_store ~to_:Advisor.To_stores));
  check Alcotest.string "store-load needs full" "DMB full"
    (Ordering.to_string (Advisor.best ~from_:Advisor.From_store ~to_:Advisor.To_load));
  check Alcotest.string "load-load prefers dep" "ADDR DEP"
    (Ordering.to_string (Advisor.best ~from_:Advisor.From_load ~to_:Advisor.To_load))

let test_advisor_all_sufficient () =
  (* every suggestion in the whole matrix must be architecturally
     sufficient for its cell *)
  List.iter
    (fun f ->
      List.iter
        (fun t ->
          let sugg = Advisor.suggest ~from_:f ~to_:t in
          if sugg = [] then
            Alcotest.failf "no suggestion for %s -> %s" (Advisor.from_to_string f)
              (Advisor.to_to_string t);
          List.iter
            (fun (s : Advisor.suggestion) ->
              if not (Advisor.sufficient s.approach ~from_:f ~to_:t) then
                Alcotest.failf "insufficient %s for %s -> %s"
                  (Ordering.to_string s.approach) (Advisor.from_to_string f)
                  (Advisor.to_to_string t))
            sugg)
        Advisor.all_to)
    Advisor.all_from

let test_advisor_no_barrier_never_sufficient () =
  List.iter
    (fun f ->
      List.iter
        (fun t ->
          if Advisor.sufficient Ordering.No_barrier ~from_:f ~to_:t then
            Alcotest.fail "No_barrier can never be sufficient")
        Advisor.all_to)
    Advisor.all_from

let test_advisor_stlr_caveat () =
  let sugg = Advisor.suggest ~from_:Advisor.From_any ~to_:Advisor.To_store in
  let stlr = List.find_opt (fun s -> s.Advisor.approach = Ordering.Stlr_release) sugg in
  match stlr with
  | Some { caveat = Some _; _ } -> ()
  | Some { caveat = None; _ } -> Alcotest.fail "STLR suggestion must carry its caveat"
  | None -> Alcotest.fail "STLR should be suggested for Any -> Store"

let test_advisor_empirical_cross_check () =
  (* the advisor's preference for the load-store case must match the
     simulator: the suggested approach beats DMB full *)
  let spec approach =
    {
      (AM.default_spec P.kunpeng916) with
      cores = (0, 28);
      mem_ops = AM.Load_store;
      approach;
      nops = 200;
      iters = 600;
    }
  in
  let best = Advisor.best ~from_:Advisor.From_load ~to_:Advisor.To_store in
  let t_best = AM.run (spec best) in
  let t_full = AM.run (spec (Ordering.Bar (Barrier.Dmb Full))) in
  check Alcotest.bool "advisor choice beats DMB full" true (t_best > t_full)

(* ---------- Pilot codec ---------- *)

let test_pilot_roundtrip_sequence () =
  let pool = Pilot.make_pool ~seed:5 () in
  let s = Pilot.sender pool and r = Pilot.receiver pool in
  let data = ref 0L and flag = ref 0L in
  let deliver msg =
    (match Pilot.encode s msg with
    | Pilot.Write_data v -> data := v
    | Pilot.Toggle_flag -> flag := Int64.logxor !flag 1L);
    match Pilot.try_decode r ~data:!data ~flag:!flag with
    | Some got -> check Alcotest.int64 "payload" msg got
    | None -> Alcotest.fail "message lost"
  in
  List.iter deliver [ 1L; 2L; 2L; 2L; 0L; 0L; Int64.max_int; Int64.min_int; 42L ]

let test_pilot_idempotent_poll () =
  let pool = Pilot.make_pool ~seed:6 () in
  let s = Pilot.sender pool and r = Pilot.receiver pool in
  let data = ref 0L and flag = ref 0L in
  (match Pilot.encode s 9L with
  | Pilot.Write_data v -> data := v
  | Pilot.Toggle_flag -> flag := 1L);
  (match Pilot.try_decode r ~data:!data ~flag:!flag with
  | Some _ -> ()
  | None -> Alcotest.fail "should decode");
  check Alcotest.bool "re-poll returns nothing" true
    (Pilot.try_decode r ~data:!data ~flag:!flag = None)

let test_pilot_fallback_used () =
  (* force collisions: a pool of a single zero makes equal consecutive
     messages collide *)
  let pool = [| 0L |] in
  let s = Pilot.sender pool and r = Pilot.receiver pool in
  let data = ref 0L and flag = ref 0L in
  let fallbacks = ref 0 in
  let deliver msg =
    (match Pilot.encode s msg with
    | Pilot.Write_data v -> data := v
    | Pilot.Toggle_flag ->
      incr fallbacks;
      flag := Int64.logxor !flag 1L);
    match Pilot.try_decode r ~data:!data ~flag:!flag with
    | Some got -> check Alcotest.int64 "payload despite collision" msg got
    | None -> Alcotest.fail "message lost in fallback"
  in
  List.iter deliver [ 7L; 7L; 7L; 7L ];
  check Alcotest.bool "fallback exercised" true (!fallbacks >= 3)

(* Every golden and figure run sends without a collision, so drive the
   simulated line's fallback on purpose: with a one-value pool each
   repeated message collides.  The receiver acks each message on its
   own line before the sender may send the next. *)
let test_pilot_line_fallback () =
  let module Machine = Armb_cpu.Machine in
  let module Core = Armb_cpu.Core in
  let m = Machine.create P.kunpeng916 in
  let line = Pilot.line (Pilot.make_pool ~size:1 ~seed:1 ()) ~data:(Machine.alloc_line m) in
  let ack = Machine.alloc_line m in
  let msgs = [ 7L; 7L; 7L; 0L; 0L; 9L; 9L ] in
  let fallbacks = ref 0 and got = ref [] in
  Machine.spawn m ~core:0 (fun c ->
      List.iteri
        (fun i v ->
          if Pilot.send c line v then incr fallbacks;
          ignore (Core.spin_until c ack (fun a -> Int64.to_int a > i)))
        msgs);
  Machine.spawn m ~core:1 (fun c ->
      List.iteri
        (fun i _ ->
          got := Pilot.recv c line :: !got;
          Core.store c ack (Int64.of_int (i + 1)))
        msgs);
  Machine.run_exn m;
  check (Alcotest.list Alcotest.int64) "all seven, in order" msgs (List.rev !got);
  check Alcotest.int "each repeat took the fallback" 4 !fallbacks

let prop_pilot_any_sequence =
  QCheck.Test.make ~name:"pilot delivers any int64 sequence in order" ~count:200
    QCheck.(pair small_int (list int64))
    (fun (seed, msgs) ->
      let pool = Pilot.make_pool ~seed () in
      let s = Pilot.sender pool and r = Pilot.receiver pool in
      let data = ref 0L and flag = ref 0L in
      List.for_all
        (fun msg ->
          (match Pilot.encode s msg with
          | Pilot.Write_data v -> data := v
          | Pilot.Toggle_flag -> flag := Int64.logxor !flag 1L);
          match Pilot.try_decode r ~data:!data ~flag:!flag with
          | Some got -> Int64.equal got msg
          | None -> false)
        msgs)

let prop_pilot_counts_advance =
  QCheck.Test.make ~name:"sender and receiver stay in lock-step" ~count:100
    QCheck.(list int64)
    (fun msgs ->
      let pool = Pilot.make_pool ~seed:3 () in
      let s = Pilot.sender pool and r = Pilot.receiver pool in
      let data = ref 0L and flag = ref 0L in
      List.iter
        (fun msg ->
          (match Pilot.encode s msg with
          | Pilot.Write_data v -> data := v
          | Pilot.Toggle_flag -> flag := Int64.logxor !flag 1L);
          ignore (Pilot.try_decode r ~data:!data ~flag:!flag))
        msgs;
      Pilot.sent s = List.length msgs && Pilot.received r = List.length msgs)

let test_pilot_pool_validation () =
  Alcotest.check_raises "empty pool rejected" (Invalid_argument "Pilot.sender: empty pool")
    (fun () -> ignore (Pilot.sender [||]));
  match Pilot.make_pool ~size:0 ~seed:1 () with
  | _ -> Alcotest.fail "zero-size pool accepted"
  | exception Invalid_argument _ -> ()

(* ---------- Report ---------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_report_generates () =
  let r = Armb_core.Report.generate ~iters:400 P.kirin960 in
  let md = Armb_core.Report.to_markdown r in
  List.iter
    (fun needle ->
      if not (contains md needle) then Alcotest.failf "report missing %S" needle)
    [ "kirin960"; "Intrinsic"; "Store-store"; "Recommendations"; "DMB" ]

let test_report_tipping_present_on_server () =
  let r = Armb_core.Report.generate ~iters:600 P.kunpeng916 in
  match r.Armb_core.Report.tipping with
  | Some n -> check Alcotest.bool "plausible tipping" true (n > 0 && n < 10_000)
  | None -> Alcotest.fail "kunpeng916 must have a tipping point"

let test_report_best_publish_is_legal () =
  let r = Armb_core.Report.generate ~iters:400 P.kunpeng916 in
  check Alcotest.bool "publish choice orders store-store" true
    (Ordering.orders_store_store r.Armb_core.Report.best_store_publish)

let () =
  Alcotest.run "armb_core"
    [
      ( "ordering",
        [
          Alcotest.test_case "names" `Quick test_ordering_names;
          Alcotest.test_case "strength predicates" `Quick test_ordering_strength;
          Alcotest.test_case "bus involvement" `Quick test_ordering_bus;
        ] );
      ( "abstracted-model",
        [
          Alcotest.test_case "labels" `Quick test_am_labels;
          Alcotest.test_case "validity" `Quick test_am_validity;
          Alcotest.test_case "determinism" `Quick test_am_deterministic;
          Alcotest.test_case "nop scaling" `Quick test_am_nops_scale;
          Alcotest.test_case "DSB worst" `Quick test_am_dsb_worst;
          Alcotest.test_case "invalid specs rejected" `Quick test_am_invalid_raises;
        ] );
      ( "observations",
        [
          Alcotest.test_case "all six hold" `Slow test_observations_all_hold;
          Alcotest.test_case "figure-4 tipping ratio" `Slow test_tipping_point_ratio;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "best choices" `Quick test_advisor_best_choices;
          Alcotest.test_case "all suggestions sufficient" `Quick test_advisor_all_sufficient;
          Alcotest.test_case "no-barrier never sufficient" `Quick
            test_advisor_no_barrier_never_sufficient;
          Alcotest.test_case "STLR caveat" `Quick test_advisor_stlr_caveat;
          Alcotest.test_case "empirical cross-check" `Slow test_advisor_empirical_cross_check;
        ] );
      ( "pilot",
        [
          Alcotest.test_case "roundtrip with repeats" `Quick test_pilot_roundtrip_sequence;
          Alcotest.test_case "idempotent poll" `Quick test_pilot_idempotent_poll;
          Alcotest.test_case "collision fallback" `Quick test_pilot_fallback_used;
          Alcotest.test_case "line fallback between cores" `Quick test_pilot_line_fallback;
          Alcotest.test_case "pool validation" `Quick test_pilot_pool_validation;
          QCheck_alcotest.to_alcotest prop_pilot_any_sequence;
          QCheck_alcotest.to_alcotest prop_pilot_counts_advance;
        ] );
      ( "report",
        [
          Alcotest.test_case "generates markdown" `Slow test_report_generates;
          Alcotest.test_case "server tipping point" `Slow test_report_tipping_present_on_server;
          Alcotest.test_case "publish choice legal" `Slow test_report_best_publish_is_legal;
        ] );
    ]
