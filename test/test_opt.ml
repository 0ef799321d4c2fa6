(* CFG IR + fence optimizer tests: structure toolkit (RPO/dominators)
   on known shapes, lowering round-trips, bounded-unroll semantics
   against the enumerator, the mutate wrapper regression, and the
   QCheck property that optimizing a random loop-free CFG preserves the
   WMM-reachable outcome set bit-for-bit. *)

module Lang = Armb_litmus.Lang
module Cfg = Armb_litmus.Cfg
module Catalogue = Armb_litmus.Catalogue
module Enumerate = Armb_litmus.Enumerate
module Mutate = Armb_litmus.Mutate
module Fuzz = Armb_litmus.Fuzz
module Rng = Armb_sim.Rng
module Analysis = Armb_opt.Analysis
module Passes = Armb_opt.Passes
module Verify = Armb_opt.Verify
module Optimizer = Armb_opt.Optimizer
module Opt_soak = Armb_opt.Soak

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- fixture CFGs ---------- *)

let diamond =
  Cfg.cfg
    [
      Cfg.blk "b0" ~term:(Cfg.branch "r1" ~nonzero:"then" ~zero:"else") [ Lang.ld "x" "r1" ];
      Cfg.blk "then" ~term:(Cfg.goto "join") [ Lang.st "y" 1L ];
      Cfg.blk "else" ~term:(Cfg.goto "join") [];
      Cfg.blk "join" [ Lang.ld "y" "r2" ];
    ]

let loop =
  Cfg.cfg ~entry:"head"
    [
      Cfg.blk "head" ~term:(Cfg.branch "r1" ~nonzero:"exit" ~zero:"head") [ Lang.ld "f" "r1" ];
      Cfg.blk "exit" [ Lang.ld "d" "r2" ];
    ]

let with_unreachable =
  Cfg.cfg
    [
      Cfg.blk "b0" ~term:(Cfg.goto "b1") [ Lang.st "x" 1L ];
      Cfg.blk "b1" [ Lang.ld "x" "r1" ];
      Cfg.blk "island" [ Lang.Fence Lang.F_dsb ];
    ]

(* ---------- structure ---------- *)

let test_validate () =
  List.iter
    (fun (p : Cfg.program) -> checkb ("validate " ^ p.Cfg.name) true (Cfg.validate p = Ok ()))
    Catalogue.cfg_all;
  (match
     Cfg.validate
       {
         (Catalogue.spin_mp) with
         Cfg.threads = [ { Cfg.entry = "nope"; blocks = [ Cfg.blk "b0" [] ] } ];
       }
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad entry accepted");
  checkb "loop detected" true (Cfg.has_loop loop);
  checkb "diamond is loop-free" false (Cfg.has_loop diamond);
  checkb "unreachable island ignored" false (Cfg.has_loop with_unreachable)

let test_reachable_blocks () =
  let labels g = List.map (fun (b : Cfg.block) -> b.Cfg.label) (Cfg.reachable_blocks g) in
  check (Alcotest.list Alcotest.string) "diamond dfs order"
    [ "b0"; "then"; "join"; "else" ] (labels diamond);
  check (Alcotest.list Alcotest.string) "island not reachable" [ "b0"; "b1" ]
    (labels with_unreachable);
  checki "island fence not counted" 0
    (Cfg.fence_count
       {
         (Catalogue.spin_mp) with
         Cfg.threads = [ with_unreachable ];
         init = [ ("x", 0L) ];
       })

(* ---------- lowering ---------- *)

let test_round_trip () =
  List.iter
    (fun (t : Lang.test) ->
      match Cfg.lower (Cfg.of_test t) with
      | None -> Alcotest.fail ("lower(of_test " ^ t.Lang.name ^ ") = None")
      | Some t' ->
        checkb ("round trip " ^ t.Lang.name) true
          (t'.Lang.threads = t.Lang.threads && t'.Lang.init = t.Lang.init
         && t'.Lang.name = t.Lang.name))
    Catalogue.all

let test_straight_line () =
  (* goto chains flatten; branches and loops don't *)
  let chain =
    Cfg.cfg
      [
        Cfg.blk "b0" ~term:(Cfg.goto "b1") [ Lang.st "x" 1L ];
        Cfg.blk "b1" [ Lang.ld "x" "r1" ];
      ]
  in
  (match Cfg.straight_line chain with
  | Some [ Lang.Store _; Lang.Load _ ] -> ()
  | _ -> Alcotest.fail "chain should flatten to store;load");
  checkb "diamond not straight-line" true (Cfg.straight_line diamond = None);
  checkb "loop not straight-line" true (Cfg.straight_line loop = None)

(* ---------- bounded-unroll semantics ---------- *)

(* On a lifted straight-line test the slice machinery must agree with
   the enumerator exactly. *)
let test_reachable_identity () =
  List.iter
    (fun (t : Lang.test) ->
      let direct = Enumerate.enumerate Enumerate.Wmm t in
      let via_cfg = Cfg.reachable Enumerate.Wmm (Cfg.of_test t) in
      check (Alcotest.list (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int64)))
        ("reachable = enumerate for " ^ t.Lang.name)
        direct via_cfg)
    Catalogue.all

let test_cfg_expectations () =
  List.iter
    (fun (p : Cfg.program) ->
      let ok, detail = Cfg.verify_expectations p in
      checkb (p.Cfg.name ^ ": " ^ detail) true ok)
    Catalogue.cfg_all

let test_unroll_monotone () =
  (* more unrolling can only add reachable outcomes *)
  let subset a b = List.for_all (fun o -> List.mem o b) a in
  List.iter
    (fun (p : Cfg.program) ->
      let r1 = Cfg.reachable ~unroll:1 Enumerate.Wmm p in
      let r3 = Cfg.reachable ~unroll:3 Enumerate.Wmm p in
      checkb (p.Cfg.name ^ ": unroll monotone") true (subset r1 r3))
    Catalogue.cfg_all

let test_slices_shape () =
  (* the spin consumer has one path per extra poll iteration *)
  let paths = Cfg.thread_paths ~unroll:3 loop in
  checki "3 exit paths at unroll 3" 3 (List.length paths);
  List.iteri
    (fun i (p : Cfg.path) ->
      checki (Printf.sprintf "path %d constraint count" i) (i + 1) (List.length p.Cfg.constraints))
    paths;
  (* versioned names: the 2nd load of f becomes f's reg r1#2 *)
  match List.nth_opt paths 1 with
  | Some p ->
    checkb "second iteration renames r1" true
      (List.exists
         (function Lang.Load { reg = "r1#2"; _ } -> true | _ -> false)
         p.Cfg.instrs);
    checkb "last_version points at r1#2" true
      (List.assoc_opt "r1" p.Cfg.last_version = Some "r1#2")
  | None -> Alcotest.fail "missing path"

let test_cfg_slice_tests () =
  let slices = Catalogue.cfg_slices () in
  checkb "slices exist" true (List.length slices > List.length Catalogue.cfg_all);
  List.iter
    (fun (t : Lang.test) ->
      let ok, detail = Enumerate.verify_expectations t in
      checkb (t.Lang.name ^ ": " ^ detail) true ok)
    slices

(* ---------- mutate wrappers ---------- *)

let test_mutate_wrappers () =
  (* flat edits behave exactly as the historical direct implementation *)
  let t = List.find (fun (t : Lang.test) -> t.Lang.name = "MP") Catalogue.all in
  let fenced = Mutate.insert_fence ~thread:0 ~pos:1 Lang.F_dmb_st t in
  (match fenced.Lang.threads with
  | [ [ Lang.Store _; Lang.Fence Lang.F_dmb_st; Lang.Store _ ]; _ ] -> ()
  | _ -> Alcotest.fail "insert_fence wrapper misplaced the fence");
  let beyond = Mutate.insert_fence ~thread:0 ~pos:99 Lang.F_dsb t in
  (match List.hd beyond.Lang.threads with
  | [ Lang.Store _; Lang.Store _; Lang.Fence Lang.F_dsb ] -> ()
  | _ -> Alcotest.fail "insert past end should append");
  let acq = Mutate.set_acquire ~thread:1 ~idx:0 t in
  (match acq.Lang.threads with
  | [ _; Lang.Load { acquire = true; _ } :: _ ] -> ()
  | _ -> Alcotest.fail "set_acquire wrapper failed");
  let out_of_range = Mutate.set_release ~thread:1 ~idx:42 t in
  checkb "out-of-range edit is identity" true (out_of_range.Lang.threads = t.Lang.threads);
  checkb "name preserved" true (fenced.Lang.name = t.Lang.name);
  (* interesting predicate survives the lift/lower round trip *)
  checkb "predicate survives" true
    (t.Lang.interesting (fun k -> if k = "1:r1" then 1L else 0L)
    = fenced.Lang.interesting (fun k -> if k = "1:r1" then 1L else 0L))

let test_mutate_cfg_edits () =
  let p = Catalogue.spin_mp in
  let edited = Mutate.insert_fence_cfg ~thread:1 ~label:"done" ~pos:0 Lang.F_dmb_ld p in
  checki "fence added" (Cfg.fence_count p + 1) (Cfg.fence_count edited);
  (* the edited program is exactly spin_mp_dmb's ordering: forbidden *)
  checkb "edit forbids the weak outcome" false (Cfg.allows Enumerate.Wmm edited);
  checkb "original allows it" true (Cfg.allows Enumerate.Wmm p);
  let unknown = Mutate.insert_fence_cfg ~thread:1 ~label:"nope" ~pos:0 Lang.F_dsb p in
  checki "unknown label is identity" (Cfg.fence_count p) (Cfg.fence_count unknown);
  let acq = Mutate.set_acquire_cfg ~thread:1 ~label:"poll" ~idx:0 p in
  checkb "acquire in the loop forbids it" false (Cfg.allows Enumerate.Wmm acq)

(* ---------- analysis ---------- *)

let test_rpo_dominators () =
  (* diamond: b0 dominates all; join dominated by b0 only *)
  check (Alcotest.list Alcotest.string) "diamond rpo head" [ "b0" ]
    [ List.hd (Analysis.rpo diamond) ];
  checkb "b0 dominates join" true (Analysis.dominates diamond "b0" "join");
  checkb "then does not dominate join" false (Analysis.dominates diamond "then" "join");
  checkb "else does not dominate join" false (Analysis.dominates diamond "else" "join");
  check (Alcotest.option Alcotest.string) "idom(join) = b0" (Some "b0")
    (Analysis.idom diamond "join");
  check (Alcotest.option Alcotest.string) "idom(entry) = entry" (Some "b0")
    (Analysis.idom diamond "b0");
  (* loop: the self back-edge head -> head *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "loop back edge" [ ("head", "head") ] (Analysis.back_edges loop);
  checkb "no back edges in diamond" true (Analysis.back_edges diamond = []);
  (* unreachable blocks are invisible to the toolkit *)
  check (Alcotest.list Alcotest.string) "island listed" [ "island" ]
    (Analysis.unreachable with_unreachable);
  check (Alcotest.option Alcotest.string) "idom(island) = None" None
    (Analysis.idom with_unreachable "island")

let test_escape () =
  let esc = Analysis.escape loop in
  (* the loop head may re-enter itself: its own loads flow around *)
  checkb "head sees loads before (around the back edge)" true
    (esc.Analysis.before_in "head").Analysis.loads;
  checkb "head sees no stores before" false (esc.Analysis.before_in "head").Analysis.stores;
  checkb "loads still follow the head" true (esc.Analysis.after_out "head").Analysis.loads;
  checkb "nothing follows the exit" true
    (esc.Analysis.after_out "exit" = Analysis.no_kinds);
  let esc_d = Analysis.escape diamond in
  checkb "join: stores may precede (then arm)" true
    (esc_d.Analysis.before_in "join").Analysis.stores;
  checkb "entry: nothing precedes" true
    (esc_d.Analysis.before_in "b0" = Analysis.no_kinds)

(* ---------- passes ---------- *)

let fences_of_thread (g : Cfg.thread_cfg) =
  List.concat_map
    (fun (b : Cfg.block) ->
      List.filter_map (function Lang.Fence f -> Some f | _ -> None) b.Cfg.body)
    (Cfg.reachable_blocks g)

let test_merge_straight_line () =
  (* over-fenced MP: leading/trailing fulls die, gap fulls weaken *)
  let p = Passes.over_fence (Cfg.of_test Catalogue.mp) in
  let q, stats = Passes.merge p in
  checki "producer+consumer keep one fence each" 2 (Cfg.fence_count q);
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "weakened to dmb.st / dmb.ld"
    [ [ "dmb st" ]; [ "dmb ld" ] ]
    (List.map (fun g -> List.map Lang.fence_to_string (fences_of_thread g)) q.Cfg.threads);
  checkb "dead fences counted" true (stats.Passes.dead >= 4);
  checkb "sound" true (Verify.equivalent p q).Verify.sound

let test_merge_adjacent () =
  (* adjacent fences merge into one *)
  let p =
    {
      (Cfg.of_test Catalogue.sb) with
      Cfg.name = "SB+doubled";
      threads =
        [
          Cfg.of_thread
            [ Lang.st "x" 1L; Lang.fence Lang.F_dmb_full; Lang.fence Lang.F_dmb_full; Lang.ld "y" "r1" ];
          Cfg.of_thread [ Lang.st "y" 1L; Lang.fence Lang.F_dmb_full; Lang.ld "x" "r1" ];
        ];
    }
  in
  let q, stats = Passes.merge p in
  checki "three fences become two" 2 (Cfg.fence_count q);
  checki "one merge recorded" 1 stats.Passes.merged;
  checkb "sound" true (Verify.equivalent p q).Verify.sound;
  (* the surviving fences stay full: both sides of SB need St->Ld *)
  checkb "kept at full strength" true
    (List.for_all
       (fun g -> List.for_all (fun f -> f = Lang.F_dmb_full) (fences_of_thread g))
       q.Cfg.threads)

let test_merge_dsb_pinned () =
  let p =
    {
      (Cfg.of_test Catalogue.mp) with
      Cfg.name = "MP+dsb";
      threads =
        [
          Cfg.of_thread [ Lang.st "data" 23L; Lang.fence Lang.F_dsb; Lang.st "flag" 1L ];
          Cfg.of_thread [ Lang.ld "flag" "r1"; Lang.fence Lang.F_dmb_full; Lang.ld "data" "r2" ];
        ];
    }
  in
  let q, _ = Passes.merge p in
  checkb "dsb survives untouched" true
    (List.mem Lang.F_dsb (fences_of_thread (List.hd q.Cfg.threads)))

let test_merge_loop () =
  (* the over-strong loopy catalogue test: full -> st / ld *)
  let q, _ = Passes.merge Catalogue.spin_mp_full in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "loop fence weakened"
    [ [ "dmb st" ]; [ "dmb ld" ] ]
    (List.map (fun g -> List.map Lang.fence_to_string (fences_of_thread g)) q.Cfg.threads);
  checkb "still forbids the stale read" false (Cfg.allows Enumerate.Wmm q);
  checkb "sound" true (Verify.equivalent Catalogue.spin_mp_full q).Verify.sound

let test_single_bb_vs_linear () =
  (* a fence that only a cross-block scan can sink/merge: chain blocks *)
  let chain =
    {
      (Cfg.of_test Catalogue.mp) with
      Cfg.name = "MP+chain";
      threads =
        [
          Cfg.cfg
            [
              Cfg.blk "b0" ~term:(Cfg.goto "b1")
                [ Lang.st "data" 23L; Lang.fence Lang.F_dmb_full ];
              Cfg.blk "b1" [ Lang.st "flag" 1L ];
            ];
          Cfg.of_thread [ Lang.ld "flag" "r1"; Lang.ld "data" "r2" ];
        ];
    }
  in
  let q_single, _ = Passes.merge ~cross_block:false chain in
  let q_linear, _ = Passes.merge ~cross_block:true chain in
  (* single-bb must keep the fence in b0; linear scan sinks it to b1
     where it materializes before the flag store, weakened *)
  checkb "single-bb: fence stays in b0" true
    (List.exists
       (function Lang.Fence _ -> true | _ -> false)
       (Cfg.block_exn (List.hd q_single.Cfg.threads) "b0").Cfg.body);
  checkb "linear: b0 fence gone" false
    (List.exists
       (function Lang.Fence _ -> true | _ -> false)
       (Cfg.block_exn (List.hd q_linear.Cfg.threads) "b0").Cfg.body);
  check (Alcotest.list Alcotest.string) "linear: weakened fence lands in b1"
    [ "dmb st" ]
    (List.filter_map
       (function Lang.Fence f -> Some (Lang.fence_to_string f) | _ -> None)
       (Cfg.block_exn (List.hd q_linear.Cfg.threads) "b1").Cfg.body);
  checkb "both sound" true
    ((Verify.equivalent chain q_single).Verify.sound
    && (Verify.equivalent chain q_linear).Verify.sound)

(* ---------- optimizer ---------- *)

let test_second_chance_acq_rel () =
  (* every fence of over-fenced MP+stlr+ldar is subsumed by the
     acquire/release attributes; only the oracle can see that *)
  let p = Passes.over_fence (Cfg.of_test Catalogue.mp_acq_rel) in
  let r = Optimizer.optimize ~algorithm:Optimizer.Second_chance ~cost:false p in
  checkb "sound" true r.Optimizer.verdict.Verify.sound;
  checki "all fences gone" 0 r.Optimizer.output_fences;
  let r_linear = Optimizer.optimize ~algorithm:Optimizer.Linear_scan ~cost:false p in
  checkb "linear scan alone keeps some fence" true (r_linear.Optimizer.output_fences > 0)

let test_optimize_catalogue_sound () =
  (* every sweep input optimizes soundly and never gains a fence;
     costing off to keep the suite fast (the CLI/CI run prices it) *)
  let results = Optimizer.sweep ~algorithm:Optimizer.Second_chance ~cost:false () in
  List.iter
    (fun (r : Optimizer.result) ->
      checkb
        (Printf.sprintf "%s sound (%s)" r.Optimizer.name r.Optimizer.verdict.Verify.detail)
        true r.Optimizer.verdict.Verify.sound;
      checkb
        (Printf.sprintf "%s fence count monotone" r.Optimizer.name)
        true
        (r.Optimizer.output_fences <= r.Optimizer.input_fences))
    results;
  let improved = List.filter Optimizer.improved results in
  checkb
    (Printf.sprintf "at least 3 over-fenced inputs improved (%d)" (List.length improved))
    true
    (List.length improved >= 3)

(* QCheck: optimizing a random loop-free CFG preserves the
   WMM-reachable outcome set bit-for-bit.  Loop-free generation keeps
   the enumerator exact, so this is a true identity check. *)
let qcheck_optimize_preserves =
  QCheck.Test.make ~name:"optimize preserves loop-free outcome sets" ~count:30
    QCheck.(map Rng.create small_nat)
    (fun rng ->
      let p = Fuzz.generate_cfg ~with_loop:false rng in
      let p = Mutate.rename_cfg "qcheck-cfg" p in
      let q = Passes.over_fence p in
      let r = Optimizer.optimize ~algorithm:Optimizer.Linear_scan ~cost:false q in
      let a = Cfg.reachable Enumerate.Wmm q in
      let b = Cfg.reachable Enumerate.Wmm r.Optimizer.optimized in
      r.Optimizer.verdict.Verify.sound && a = b
      && r.Optimizer.output_fences <= r.Optimizer.input_fences)

let test_opt_soak () =
  let r = Opt_soak.run ~rounds:6 ~seed:77 () in
  checkb
    (Format.asprintf "%a" Opt_soak.pp_report r)
    true (Opt_soak.ok r);
  checkb "soak improved something" true (r.Opt_soak.improved > 0)

(* ---------- JSON report ---------- *)

module Json = Armb_json.Json
module Report = Armb_opt.Report

let mem_bool k j = match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None

(* The rendered report parses back to the results it came from; cycles
   within the printer's relative 1e-5. *)
let test_report_json () =
  let results =
    List.map
      (fun name ->
        match Optimizer.find_input name with
        | Some p -> Optimizer.optimize ~trials:5 p
        | None -> Alcotest.failf "no sweep input %s" name)
      [ "MP"; "MP+overfenced"; "MP+spin+overfenced"; "MP+cond+isb+overfenced" ]
  in
  let j =
    match Json.of_string (Json.to_string (Report.json results)) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  check Alcotest.(option string) "algorithm" (Some "second-chance") (Json.mem_str "algorithm" j);
  let summary = Option.value ~default:Json.Null (Json.member "summary" j) in
  let count f = List.length (List.filter f results) in
  List.iter
    (fun (k, n) -> check Alcotest.(option int) k (Some n) (Json.mem_int k summary))
    [
      ("programs", List.length results);
      ("improved", count Optimizer.improved);
      ("unsound", count (fun (r : Optimizer.result) -> not r.Optimizer.verdict.Verify.sound));
      ( "fence_increase",
        count (fun (r : Optimizer.result) -> r.Optimizer.output_fences > r.Optimizer.input_fences)
      );
    ];
  let rows = Option.value ~default:[] (Option.bind (Json.member "results" j) Json.list) in
  checki "one row per program" (List.length results) (List.length rows);
  List.iter2
    (fun (r : Optimizer.result) row ->
      check Alcotest.(option string) "name" (Some r.Optimizer.name) (Json.mem_str "name" row);
      check Alcotest.(option bool) "loop_free" (Some (Verify.loop_free r.Optimizer.input))
        (mem_bool "loop_free" row);
      List.iter
        (fun (k, n) -> check Alcotest.(option int) k (Some n) (Json.mem_int k row))
        [
          ("input_fences", r.Optimizer.input_fences);
          ("output_fences", r.Optimizer.output_fences);
          ("removed", r.Optimizer.removed);
          ("weakened", r.Optimizer.weakened);
          ("merged", r.Optimizer.merged);
        ];
      check Alcotest.(option bool) "sound" (Some r.Optimizer.verdict.Verify.sound)
        (mem_bool "sound" row);
      check Alcotest.(option bool) "reverted" (Some r.Optimizer.reverted) (mem_bool "reverted" row);
      check Alcotest.(option string) "oracle" (Some r.Optimizer.verdict.Verify.oracle)
        (Json.mem_str "oracle" row);
      let costs = Option.value ~default:[] (Option.bind (Json.member "costs" row) Json.list) in
      checki "one cost per platform" (List.length r.Optimizer.costs_before) (List.length costs);
      List.iter2
        (fun ((b : Armb_synth.Cost.platform_cost), (a : Armb_synth.Cost.platform_cost)) c ->
          check Alcotest.string "record pairs platforms" b.platform a.platform;
          check Alcotest.(option string) "platform" (Some b.platform) (Json.mem_str "platform" c);
          List.iter
            (fun (k, want) ->
              match Json.mem_number k c with
              | Some v -> check (Alcotest.float (1e-5 *. want)) k want v
              | None -> Alcotest.failf "%s: no %s" r.Optimizer.name k)
            [ ("before", b.cycles); ("after", a.cycles) ])
        (List.combine r.Optimizer.costs_before r.Optimizer.costs_after)
        costs)
    results rows

let () =
  Alcotest.run "opt"
    [
      ( "cfg-structure",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "reachable-blocks" `Quick test_reachable_blocks;
        ] );
      ( "cfg-lowering",
        [
          Alcotest.test_case "of_test/lower round trip" `Quick test_round_trip;
          Alcotest.test_case "straight-line detection" `Quick test_straight_line;
        ] );
      ( "cfg-semantics",
        [
          Alcotest.test_case "reachable = enumerate on straight-line" `Slow
            test_reachable_identity;
          Alcotest.test_case "catalogue cfg expectations" `Quick test_cfg_expectations;
          Alcotest.test_case "unroll monotone" `Slow test_unroll_monotone;
          Alcotest.test_case "loop path shapes" `Quick test_slices_shape;
          Alcotest.test_case "slice tests verify" `Slow test_cfg_slice_tests;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "flat wrappers" `Quick test_mutate_wrappers;
          Alcotest.test_case "block-addressed edits" `Quick test_mutate_cfg_edits;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "rpo + dominators" `Quick test_rpo_dominators;
          Alcotest.test_case "escape" `Quick test_escape;
        ] );
      ( "passes",
        [
          Alcotest.test_case "over-fenced MP" `Quick test_merge_straight_line;
          Alcotest.test_case "adjacent fences merge" `Quick test_merge_adjacent;
          Alcotest.test_case "dsb pinned" `Quick test_merge_dsb_pinned;
          Alcotest.test_case "loop fence weakens" `Quick test_merge_loop;
          Alcotest.test_case "single-bb vs linear scan" `Quick test_single_bb_vs_linear;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "second chance vs acq/rel" `Slow test_second_chance_acq_rel;
          Alcotest.test_case "catalogue sweep sound" `Slow test_optimize_catalogue_sound;
          QCheck_alcotest.to_alcotest qcheck_optimize_preserves;
          Alcotest.test_case "soak" `Slow test_opt_soak;
        ] );
      ("report", [ Alcotest.test_case "json" `Quick test_report_json ]);
    ]
