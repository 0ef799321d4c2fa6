(* Tests for the application workloads: the dedup pipeline and the
   floorplan branch-and-bound.  Both self-validate (end-to-end payload
   checks; oracle comparison), so completing a run is itself the main
   assertion. *)

module Json = Armb_json.Json
module P = Armb_platform.Platform
module W = Armb_workloads

let check = Alcotest.check

let dedup_spec queue workload =
  { (W.Dedup.default_spec P.kunpeng916 ~queue ~workload) with slots = 8 }

let test_dedup_all_queues_verified () =
  List.iter
    (fun q ->
      let r = W.Dedup.run (dedup_spec q W.Dedup.Small) in
      check Alcotest.int (W.Dedup.queue_name q ^ " chunks") 800 r.W.Dedup.chunks;
      check Alcotest.bool "throughput" true (r.W.Dedup.throughput > 0.0))
    W.Dedup.all_queues

let test_dedup_ordering_of_variants () =
  let t q = (W.Dedup.run (dedup_spec q W.Dedup.Small)).W.Dedup.throughput in
  let q = t W.Dedup.Locked_queue and rb = t W.Dedup.Ring and rbp = t W.Dedup.Ring_pilot in
  check Alcotest.bool "RB-P >= RB" true (rbp >= rb);
  check Alcotest.bool "RB > Q (lock-free beats lock here)" true (rb > q)

let test_dedup_workload_sizes () =
  let cycles w = (W.Dedup.run (dedup_spec W.Dedup.Ring w)).W.Dedup.cycles in
  let s = cycles W.Dedup.Small and l = cycles W.Dedup.Large in
  check Alcotest.bool "larger workload takes longer" true (l > (2 * s))

let test_dedup_bad_cores () =
  let spec = { (dedup_spec W.Dedup.Ring W.Dedup.Small) with cores = [ 0; 1 ] } in
  match W.Dedup.run spec with
  | _ -> Alcotest.fail "bad stage core list accepted"
  | exception Invalid_argument _ -> ()

let test_barrier_study_small_sweep () =
  let t = W.Barrier_study.run ~sizes:[ 8; 16 ] ~episodes:2 ~work:20 () in
  check Alcotest.int "rows" 2 (List.length t.W.Barrier_study.rows);
  List.iter
    (fun (r : W.Barrier_study.row) ->
      check Alcotest.bool "central cpe positive" true (r.central.cycles_per_episode > 0.);
      check Alcotest.bool "tree cpe positive" true (r.tree.cycles_per_episode > 0.);
      check Alcotest.bool "dissem cpe positive" true
        (r.dissemination.cycles_per_episode > 0.))
    t.W.Barrier_study.rows

let test_barrier_study_crossover_found () =
  (* central wins at 8, the tree must win by 256: the crossover is in
     between and is reported *)
  let t = W.Barrier_study.run ~sizes:[ 8; 256 ] ~episodes:2 ~work:20 () in
  match t.W.Barrier_study.crossover with
  | Some c -> check Alcotest.int "crossover at the large size" 256 c
  | None -> Alcotest.fail "no crossover up to 256 cores"

let test_barrier_study_bad_sizes () =
  List.iter
    (fun sizes ->
      match W.Barrier_study.run ~sizes () with
      | _ -> Alcotest.fail "bad sweep size accepted"
      | exception Invalid_argument _ -> ())
    [ []; [ 12 ]; [ 4 ]; [ 2048 ]; [ 8; 0 ] ]

(* The rendered study parses back to the record it came from. *)
let test_barrier_study_json () =
  let t = W.Barrier_study.run ~sizes:[ 8 ] ~episodes:1 ~work:10 () in
  match Json.of_string (Json.to_string (W.Barrier_study.to_json t)) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    check Alcotest.(option string) "schema" (Some "armb-barrier-study-v1")
      (Json.mem_str "schema" j);
    match (Option.bind (Json.member "rows" j) Json.list, t.W.Barrier_study.rows) with
    | Some [ row ], [ r ] ->
      check Alcotest.(option int) "cores" (Some 8) (Json.mem_int "cores" row);
      List.iter
        (fun (key, (c : W.Barrier_study.cell)) ->
          match Json.mem_number key row with
          | Some v ->
            check (Alcotest.float (1e-5 *. c.cycles_per_episode)) key c.cycles_per_episode v
          | None -> Alcotest.fail (key ^ " missing"))
        [
          ("central_cpe", r.central);
          ("tree_cpe", r.tree);
          ("dissemination_cpe", r.dissemination);
        ]
    | _ -> Alcotest.fail "expected one row")

let test_floorplan_matches_oracle () =
  (* the run itself raises if the parallel result differs from the
     sequential oracle *)
  List.iter
    (fun inp ->
      let r = W.Floorplan.run (W.Floorplan.default_spec P.kunpeng916 ~input:inp) in
      check Alcotest.bool (W.Floorplan.input_name inp ^ " explored") true
        (r.W.Floorplan.nodes_explored > 0);
      check Alcotest.bool "some bound updates" true (r.W.Floorplan.lock_updates > 0))
    [ W.Floorplan.Input5; W.Floorplan.Input15 ]

let test_floorplan_pilot_matches_oracle () =
  let spec = { (W.Floorplan.default_spec P.kunpeng916 ~input:W.Floorplan.Input5) with pilot = true } in
  let r = W.Floorplan.run spec in
  check Alcotest.bool "best area positive" true (r.W.Floorplan.best_area > 0)

let test_floorplan_worker_scaling () =
  let cyc workers =
    (W.Floorplan.run
       { (W.Floorplan.default_spec P.kunpeng916 ~input:W.Floorplan.Input15) with workers })
      .W.Floorplan.cycles
  in
  check Alcotest.bool "more workers, fewer cycles" true (cyc 8 < cyc 1)

let test_floorplan_deterministic () =
  let spec = W.Floorplan.default_spec P.kunpeng916 ~input:W.Floorplan.Input5 in
  let a = W.Floorplan.run spec and b = W.Floorplan.run spec in
  check Alcotest.int "same cycles" a.W.Floorplan.cycles b.W.Floorplan.cycles;
  check Alcotest.int "same area" a.W.Floorplan.best_area b.W.Floorplan.best_area

let () =
  Alcotest.run "armb_workloads"
    [
      ( "dedup",
        [
          Alcotest.test_case "all queues verified" `Slow test_dedup_all_queues_verified;
          Alcotest.test_case "variant ordering" `Slow test_dedup_ordering_of_variants;
          Alcotest.test_case "workload sizes" `Slow test_dedup_workload_sizes;
          Alcotest.test_case "stage core validation" `Quick test_dedup_bad_cores;
        ] );
      ( "barrier-study",
        [
          Alcotest.test_case "small sweep" `Quick test_barrier_study_small_sweep;
          Alcotest.test_case "crossover found" `Slow test_barrier_study_crossover_found;
          Alcotest.test_case "bad sizes" `Quick test_barrier_study_bad_sizes;
          Alcotest.test_case "json" `Quick test_barrier_study_json;
        ] );
      ( "floorplan",
        [
          Alcotest.test_case "oracle match" `Slow test_floorplan_matches_oracle;
          Alcotest.test_case "pilot oracle match" `Quick test_floorplan_pilot_matches_oracle;
          Alcotest.test_case "worker scaling" `Slow test_floorplan_worker_scaling;
          Alcotest.test_case "deterministic" `Quick test_floorplan_deterministic;
        ] );
    ]
