(* Tests for the extended in-place lock family: spinlock, MCS, cohort.
   Each harness run embeds a mutual-exclusion oracle and an exact
   protected-counter check, so completing a run already proves
   correctness; the assertions add structural and NUMA-behaviour
   invariants. *)

module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module P = Armb_platform.Platform
module S = Armb_sync

let check = Alcotest.check

let compare_spec lock cores =
  {
    (S.Ds_bench.default_spec P.kunpeng916 ~lock) with
    workers = List.length cores;
    cores;
    ops_per_worker = 60;
    interval_nops = 300;
  }

let same_node_cores = List.init 12 (fun i -> i)

let cross_node_cores = List.init 12 (fun i -> if i < 6 then i else 22 + i)

(* ---------- all locks pass the oracle harness ---------- *)

let test_all_locks_exact_counter () =
  List.iter
    (fun lk ->
      let r = S.Ds_bench.run_counter (compare_spec lk cross_node_cores) in
      check Alcotest.bool (S.Ds_bench.lock_name lk) true (r.throughput > 0.0))
    S.Ds_bench.in_place_locks

(* ---------- spinlock ---------- *)

let test_spin_try_acquire () =
  let m = Machine.create P.kunpeng916 in
  let l = S.Spin_lock.create m in
  let first = ref false and second = ref false and third = ref false in
  Machine.spawn m ~core:0 (fun c ->
      first := S.Spin_lock.try_acquire l c;
      second := S.Spin_lock.try_acquire l c;
      S.Spin_lock.release l c;
      third := S.Spin_lock.try_acquire l c);
  Machine.run_exn m;
  check Alcotest.bool "first succeeds" true !first;
  check Alcotest.bool "second fails while held" false !second;
  check Alcotest.bool "reacquire after release" true !third

let test_spin_no_ldar_variant () =
  let m = Machine.create P.kunpeng916 in
  let l = S.Spin_lock.create m in
  let shared = Machine.alloc_line m in
  for core = 0 to 3 do
    Machine.spawn m ~core (fun c ->
        for _ = 1 to 30 do
          S.Spin_lock.acquire ~use_ldar:false l c;
          let v = Core.await c (Core.load c shared) in
          Core.store c shared (Int64.add v 1L);
          S.Spin_lock.release l c
        done)
  done;
  Machine.run_exn m;
  check Alcotest.int64 "barrier-based acquire also safe" 120L
    (Armb_mem.Memsys.load_value (Machine.mem m) ~addr:shared)

(* ---------- MCS ---------- *)

let test_mcs_fifo_handoff () =
  (* MCS grants in queue order: with staggered arrivals the admission
     order must match arrival order *)
  let m = Machine.create P.kunpeng916 in
  let l = S.Mcs_lock.create m ~slots:4 in
  let order = ref [] in
  for slot = 0 to 3 do
    Machine.spawn m ~core:(slot * 8) (fun c ->
        Core.pause c (slot * 2000);
        S.Mcs_lock.acquire l c ~slot;
        order := slot :: !order;
        Core.compute c 50;
        S.Mcs_lock.release l c ~slot)
  done;
  Machine.run_exn m;
  check (Alcotest.list Alcotest.int) "fifo admission" [ 0; 1; 2; 3 ] (List.rev !order)

let test_mcs_bad_slot () =
  let m = Machine.create P.kunpeng916 in
  let l = S.Mcs_lock.create m ~slots:2 in
  Machine.spawn m ~core:0 (fun c -> S.Mcs_lock.acquire l c ~slot:5);
  match Machine.run_exn m with
  | () -> Alcotest.fail "bad slot accepted"
  | exception Machine.Simulation_error _ -> ()

let test_mcs_uncontended_cheap () =
  (* an uncontended MCS acquire+release must not pay cross-node costs *)
  let m = Machine.create P.kunpeng916 in
  let l = S.Mcs_lock.create m ~slots:1 in
  Machine.spawn m ~core:0 (fun c ->
      for _ = 1 to 50 do
        S.Mcs_lock.acquire l c ~slot:0;
        S.Mcs_lock.release l c ~slot:0
      done);
  Machine.run_exn m;
  let per_op = Machine.elapsed m / 50 in
  check Alcotest.bool "uncontended cost bounded" true (per_op < 100)

(* ---------- cohort ---------- *)

let test_cohort_handoff_accounting () =
  let m = Machine.create P.kunpeng916 in
  let l = S.Cohort_lock.create m () in
  let shared = Machine.alloc_line m in
  let iters = 40 in
  List.iter
    (fun core ->
      Machine.spawn m ~core (fun c ->
          for _ = 1 to iters do
            S.Cohort_lock.acquire l c;
            let v = Core.await c (Core.load c shared) in
            Core.store c shared (Int64.add v 1L);
            S.Cohort_lock.release l c
          done))
    cross_node_cores;
  Machine.run_exn m;
  let total = List.length cross_node_cores * iters in
  check Alcotest.int64 "exact count" (Int64.of_int total)
    (Armb_mem.Memsys.load_value (Machine.mem m) ~addr:shared);
  check Alcotest.int "every acquisition released one way or the other" total
    (S.Cohort_lock.handoffs l + S.Cohort_lock.global_transfers l);
  check Alcotest.bool "same-node handoffs happened" true (S.Cohort_lock.handoffs l > 0);
  check Alcotest.bool "but the budget forces global transfers too" true
    (S.Cohort_lock.global_transfers l > 1)

let test_cohort_cuts_cross_node_traffic () =
  let run lk = S.Ds_bench.run_counter (compare_spec lk cross_node_cores) in
  let ticket = run S.Ds_bench.Ticket and cohort = run S.Ds_bench.Cohort in
  check Alcotest.bool "cohort moves far fewer lines across nodes" true
    (cohort.cross_node_per_cs < 0.5 *. ticket.cross_node_per_cs)

let test_cohort_same_node_no_penalty () =
  (* on a single node the cohort lock must not pay cross-node traffic *)
  let r = S.Ds_bench.run_counter (compare_spec S.Ds_bench.Cohort same_node_cores) in
  check (Alcotest.float 0.01) "no cross-node traffic" 0.0 r.cross_node_per_cs

let test_cohort_budget_bounds_unfairness () =
  let m = Machine.create P.kunpeng916 in
  let l = S.Cohort_lock.create m ~max_cohort:2 () in
  let served_nodes = ref [] in
  List.iter
    (fun core ->
      Machine.spawn m ~core (fun c ->
          for _ = 1 to 12 do
            S.Cohort_lock.acquire l c;
            served_nodes :=
              Armb_mem.Topology.node_of P.kunpeng916.topo (Core.id c) :: !served_nodes;
            Core.compute c 30;
            S.Cohort_lock.release l c;
            Core.compute c 30
          done))
    [ 0; 1; 28; 29 ];
  Machine.run_exn m;
  (* with budget 2, no node may be served more than 3 times in a row *)
  let rec max_run best cur prev = function
    | [] -> max best cur
    | n :: rest ->
      if n = prev then max_run best (cur + 1) n rest else max_run (max best cur) 1 n rest
  in
  let longest = max_run 0 0 (-1) (List.rev !served_nodes) in
  check Alcotest.bool "cohort budget respected" true (longest <= 3)

let () =
  Alcotest.run "armb_locks"
    [
      ( "harness",
        [ Alcotest.test_case "all locks verified" `Slow test_all_locks_exact_counter ] );
      ( "spinlock",
        [
          Alcotest.test_case "try_acquire" `Quick test_spin_try_acquire;
          Alcotest.test_case "barrier-based acquire" `Quick test_spin_no_ldar_variant;
        ] );
      ( "mcs",
        [
          Alcotest.test_case "fifo handoff" `Quick test_mcs_fifo_handoff;
          Alcotest.test_case "slot validation" `Quick test_mcs_bad_slot;
          Alcotest.test_case "uncontended cost" `Quick test_mcs_uncontended_cheap;
        ] );
      ( "cohort",
        [
          Alcotest.test_case "handoff accounting" `Quick test_cohort_handoff_accounting;
          Alcotest.test_case "cuts cross-node traffic" `Slow
            test_cohort_cuts_cross_node_traffic;
          Alcotest.test_case "no same-node penalty" `Quick test_cohort_same_node_no_penalty;
          Alcotest.test_case "budget bounds unfairness" `Quick
            test_cohort_budget_bounds_unfairness;
        ] );
    ]
