(* Tests for the simulated synchronization layer: rings, Pilot rings,
   ticket lock, delegation locks and the data-structure harness.
   Most runs self-verify (payload checks, shadow models, mutual
   exclusion oracles), so "it completes" is already a strong check;
   the assertions below add relative-performance and accounting
   invariants. *)

module P = Armb_platform.Platform
module S = Armb_sync
module Barrier = Armb_cpu.Barrier
module Ordering = Armb_core.Ordering

let check = Alcotest.check

let cross = (0, 28)

let ring_spec () =
  { (S.Spsc_ring.default_spec P.kunpeng916 ~cores:cross) with messages = 800 }

(* ---------- SPSC ring ---------- *)

let test_ring_all_combos_verified () =
  List.iter
    (fun name ->
      let spec = { (ring_spec ()) with barriers = S.Spsc_ring.combo name } in
      let r = S.Spsc_ring.verified_run spec in
      check Alcotest.bool (name ^ " positive throughput") true (r.S.Spsc_ring.throughput > 0.0))
    S.Spsc_ring.combo_names

(* Pilot is a [barriers] value, not a legend name. *)
let test_ring_unknown_combo () =
  List.iter
    (fun name ->
      match S.Spsc_ring.combo name with
      | _ -> Alcotest.failf "unknown combo %S accepted" name
      | exception Invalid_argument _ -> ())
    [ "nonsense"; "Pilot"; "pilot" ]

let test_ring_fatal_barrier_dominates () =
  let t name = (S.Spsc_ring.verified_run { (ring_spec ()) with barriers = S.Spsc_ring.combo name }).S.Spsc_ring.throughput in
  let ld_st = t "DMB ld - DMB st" in
  let ld_none = t "DMB ld - No Barrier" in
  let full_stlr = t "DMB full - STLR" in
  check Alcotest.bool "removing the publish barrier is the big win" true
    (ld_none > 2.0 *. ld_st);
  check Alcotest.bool "STLR publish is the worst legal choice" true (full_stlr < ld_st)

let test_ring_small_buffers () =
  let spec = { (ring_spec ()) with slots = 1; messages = 100 } in
  let r = S.Spsc_ring.verified_run spec in
  check Alcotest.bool "slot-1 ring still correct" true (r.S.Spsc_ring.throughput > 0.0)

let test_ring_observer_neutral () =
  let spec = { (S.Spsc_ring.default_spec P.kunpeng916 ~cores:cross) with messages = 500 } in
  let observed = ref 0 in
  let traced = S.Spsc_ring.verified_run ~observer:(fun _ -> incr observed) spec in
  check Alcotest.bool "observer saw the run" true (!observed > 0);
  check Alcotest.bool "observing changes nothing" true (S.Spsc_ring.verified_run spec = traced)

(* ---------- Pilot ring ---------- *)

let pilot_spec () = { (ring_spec ()) with barriers = S.Spsc_ring.Pilot }

let test_pilot_ring_verified () =
  let r = S.Spsc_ring.verified_run (pilot_spec ()) in
  check Alcotest.bool "throughput" true (r.S.Spsc_ring.throughput > 0.0)

let test_pilot_beats_best_legal () =
  let best =
    (S.Spsc_ring.verified_run { (ring_spec ()) with barriers = S.Spsc_ring.combo "DMB ld - DMB st" })
      .S.Spsc_ring.throughput
  in
  let pilot = (S.Spsc_ring.verified_run (pilot_spec ())).S.Spsc_ring.throughput in
  check Alcotest.bool "pilot wins" true (pilot > 1.2 *. best)

let test_pilot_batched_words () =
  List.iter
    (fun words ->
      let r = S.Spsc_ring.run_batched ~words (pilot_spec ()) in
      check Alcotest.bool (Printf.sprintf "words=%d verified" words) true
        (r.S.Spsc_ring.throughput > 0.0))
    [ 1; 2; 4; 8 ]

let test_pilot_batched_speedup_declines () =
  let speedup words =
    let spec = { (ring_spec ()) with messages = 600 } in
    let p = S.Spsc_ring.run_batched ~words { spec with barriers = S.Spsc_ring.Pilot } in
    let b = S.Spsc_ring.run_batched ~words spec in
    p.S.Spsc_ring.throughput /. b.S.Spsc_ring.throughput
  in
  let s1 = speedup 1 and s8 = speedup 8 in
  check Alcotest.bool "improvement declines with batching" true (s8 < s1)

let test_pilot_bad_words () =
  match S.Spsc_ring.run_batched ~words:9 (pilot_spec ()) with
  | _ -> Alcotest.fail "words > 8 accepted"
  | exception Invalid_argument _ -> ()

(* ---------- counter workload ---------- *)

let counter_spec lock ~workers ~rounds =
  {
    (S.Ds_bench.default_spec P.kunpeng916 ~lock) with
    workers;
    ops_per_worker = rounds;
    interval_nops = 300;
  }

(* ---------- ticket lock ---------- *)

let tl_spec () =
  {
    (counter_spec S.Ds_bench.Ticket ~workers:8 ~rounds:60) with
    cores = List.init 8 (fun i -> i * 7);
  }

let test_ticket_mutual_exclusion () =
  (* the run itself contains the mutual-exclusion oracle *)
  let r = S.Ds_bench.run_counter (tl_spec ()) in
  check Alcotest.bool "throughput" true (r.S.Ds_bench.throughput > 0.0)

let test_ticket_counter_exact () =
  let m = Armb_cpu.Machine.create P.kunpeng916 in
  let lock = S.Ticket_lock.create m in
  let shared = Armb_cpu.Machine.alloc_line m in
  let iters = 40 in
  for core = 0 to 5 do
    Armb_cpu.Machine.spawn m ~core (fun c ->
        for _ = 1 to iters do
          S.Ticket_lock.acquire lock c;
          let v = Armb_cpu.Core.await c (Armb_cpu.Core.load c shared) in
          Armb_cpu.Core.store c shared (Int64.add v 1L);
          S.Ticket_lock.release lock c
        done)
  done;
  Armb_cpu.Machine.run_exn m;
  check Alcotest.int64 "lock-protected increments all landed"
    (Int64.of_int (6 * iters))
    (Armb_mem.Memsys.load_value (Armb_cpu.Machine.mem m) ~addr:shared)

let test_ticket_removing_barrier_helps () =
  let t barrier =
    (S.Ds_bench.run_counter { (tl_spec ()) with release_barrier = barrier; cs_lines = 2 })
      .S.Ds_bench.throughput
  in
  let normal = t (Ordering.Bar (Barrier.Dmb Full)) in
  let removed = t Ordering.No_barrier in
  check Alcotest.bool "barrier removal helps with RMRs in the CS" true (removed > normal)

let test_ticket_stlr_release () =
  let r = S.Ds_bench.run_counter { (tl_spec ()) with release_barrier = Ordering.Stlr_release } in
  check Alcotest.bool "stlr release works" true (r.S.Ds_bench.throughput > 0.0)

(* ---------- FFWD ---------- *)

(* the server takes core 0, the 8 clients cores 1-8 *)
let ffwd_spec ?(pilot = false) () =
  counter_spec (if pilot then S.Ds_bench.Ffwd_pilot else S.Ds_bench.Ffwd_lock) ~workers:8
    ~rounds:60

let test_ffwd_serves_all () =
  let r = S.Ds_bench.run_counter (ffwd_spec ()) in
  check Alcotest.bool "throughput" true (r.S.Ds_bench.throughput > 0.0)

let test_ffwd_pilot_serves_all () =
  let r = S.Ds_bench.run_counter (ffwd_spec ~pilot:true ()) in
  check Alcotest.bool "pilot throughput" true (r.S.Ds_bench.throughput > 0.0)

let test_ffwd_pilot_faster_under_contention () =
  let t pilot =
    (S.Ds_bench.run_counter { (ffwd_spec ~pilot ()) with interval_nops = 100 })
      .S.Ds_bench.throughput
  in
  check Alcotest.bool "pilot >= plain at high contention" true (t true > 0.95 *. t false)

let test_ffwd_barrier_combos () =
  List.iter
    (fun read_req ->
      let spec =
        {
          (ffwd_spec ()) with
          ffwd_barriers = { S.Ffwd.read_req; publish_resp = Ordering.Bar (Barrier.Dmb St) };
        }
      in
      let r = S.Ds_bench.run_counter spec in
      check Alcotest.bool "combo works" true (r.S.Ds_bench.throughput > 0.0))
    [
      Ordering.Bar (Barrier.Dmb Full);
      Ordering.Bar (Barrier.Dmb Ld);
      Ordering.Ldar_acquire;
      Ordering.Ctrl_isb;
      Ordering.Addr_dep;
    ]

let test_ffwd_rejects_server_as_client () =
  (* core 1 would serve and also run the first client *)
  let spec = { (ffwd_spec ()) with cores = 1 :: List.init 8 (fun i -> i + 1) } in
  match S.Ds_bench.run_counter spec with
  | _ -> Alcotest.fail "server==client accepted"
  | exception Invalid_argument _ -> ()

(* ---------- DSM-Synch ---------- *)

let ds_spec ?(pilot = false) () =
  counter_spec (if pilot then S.Ds_bench.Dsynch_pilot else S.Ds_bench.Dsynch) ~workers:9
    ~rounds:60

(* Combining is an instance's own count: build one directly, [parties]
   threads on cores 0.. each running [rounds] requests with distinct
   arguments.  Every return must be what the critical section computed
   for that argument (a combiner handing a waiter a wrong or stale
   response fails here), and every request must run exactly once.
   Returns the instance's combines. *)
let dsmsynch_combines ?combine_bound ~interval_nops () =
  let module Core = Armb_cpu.Core in
  let module Machine = Armb_cpu.Machine in
  let parties = 9 and rounds = 60 in
  let m = Machine.create P.kunpeng916 in
  let counter = Machine.alloc_line m in
  let ran = ref 0 and computed = Hashtbl.create 256 in
  let critical (c : Core.t) ~client:_ arg =
    let v = Core.await c (Core.load c counter) in
    Core.store c counter (Int64.add v 1L);
    Core.compute c 2;
    incr ran;
    let r = Int64.add arg v in
    Hashtbl.replace computed arg r;
    r
  in
  let d = S.Dsmsynch.create m ~parties ?combine_bound ~critical () in
  for me = 0 to parties - 1 do
    Machine.spawn m ~core:me (fun c ->
        for round = 0 to rounds - 1 do
          let arg = Int64.of_int (((me + 1) * 1_000_000) + round) in
          let ret = S.Dsmsynch.exec d c ~me arg in
          (match Hashtbl.find_opt computed arg with
          | Some r when Int64.equal r ret -> ()
          | Some r ->
            failwith
              (Printf.sprintf "thread %d round %d: returned %Ld, expected %Ld" me round ret r)
          | None -> failwith (Printf.sprintf "thread %d round %d never executed" me round));
          Core.compute c interval_nops
        done)
  done;
  Machine.run_exn m;
  check Alcotest.int "every request ran once" (parties * rounds) !ran;
  check Alcotest.int64 "counter total" (Int64.of_int (parties * rounds))
    (Armb_mem.Memsys.load_value (Machine.mem m) ~addr:counter);
  S.Dsmsynch.combines d

let test_dsmsynch_serves_all () =
  let r = S.Ds_bench.run_counter (ds_spec ()) in
  check Alcotest.bool "throughput" true (r.S.Ds_bench.throughput > 0.0)

let test_dsmsynch_pilot_serves_all () =
  let r = S.Ds_bench.run_counter (ds_spec ~pilot:true ()) in
  check Alcotest.bool "pilot throughput" true (r.S.Ds_bench.throughput > 0.0)

let test_dsmsynch_combining_happens () =
  check Alcotest.bool "some requests combined" true (dsmsynch_combines ~interval_nops:50 () > 0)

let test_dsmsynch_combine_bound_respected () =
  (* with bound 1 nothing is ever combined for another thread *)
  check Alcotest.int "no combining at bound 1" 0
    (dsmsynch_combines ~combine_bound:1 ~interval_nops:300 ())

let test_dsmsynch_single_thread () =
  let r = S.Ds_bench.run_counter (counter_spec S.Ds_bench.Dsynch ~workers:1 ~rounds:30) in
  check Alcotest.bool "works with one party" true (r.S.Ds_bench.throughput > 0.0)

(* ---------- data-structure harness ---------- *)

(* the paper's locks and the in-place family *)
let every_lock = S.Ds_bench.(Spin :: Mcs :: Cohort :: paper_locks)

let ds_bench_spec lock =
  { (S.Ds_bench.default_spec P.kunpeng916 ~lock) with workers = 8; ops_per_worker = 48 }

let test_ds_queue_all_locks () =
  List.iter
    (fun lk ->
      let r = S.Ds_bench.run_queue (ds_bench_spec lk) in
      check Alcotest.int (S.Ds_bench.lock_name lk ^ " ops") (8 * 48) r.S.Ds_bench.ops)
    every_lock

let test_ds_stack_all_locks () =
  List.iter
    (fun lk ->
      let r = S.Ds_bench.run_stack (ds_bench_spec lk) in
      check Alcotest.bool (S.Ds_bench.lock_name lk) true (r.S.Ds_bench.throughput > 0.0))
    every_lock

let test_ds_sorted_list_all_locks () =
  List.iter
    (fun lk ->
      let r = S.Ds_bench.run_sorted_list ~preload:30 (ds_bench_spec lk) in
      check Alcotest.bool (S.Ds_bench.lock_name lk) true (r.S.Ds_bench.throughput > 0.0))
    every_lock

let test_ds_hash_all_locks () =
  List.iter
    (fun lk ->
      let r = S.Ds_bench.run_hash_table ~buckets:8 ~preload:64 (ds_bench_spec lk) in
      check Alcotest.bool (S.Ds_bench.lock_name lk) true (r.S.Ds_bench.throughput > 0.0))
    every_lock

let test_ds_delegation_beats_ticket_on_queue () =
  let t lk = (S.Ds_bench.run_queue (ds_bench_spec lk)).S.Ds_bench.throughput in
  check Alcotest.bool "delegation wins under contention" true
    (t S.Ds_bench.Dsynch > t S.Ds_bench.Ticket)

(* ---------- Barrier primitives ---------- *)

let barrier_spec ~cfg ~kind ~cores =
  { S.Sync_barrier.cfg; kind; cores; episodes = 3; work = 40 }

let all_kinds = [ S.Sync_barrier.Central; S.Sync_barrier.Tree 4; S.Sync_barrier.Dissemination ]

(* 12 participants: not a power of two (exercises the dissemination
   wrap-around) and not a multiple of the tree arity (ragged leaf). *)
let test_barrier_all_kinds_complete () =
  List.iter
    (fun kind ->
      let cores = List.init 12 (fun i -> 2 * i) in
      let r = S.Sync_barrier.run (barrier_spec ~cfg:P.kunpeng916 ~kind ~cores) in
      let name = S.Sync_barrier.kind_name kind in
      check Alcotest.int (name ^ " episodes") 3 r.S.Sync_barrier.episodes;
      check Alcotest.bool (name ^ " cycles") true (r.S.Sync_barrier.cycles > 0))
    all_kinds

let test_barrier_deterministic () =
  List.iter
    (fun kind ->
      let run () =
        (S.Sync_barrier.run
           (barrier_spec ~cfg:P.kunpeng916 ~kind ~cores:(List.init 8 Fun.id)))
          .S.Sync_barrier.cycles
      in
      check Alcotest.int (S.Sync_barrier.kind_name kind ^ " deterministic") (run ())
        (run ()))
    all_kinds

(* 65 participants on a 72-core machine: the sharer set of the sense
   line spans three 32-bit bitset words and includes bit 64 exactly at
   a word boundary. *)
let test_barrier_past_word_boundary () =
  let cfg = P.manycore ~cores:72 in
  List.iter
    (fun kind ->
      let r = S.Sync_barrier.run (barrier_spec ~cfg ~kind ~cores:(List.init 65 Fun.id)) in
      check Alcotest.bool
        (S.Sync_barrier.kind_name kind ^ " wide run")
        true
        (r.S.Sync_barrier.cycles > 0))
    all_kinds

let test_barrier_single_core () =
  List.iter
    (fun kind ->
      let r = S.Sync_barrier.run (barrier_spec ~cfg:P.raspberrypi4 ~kind ~cores:[ 0 ]) in
      check Alcotest.bool (S.Sync_barrier.kind_name kind ^ " n=1") true
        (r.S.Sync_barrier.cycles > 0))
    all_kinds

let test_barrier_tree_beats_central_at_128 () =
  let cpe kind =
    (S.Sync_barrier.run
       {
         S.Sync_barrier.cfg = P.manycore ~cores:128;
         kind;
         cores = List.init 128 Fun.id;
         episodes = 2;
         work = 40;
       })
      .S.Sync_barrier.cycles_per_episode
  in
  check Alcotest.bool "tree4 < central at 128 cores" true
    (cpe (S.Sync_barrier.Tree 4) < cpe S.Sync_barrier.Central)

let test_barrier_bad_specs () =
  let spec = barrier_spec ~cfg:P.raspberrypi4 ~kind:S.Sync_barrier.Central ~cores:[ 0 ] in
  List.iter
    (fun bad ->
      match S.Sync_barrier.run bad with
      | _ -> Alcotest.fail "bad spec accepted"
      | exception Invalid_argument _ -> ())
    [
      { spec with cores = [] };
      { spec with episodes = 0 };
      { spec with work = -1 };
      { spec with kind = S.Sync_barrier.Tree 1 };
    ]

(* ---------- Sim_alloc ---------- *)

let test_sim_alloc_recycles () =
  let m = Armb_cpu.Machine.create P.kunpeng916 in
  let a = S.Sim_alloc.create m ~capacity:2 in
  let x = S.Sim_alloc.alloc a in
  let y = S.Sim_alloc.alloc a in
  check Alcotest.bool "distinct" true (x <> y);
  check Alcotest.int "in use" 2 (S.Sim_alloc.in_use a);
  (match S.Sim_alloc.alloc a with
  | _ -> Alcotest.fail "exhaustion not detected"
  | exception Failure _ -> ());
  S.Sim_alloc.free a x;
  check Alcotest.int "freed" 1 (S.Sim_alloc.in_use a);
  let z = S.Sim_alloc.alloc a in
  check Alcotest.int "recycled address" x z

let () =
  Alcotest.run "armb_sync"
    [
      ( "spsc-ring",
        [
          Alcotest.test_case "all combos verified" `Slow test_ring_all_combos_verified;
          Alcotest.test_case "unknown combo" `Quick test_ring_unknown_combo;
          Alcotest.test_case "fatal barrier dominates" `Slow test_ring_fatal_barrier_dominates;
          Alcotest.test_case "single-slot ring" `Quick test_ring_small_buffers;
          Alcotest.test_case "observing changes nothing" `Quick test_ring_observer_neutral;
        ] );
      ( "pilot-ring",
        [
          Alcotest.test_case "verified run" `Quick test_pilot_ring_verified;
          Alcotest.test_case "beats best legal" `Slow test_pilot_beats_best_legal;
          Alcotest.test_case "batched words" `Slow test_pilot_batched_words;
          Alcotest.test_case "speedup declines with batching" `Slow
            test_pilot_batched_speedup_declines;
          Alcotest.test_case "word bound" `Quick test_pilot_bad_words;
        ] );
      ( "ticket-lock",
        [
          Alcotest.test_case "mutual exclusion oracle" `Quick test_ticket_mutual_exclusion;
          Alcotest.test_case "protected counter exact" `Quick test_ticket_counter_exact;
          Alcotest.test_case "barrier removal helps" `Slow test_ticket_removing_barrier_helps;
          Alcotest.test_case "stlr release" `Quick test_ticket_stlr_release;
        ] );
      ( "ffwd",
        [
          Alcotest.test_case "serves all requests" `Quick test_ffwd_serves_all;
          Alcotest.test_case "pilot serves all" `Quick test_ffwd_pilot_serves_all;
          Alcotest.test_case "pilot competitive" `Slow test_ffwd_pilot_faster_under_contention;
          Alcotest.test_case "barrier combos" `Slow test_ffwd_barrier_combos;
          Alcotest.test_case "server/client overlap rejected" `Quick
            test_ffwd_rejects_server_as_client;
        ] );
      ( "dsmsynch",
        [
          Alcotest.test_case "serves all requests" `Quick test_dsmsynch_serves_all;
          Alcotest.test_case "pilot serves all" `Quick test_dsmsynch_pilot_serves_all;
          Alcotest.test_case "combining happens" `Quick test_dsmsynch_combining_happens;
          Alcotest.test_case "combine bound" `Quick test_dsmsynch_combine_bound_respected;
          Alcotest.test_case "single thread" `Quick test_dsmsynch_single_thread;
        ] );
      ( "data-structures",
        [
          Alcotest.test_case "queue under every lock" `Slow test_ds_queue_all_locks;
          Alcotest.test_case "stack under every lock" `Slow test_ds_stack_all_locks;
          Alcotest.test_case "sorted list under every lock" `Slow
            test_ds_sorted_list_all_locks;
          Alcotest.test_case "hash table under every lock" `Slow test_ds_hash_all_locks;
          Alcotest.test_case "delegation beats ticket" `Slow
            test_ds_delegation_beats_ticket_on_queue;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "all kinds complete" `Quick test_barrier_all_kinds_complete;
          Alcotest.test_case "deterministic" `Quick test_barrier_deterministic;
          Alcotest.test_case "past word boundary" `Slow test_barrier_past_word_boundary;
          Alcotest.test_case "single core" `Quick test_barrier_single_core;
          Alcotest.test_case "tree beats central at 128" `Slow
            test_barrier_tree_beats_central_at_128;
          Alcotest.test_case "bad specs" `Quick test_barrier_bad_specs;
        ] );
      ("sim-alloc", [ Alcotest.test_case "recycling" `Quick test_sim_alloc_recycles ]);
    ]
