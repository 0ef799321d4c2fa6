(* Tests for the CPU model: micro-op timing, barrier semantics, atomics,
   spinning and the machine driver. *)

module Barrier = Armb_cpu.Barrier
module Config = Armb_cpu.Config
module Core = Armb_cpu.Core
module Json = Armb_json.Json
module Machine = Armb_cpu.Machine
module Topology = Armb_mem.Topology

let check = Alcotest.check

let cfg : Config.t =
  {
    name = "test";
    freq_ghz = 1.0;
    topo = Topology.make ~nodes:2 ~clusters_per_node:2 ~cores_per_cluster:4;
    lat =
      {
        l1_hit = 2;
        same_cluster = 10;
        same_node = 16;
        cross_node = 60;
        dram = 90;
        bisection_rt = 5;
        domain_rt = 300;
        rmw_extra = 6;
      };
    alu_ipc = 4;
    rob_size = 32;
    sb_size = 8;
    isb_cost = 20;
    dmb_min = 2;
    stlr_extra = 50;
    quantum = 64;
  }

let run_one body =
  let m = Machine.create cfg in
  let result = ref 0 in
  Machine.spawn m ~core:0 (fun c -> result := body m c);
  Machine.run_exn m;
  !result

(* ---------- compute / issue ---------- *)

let test_compute_ipc () =
  let cycles = run_one (fun _ c -> Core.compute c 40; Core.cursor c) in
  check Alcotest.int "40 nops at ipc 4" 10 cycles

let test_compute_rounding () =
  let cycles = run_one (fun _ c -> Core.compute c 41; Core.cursor c) in
  check Alcotest.int "ceil(41/4)" 11 cycles

let test_compute_zero () =
  let cycles = run_one (fun _ c -> Core.compute c 0; Core.cursor c) in
  check Alcotest.int "free" 0 cycles

let test_compute_negative () =
  let m = Machine.create cfg in
  Machine.spawn m ~core:0 (fun c -> Core.compute c (-1));
  match Machine.run_exn m with
  | () -> Alcotest.fail "negative compute must be rejected"
  | exception Machine.Simulation_error _ -> ()

(* ---------- loads and stores ---------- *)

let test_store_load_roundtrip () =
  let v =
    run_one (fun m c ->
        let a = Machine.alloc_line m in
        Core.store c a 99L;
        Int64.to_int (Core.await c (Core.load c a)))
  in
  check Alcotest.int "forwarded value" 99 v

let test_store_forwarding_is_fast () =
  let cycles =
    run_one (fun m c ->
        let a = Machine.alloc_line m in
        Core.store c a 1L;
        ignore (Core.await c (Core.load c a));
        Core.cursor c)
  in
  check Alcotest.bool "forwarding beats dram" true (cycles < 20)

let test_load_miss_costs_dram () =
  let cycles =
    run_one (fun m c ->
        let a = Machine.alloc_line m in
        ignore (Core.await c (Core.load c a));
        Core.cursor c)
  in
  check Alcotest.int "dram latency on cold load" 90 cycles

let test_unawaited_loads_overlap () =
  let cycles =
    run_one (fun m c ->
        let a = Machine.alloc_line m and b = Machine.alloc_line m in
        let t1 = Core.load c a in
        let t2 = Core.load c b in
        ignore (Core.await c t1);
        ignore (Core.await c t2);
        Core.cursor c)
  in
  check Alcotest.bool "misses pipeline" true (cycles < 110)

let test_awaited_loads_serialize () =
  let cycles =
    run_one (fun m c ->
        let a = Machine.alloc_line m and b = Machine.alloc_line m in
        ignore (Core.await c (Core.load c a));
        ignore (Core.await c (Core.load c b));
        Core.cursor c)
  in
  check Alcotest.bool "dependent chain serializes" true (cycles >= 180)

let test_value_of_completed_token () =
  let v =
    run_one (fun m c ->
        let a = Machine.alloc_line m in
        Core.store c a 5L;
        let tok = Core.load c a in
        ignore (Core.await c tok);
        Int64.to_int (Core.value tok))
  in
  check Alcotest.int "value after await" 5 v

let test_sb_capacity_stalls () =
  (* sb_size = 8; issuing many cold stores must stall on drain space *)
  let cycles =
    run_one (fun m c ->
        for _ = 1 to 20 do
          let a = Machine.alloc_line m in
          Core.store c a 1L
        done;
        Core.cursor c)
  in
  check Alcotest.bool "store-buffer backpressure" true (cycles > 90)

(* ---------- barriers ---------- *)

let elapsed_with body =
  run_one (fun m c ->
      body m c;
      Core.cursor c)

let test_dsb_blocks_everything () =
  let base = elapsed_with (fun _ c -> Core.compute c 40) in
  let with_dsb =
    elapsed_with (fun _ c ->
        Core.compute c 20;
        Core.barrier c (Barrier.Dsb Full);
        Core.compute c 20)
  in
  check Alcotest.bool "DSB costs the domain round trip" true
    (with_dsb >= base + cfg.lat.domain_rt)

let test_dmb_cheap_without_memory () =
  let base = elapsed_with (fun _ c -> Core.compute c 40) in
  let with_dmb =
    elapsed_with (fun _ c ->
        Core.compute c 20;
        Core.barrier c (Barrier.Dmb Full);
        Core.compute c 20)
  in
  check Alcotest.bool "internally terminated DMB is cheap" true (with_dmb <= base + 5)

let test_isb_flushes () =
  let base = elapsed_with (fun _ c -> Core.compute c 40) in
  let with_isb =
    elapsed_with (fun _ c ->
        Core.compute c 20;
        Core.barrier c Barrier.Isb;
        Core.compute c 20)
  in
  check Alcotest.bool "ISB pays the flush" true (with_isb >= base + cfg.isb_cost)

let test_dmb_st_orders_stores () =
  (* Two threads: writer stores data then flag with DMB st; reader polls
     flag then reads data.  The stale read must never occur. *)
  let m = Machine.create cfg in
  let data = Machine.alloc_line m and flag = Machine.alloc_line m in
  (* make data expensive for the writer: reader owns it *)
  Armb_mem.Memsys.place (Machine.mem m) ~core:8 ~addr:data;
  let seen = ref (-1) in
  Machine.spawn m ~core:0 (fun c ->
      Core.store c data 23L;
      Core.barrier c (Barrier.Dmb St);
      Core.store c flag 1L);
  Machine.spawn m ~core:8 (fun c ->
      ignore (Core.spin_until c flag (Int64.equal 1L));
      Core.barrier c (Barrier.Dmb Ld);
      seen := Int64.to_int (Core.await c (Core.load c data)));
  Machine.run_exn m;
  check Alcotest.int "no stale read through DMB st" 23 !seen

let test_no_barrier_allows_stale_read () =
  (* Same shape without barriers: with the data line remote and the flag
     line local, the stale read is observable. *)
  let m = Machine.create cfg in
  let data = Machine.alloc_line m and flag = Machine.alloc_line m in
  Armb_mem.Memsys.place (Machine.mem m) ~core:8 ~addr:data;
  Armb_mem.Memsys.place (Machine.mem m) ~core:0 ~addr:flag;
  let seen = ref (-1) in
  Machine.spawn m ~core:0 (fun c ->
      Core.store c data 23L;
      Core.store c flag 1L);
  Machine.spawn m ~core:8 (fun c ->
      let f = Core.load c flag in
      let d = Core.load c data in
      let fv = Core.await c f and dv = Core.await c d in
      if Int64.equal fv 1L then seen := Int64.to_int dv);
  Machine.run_exn m;
  check Alcotest.int "weak behaviour observable" 0 !seen

let test_dmb_full_backpressures_alu () =
  (* A DMB full pending on a slow drain occupies the window: a large nop
     batch behind it cannot all issue during the wait. *)
  let m = Machine.create cfg in
  let a = Machine.alloc_line m in
  Armb_mem.Memsys.place (Machine.mem m) ~core:8 ~addr:a;
  let no_barrier = ref 0 and with_barrier = ref 0 in
  Machine.spawn m ~core:0 (fun c ->
      Core.store c a 1L;
      Core.compute c 400;
      no_barrier := Core.cursor c);
  Machine.run_exn m;
  let m2 = Machine.create cfg in
  let b = Machine.alloc_line m2 in
  Armb_mem.Memsys.place (Machine.mem m2) ~core:8 ~addr:b;
  Machine.spawn m2 ~core:0 (fun c ->
      Core.store c b 1L;
      Core.barrier c (Barrier.Dmb Full);
      Core.compute c 400;
      with_barrier := Core.cursor c);
  Machine.run_exn m2;
  check Alcotest.bool "nops stall behind pending DMB full" true
    (!with_barrier > !no_barrier + 30)

let test_stlr_waits_for_prior () =
  let m = Machine.create cfg in
  let data = Machine.alloc_line m and flag = Machine.alloc_line m in
  Armb_mem.Memsys.place (Machine.mem m) ~core:8 ~addr:data;
  Armb_mem.Memsys.place (Machine.mem m) ~core:0 ~addr:flag;
  let seen = ref (-1) in
  Machine.spawn m ~core:0 (fun c ->
      Core.store c data 23L;
      Core.stlr c flag 1L);
  Machine.spawn m ~core:8 (fun c ->
      ignore (Core.spin_until c flag (Int64.equal 1L));
      Core.barrier c (Barrier.Dmb Ld);
      seen := Int64.to_int (Core.await c (Core.load c data)));
  Machine.run_exn m;
  check Alcotest.int "release ordering" 23 !seen

let test_ldar_gates_later_accesses () =
  (* acquire: a load after an LDAR cannot complete before it *)
  let cycles =
    run_one (fun m c ->
        let a = Machine.alloc_line m and b = Machine.alloc_line m in
        Core.store c b 1L;
        let t1 = Core.ldar c a in
        let t2 = Core.load c b in
        ignore (Core.await c t2);
        ignore (Core.await c t1);
        Core.cursor c)
  in
  check Alcotest.bool "second load gated by acquire" true (cycles >= 90)

(* ---------- atomics ---------- *)

let test_fetch_add_atomic () =
  let m = Machine.create cfg in
  let a = Machine.alloc_line m in
  let iters = 50 in
  for core = 0 to 3 do
    Machine.spawn m ~core (fun c ->
        for _ = 1 to iters do
          ignore (Core.await c (Core.fetch_add c a 1L))
        done)
  done;
  Machine.run_exn m;
  check Alcotest.int64 "no lost updates" (Int64.of_int (4 * iters))
    (Armb_mem.Memsys.load_value (Machine.mem m) ~addr:a)

let test_fetch_add_returns_old () =
  let v =
    run_one (fun m c ->
        let a = Machine.alloc_line m in
        Core.store c a 10L;
        Int64.to_int (Core.await c (Core.fetch_add c a 5L)))
  in
  check Alcotest.int "old value" 10 v

let test_cas_success_and_failure () =
  let ok =
    run_one (fun m c ->
        let a = Machine.alloc_line m in
        Core.store c a 1L;
        let old = Core.await c (Core.cas c a ~expected:1L ~desired:2L) in
        let old2 = Core.await c (Core.cas c a ~expected:1L ~desired:3L) in
        if Int64.equal old 1L && Int64.equal old2 2L then 1 else 0)
  in
  check Alcotest.int "cas semantics" 1 ok

let test_cas_exclusive () =
  (* only one of N concurrent CAS(0 -> id) winners *)
  let m = Machine.create cfg in
  let a = Machine.alloc_line m in
  let winners = ref 0 in
  for core = 0 to 7 do
    Machine.spawn m ~core (fun c ->
        let old = Core.await c (Core.cas c a ~expected:0L ~desired:(Int64.of_int (core + 1))) in
        if Int64.equal old 0L then incr winners)
  done;
  Machine.run_exn m;
  check Alcotest.int "exactly one winner" 1 !winners

(* ---------- spinning ---------- *)

let test_spin_wakes_on_store () =
  let m = Machine.create cfg in
  let a = Machine.alloc_line m in
  let woken_at = ref 0 in
  Machine.spawn m ~core:0 (fun c ->
      ignore (Core.spin_until c a (Int64.equal 7L));
      woken_at := Core.cursor c);
  Machine.spawn m ~core:1 (fun c ->
      Core.compute c 200;
      Core.store c a 7L);
  Machine.run_exn m;
  check Alcotest.bool "woke after the store" true (!woken_at >= 50)

let test_spin_poll_two_words () =
  let m = Machine.create cfg in
  let a = Machine.alloc_line m in
  let seen = ref (0, 0) in
  Machine.spawn m ~core:0 (fun c ->
      let v =
        Core.spin_poll c a (fun () ->
            let x = Core.await c (Core.load c a) in
            let y = Core.await c (Core.load c (a + 8)) in
            if Int64.equal x 1L && Int64.equal y 2L then Some (x, y) else None)
      in
      seen := (Int64.to_int (fst v), Int64.to_int (snd v)));
  Machine.spawn m ~core:1 (fun c ->
      Core.compute c 100;
      Core.store c (a + 8) 2L;
      Core.compute c 100;
      Core.store c a 1L);
  Machine.run_exn m;
  check (Alcotest.pair Alcotest.int Alcotest.int) "both words" (1, 2) !seen

let test_deadlock_detection () =
  let m = Machine.create cfg in
  let a = Machine.alloc_line m in
  Machine.spawn m ~core:0 (fun c -> ignore (Core.spin_until c a (Int64.equal 1L)));
  (match Machine.run m with
  | Machine.Deadlock [ 0 ] -> ()
  | _ -> Alcotest.fail "expected deadlock on core 0")

(* ---------- machine ---------- *)

let test_alloc_alignment () =
  let m = Machine.create cfg in
  let a = Machine.alloc_line m and b = Machine.alloc_line m in
  check Alcotest.int "64-byte aligned" 0 (a mod 64);
  check Alcotest.bool "distinct lines" true
    (Armb_mem.Memsys.line_of a <> Armb_mem.Memsys.line_of b)

let test_spawn_validation () =
  let m = Machine.create cfg in
  Machine.spawn m ~core:0 (fun _ -> ());
  Alcotest.check_raises "duplicate spawn"
    (Machine.Simulation_error "spawn: core 0 already has a thread") (fun () ->
      Machine.spawn m ~core:0 (fun _ -> ()));
  Alcotest.check_raises "core out of range"
    (Machine.Simulation_error "spawn: core 99 out of range") (fun () ->
      Machine.spawn m ~core:99 (fun _ -> ()))

(* 128 threads on a 128-core machine — past both the old 62-core sharer
   bound and the old Hashtbl-keyed thread table.  Every core fetch-adds
   a shared line and reads a line every other core also reads, so the
   sharer set spans all four bitset words; the counter proves no update
   and no thread was lost. *)
let test_wide_machine_run () =
  let wide = { cfg with topo = Topology.make ~nodes:2 ~clusters_per_node:8 ~cores_per_cluster:8 } in
  let n = Topology.num_cores wide.topo in
  check Alcotest.int "128 cores" 128 n;
  let m = Machine.create wide in
  let ctr = Machine.alloc_line m in
  let shared = Machine.alloc_line m in
  for core = 0 to n - 1 do
    Machine.spawn m ~core (fun c ->
        ignore (Core.await c (Core.load c shared));
        ignore (Core.await c (Core.fetch_add c ctr 1L));
        ignore (Core.await c (Core.load c shared)))
  done;
  Machine.run_exn m;
  check Alcotest.int64 "every core counted once" (Int64.of_int n)
    (Armb_mem.Memsys.load_value (Machine.mem m) ~addr:ctr);
  check Alcotest.bool "time advanced" true (Machine.elapsed m > 0)

let test_throughput_freq () =
  let m = Machine.create cfg in
  Machine.spawn m ~core:0 (fun c -> Core.compute c 4000);
  Machine.run_exn m;
  (* 1000 cycles at 1 GHz; 1000 ops -> 1e9 ops/s *)
  check (Alcotest.float 1e3) "ops per second" 1e9 (Machine.throughput m ~ops:1000)

let test_counters_track_ops () =
  let m = Machine.create cfg in
  let a = Machine.alloc_line m in
  Machine.spawn m ~core:0 (fun c ->
      Core.store c a 1L;
      ignore (Core.await c (Core.load c a));
      Core.barrier c (Barrier.Dmb Full);
      ignore (Core.await c (Core.fetch_add c a 1L)));
  Machine.run_exn m;
  let ctr = Core.counters (Machine.core m 0) in
  check Alcotest.int "loads" 1 ctr.Core.loads;
  check Alcotest.int "stores" 1 ctr.Core.stores;
  check Alcotest.int "barriers" 1 ctr.Core.barriers;
  check Alcotest.int "rmws" 1 ctr.Core.rmws

let test_quantum_interleaving () =
  (* Two threads hammering the same line must alternate ownership, which
     requires neither to run to completion first. *)
  let m = Machine.create cfg in
  let a = Machine.alloc_line m in
  let iters = 100 in
  for core = 0 to 1 do
    Machine.spawn m ~core (fun c ->
        for _ = 1 to iters do
          ignore (Core.await c (Core.load c a));
          Core.compute c 8
        done)
  done;
  Machine.run_exn m;
  let c0 = Core.cursor (Machine.core m 0) and c1 = Core.cursor (Machine.core m 1) in
  check Alcotest.bool "threads finish at comparable times" true
    (abs (c0 - c1) < (c0 + c1) / 2)

(* ---------- reset = fresh create ---------- *)

type rop =
  | R_load of int
  | R_ldar of int
  | R_store of int * int64
  | R_stlr of int * int64
  | R_rmw of int
  | R_cas of int * int64
  | R_barrier of Barrier.t
  | R_compute of int
  | R_pause of int
  | R_spin of int * int64

(* One run: threads on distinct cores, spawned in [threads] order (any
   order of core ids), an optional observer and fault plan, and an
   optional cycle bound.  Spins wait for values that may never be
   stored, so some runs end in [Deadlock]. *)
type prog = {
  threads : (int * rop list) list;
  observe : bool;
  fault : Armb_fault.Plan.spec option;
  max_cycles : int option;
}

let gen_prog rng =
  let module Rng = Armb_sim.Rng in
  let word () = Rng.int rng 4 and value () = Int64.of_int (1 + Rng.int rng 3) in
  let op () =
    match Rng.int rng 10 with
    | 0 -> R_load (word ())
    | 1 -> R_ldar (word ())
    | 2 -> R_store (word (), value ())
    | 3 -> R_stlr (word (), value ())
    | 4 -> R_rmw (word ())
    | 5 -> R_cas (word (), value ())
    | 6 ->
      R_barrier
        (List.nth
           Barrier.[ Dmb Full; Dmb St; Dmb Ld; Dsb Full; Dsb St; Dsb Ld; Isb ]
           (Rng.int rng 7))
    | 7 -> R_compute (Rng.int rng 200)
    | 8 -> R_pause (Rng.int rng 50)
    | _ -> R_spin (word (), value ())
  in
  let cores = List.filter (fun _ -> Rng.int rng 3 = 0) (List.init 16 Fun.id) in
  let cores = if cores = [] then [ Rng.int rng 16 ] else cores in
  let threads =
    Array.of_list
      (List.filteri (fun i _ -> i < 3) cores
      |> List.map (fun core -> (core, List.init (1 + Rng.int rng 12) (fun _ -> op ()))))
  in
  Rng.shuffle rng threads;
  {
    threads = Array.to_list threads;
    observe = Rng.int rng 2 = 0;
    fault =
      (if Rng.int rng 2 = 0 then
         Some (Armb_fault.Plan.of_intensity ~seed:(Rng.int rng 1000) (float (Rng.int rng 11) /. 10.))
       else None);
    max_cycles = (if Rng.int rng 4 = 0 then Some (Rng.int rng 600) else None);
  }

(* Everything a run can be observed by: status, elapsed time, processed
   events, traffic and core counters, every value loaded and left in
   memory, the observer stream and the fault digest.  Per-thread results
   are listed in core order, whatever the spawn order. *)
let exec m (p : prog) =
  let words =
    let a = Machine.alloc_line m and b = Machine.alloc_line m and c = Machine.alloc_line m in
    [| a; a + 8; b; c |]
  in
  let logs = List.map (fun (core, _) -> (core, ref [])) p.threads in
  List.iter
    (fun (core, ops) ->
      let log = List.assoc core logs in
      let note v = log := v :: !log in
      Machine.spawn m ~core (fun c ->
          let pending = ref [] in
          List.iter
            (function
              | R_load w -> pending := Core.load c words.(w) :: !pending
              | R_ldar w -> note (Core.await c (Core.ldar c words.(w)))
              | R_store (w, v) -> Core.store c words.(w) v
              | R_stlr (w, v) -> Core.stlr c words.(w) v
              | R_rmw w -> pending := Core.fetch_add c words.(w) 1L :: !pending
              | R_cas (w, v) -> note (Core.await c (Core.cas c words.(w) ~expected:0L ~desired:v))
              | R_barrier b -> Core.barrier c b
              | R_compute n -> Core.compute c n
              | R_pause n -> Core.pause c n
              | R_spin (w, v) -> note (Core.spin_until c words.(w) (Int64.equal v)))
            ops;
          List.iter (fun tok -> note (Core.await c tok)) (List.rev !pending)))
    p.threads;
  let status = Machine.run ?max_cycles:p.max_cycles m in
  let mem = Machine.mem m in
  let logs = List.sort (fun (a, _) (b, _) -> Int.compare a b) logs in
  ( status,
    Machine.elapsed m,
    Armb_sim.Event_queue.processed (Machine.queue m),
    Armb_mem.Memsys.counters mem,
    List.map (fun (core, _) -> Core.counters (Machine.core m core)) logs,
    Array.map (fun addr -> Armb_mem.Memsys.load_value mem ~addr) words,
    List.map (fun (_, log) -> !log) logs,
    Option.map Armb_fault.Injector.digest (Machine.injector m) )

let observed p =
  if p.observe then begin
    let events = ref [] in
    (Some (fun e -> events := e :: !events), events)
  end
  else (None, ref [])

(* The reference spawns in core order, so a reset machine that launched
   in spawn order, or kept a stale spawned list, disagrees with it. *)
let fresh_run p =
  let observer, events = observed p in
  let threads = List.sort (fun (a, _) (b, _) -> Int.compare a b) p.threads in
  let r = exec (Machine.create ?observer ?fault:p.fault cfg) { p with threads } in
  (r, !events)

let prop_reset_is_fresh =
  QCheck.Test.make ~name:"reset = fresh create" ~count:300
    QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng = Armb_sim.Rng.create seed in
      let first = gen_prog rng in
      let later = List.init (1 + Armb_sim.Rng.int rng 3) (fun _ -> gen_prog rng) in
      let observer, _ = observed first in
      let m = Machine.create ?observer ?fault:first.fault cfg in
      ignore (exec m first);
      List.for_all
        (fun p ->
          let observer, events = observed p in
          Machine.reset ?observer ?fault:p.fault m;
          let r = exec m p in
          (r, !events) = fresh_run p)
        later)

(* The property must see runs that stop early, or a reset after them
   goes untested. *)
let test_reset_inputs_cover_stops () =
  let statuses =
    List.init 300 (fun i ->
        let (status, _, _, _, _, _, _, _), _ = fresh_run (gen_prog (Armb_sim.Rng.create (i + 1))) in
        status)
  in
  List.iter
    (fun (what, pred) ->
      if not (List.exists pred statuses) then Alcotest.failf "no generated run ends in %s" what)
    [
      ("Completed", ( = ) Machine.Completed);
      ("Deadlock", function Machine.Deadlock _ -> true | _ -> false);
      ("Cycle_limit", ( = ) Machine.Cycle_limit);
    ]

(* ---------- tracing ---------- *)

(* The load is forwarded from the store buffer: it is observed, so it is
   traced like any other load. *)
let test_trace_collects_spans () =
  let tr = Armb_cpu.Trace.create () in
  let m = Machine.create ~observer:(Armb_cpu.Trace.observer tr) cfg in
  let a = Machine.alloc_line m in
  Machine.spawn m ~core:0 (fun c ->
      Core.compute c 20;
      Core.store c a 1L;
      ignore (Core.await c (Core.load c a));
      Core.barrier c (Barrier.Dmb Full));
  Machine.run_exn m;
  let spans = Armb_cpu.Trace.spans tr in
  let kinds = List.sort_uniq compare (List.map (fun s -> s.Armb_cpu.Trace.kind) spans) in
  check Alcotest.bool "compute traced" true (List.mem "compute" kinds);
  check Alcotest.bool "store traced" true (List.mem "store" kinds);
  check Alcotest.bool "load traced" true (List.mem "load" kinds);
  check Alcotest.bool "barrier traced" true (List.mem "barrier" kinds);
  List.iter
    (fun (s : Armb_cpu.Trace.span) ->
      if s.start_cycle < 0 || s.duration < 0 then Alcotest.fail "negative span")
    spans

(* ALU work is observed but takes no program-order slot: accesses and
   fences keep seqs 0..n-1 whatever compute runs between them. *)
let test_compute_takes_no_slot () =
  let module O = Armb_cpu.Observe in
  let events = ref [] in
  let tr = Armb_cpu.Trace.create () in
  let observer e =
    events := e :: !events;
    Armb_cpu.Trace.observer tr e
  in
  let m = Machine.create ~observer cfg in
  let a = Machine.alloc_line m and b = Machine.alloc_line m in
  let window = ref (0, 0) in
  Machine.spawn m ~core:0 (fun c ->
      Core.compute c 5;
      Core.store c a 1L;
      Core.compute c 0;
      Core.barrier c (Barrier.Dmb Full);
      let before = Core.cursor c in
      Core.compute c 40;
      window := (before, Core.cursor c);
      ignore (Core.await c (Core.load c b));
      Core.barrier c (Barrier.Dmb St);
      Core.compute c 3);
  Machine.run_exn m;
  let events = List.rev !events in
  let seqs =
    List.filter_map
      (fun (e : O.event) -> match e.kind with O.Compute _ -> None | _ -> Some e.seq)
      events
  in
  check Alcotest.(list int) "accesses and fences numbered in order" [ 0; 1; 2; 3 ] seqs;
  let computes =
    List.filter_map
      (fun (e : O.event) ->
        match e.kind with O.Compute n -> Some (e.seq, n, e.addr) | _ -> None)
      events
  in
  check
    Alcotest.(list (triple int int int))
    "compute events: seq -1, their op count, no address"
    [ (-1, 5, -1); (-1, 40, -1); (-1, 3, -1) ]
    computes;
  (match List.find_opt (fun (e : O.event) -> e.kind = O.Compute 40) events with
  | Some e -> check Alcotest.(pair int int) "compute window" !window (e.issued_at, e.completes_at)
  | None -> Alcotest.fail "compute 40 not observed");
  let compute_spans =
    List.filter (fun (s : Armb_cpu.Trace.span) -> s.kind = "compute") (Armb_cpu.Trace.spans tr)
  in
  check
    Alcotest.(list string)
    "one compute span per call with n > 0" [ "5 ops"; "40 ops"; "3 ops" ]
    (List.map (fun (s : Armb_cpu.Trace.span) -> s.name) compute_spans)

(* The trace parses back, and the escaped span name comes back exactly. *)
let test_trace_json_wellformed () =
  let tr = Armb_cpu.Trace.create () in
  Armb_cpu.Trace.emit tr
    { Armb_cpu.Trace.core = 1; kind = "load"; name = "ld \"quoted\"\n"; start_cycle = 5; duration = 7 };
  let doc = Buffer.create 256 in
  Armb_cpu.Trace.write_chrome_json (Buffer.add_string doc) tr;
  match Json.of_string (Buffer.contents doc) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    check Alcotest.(option string) "time unit" (Some "ns") (Json.mem_str "displayTimeUnit" j);
    match Option.bind (Json.member "traceEvents" j) Json.list with
    | Some [ ev ] ->
      check Alcotest.(option string) "name" (Some "ld \"quoted\"\n") (Json.mem_str "name" ev);
      check Alcotest.(option string) "cat" (Some "load") (Json.mem_str "cat" ev);
      check Alcotest.(option int) "tid" (Some 1) (Json.mem_int "tid" ev);
      check Alcotest.(option int) "ts" (Some 5) (Json.mem_int "ts" ev);
      check Alcotest.(option int) "dur" (Some 7) (Json.mem_int "dur" ev)
    | _ -> Alcotest.fail "expected one trace event")

let test_trace_limit_drops () =
  let tr = Armb_cpu.Trace.create ~limit:3 () in
  for i = 1 to 10 do
    Armb_cpu.Trace.emit tr
      { Armb_cpu.Trace.core = 0; kind = "x"; name = "y"; start_cycle = i; duration = 1 }
  done;
  check Alcotest.int "kept" 3 (List.length (Armb_cpu.Trace.spans tr));
  check Alcotest.int "dropped" 7 (Armb_cpu.Trace.dropped tr)

let () =
  Alcotest.run "armb_cpu"
    [
      ( "compute",
        [
          Alcotest.test_case "ipc" `Quick test_compute_ipc;
          Alcotest.test_case "rounding" `Quick test_compute_rounding;
          Alcotest.test_case "zero" `Quick test_compute_zero;
          Alcotest.test_case "negative rejected" `Quick test_compute_negative;
        ] );
      ( "memory-ops",
        [
          Alcotest.test_case "store-load roundtrip" `Quick test_store_load_roundtrip;
          Alcotest.test_case "forwarding fast" `Quick test_store_forwarding_is_fast;
          Alcotest.test_case "cold load = dram" `Quick test_load_miss_costs_dram;
          Alcotest.test_case "independent loads overlap" `Quick test_unawaited_loads_overlap;
          Alcotest.test_case "dependent loads serialize" `Quick test_awaited_loads_serialize;
          Alcotest.test_case "token value" `Quick test_value_of_completed_token;
          Alcotest.test_case "store-buffer backpressure" `Quick test_sb_capacity_stalls;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "DSB blocks everything" `Quick test_dsb_blocks_everything;
          Alcotest.test_case "idle DMB cheap" `Quick test_dmb_cheap_without_memory;
          Alcotest.test_case "ISB flush cost" `Quick test_isb_flushes;
          Alcotest.test_case "DMB st orders stores" `Quick test_dmb_st_orders_stores;
          Alcotest.test_case "stale read without barriers" `Quick
            test_no_barrier_allows_stale_read;
          Alcotest.test_case "DMB full backpressures ALU" `Quick
            test_dmb_full_backpressures_alu;
          Alcotest.test_case "STLR release ordering" `Quick test_stlr_waits_for_prior;
          Alcotest.test_case "LDAR acquire gating" `Quick test_ldar_gates_later_accesses;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "fetch_add atomic" `Quick test_fetch_add_atomic;
          Alcotest.test_case "fetch_add returns old" `Quick test_fetch_add_returns_old;
          Alcotest.test_case "cas semantics" `Quick test_cas_success_and_failure;
          Alcotest.test_case "cas exclusivity" `Quick test_cas_exclusive;
        ] );
      ( "spinning",
        [
          Alcotest.test_case "spin wakes on store" `Quick test_spin_wakes_on_store;
          Alcotest.test_case "spin_poll two words" `Quick test_spin_poll_two_words;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        ] );
      ( "machine",
        [
          Alcotest.test_case "line allocation" `Quick test_alloc_alignment;
          Alcotest.test_case "spawn validation" `Quick test_spawn_validation;
          Alcotest.test_case "128-core machine" `Quick test_wide_machine_run;
          Alcotest.test_case "throughput conversion" `Quick test_throughput_freq;
          Alcotest.test_case "op counters" `Quick test_counters_track_ops;
          Alcotest.test_case "quantum interleaving" `Quick test_quantum_interleaving;
          QCheck_alcotest.to_alcotest prop_reset_is_fresh;
          Alcotest.test_case "reset inputs cover stops" `Quick test_reset_inputs_cover_stops;
        ] );
      ( "trace",
        [
          Alcotest.test_case "collects spans" `Quick test_trace_collects_spans;
          Alcotest.test_case "compute takes no slot" `Quick test_compute_takes_no_slot;
          Alcotest.test_case "json escaping" `Quick test_trace_json_wellformed;
          Alcotest.test_case "limit drops" `Quick test_trace_limit_drops;
        ] );
    ]
