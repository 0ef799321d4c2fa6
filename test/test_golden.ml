(* Differential determinism gate for the simulation kernel.

   Canonical renderings of representative workloads — figure slices,
   litmus histograms, sanitizer verdicts, SPSC ring timings and a fuzz
   round — are digested and compared against goldens captured from the
   seed kernel.  Any kernel change that alters simulation results,
   event ordering or RNG consumption trips this gate: performance work
   on the event queue, memory system or CPU model must be bit-identical.

   To regenerate after an *intentional* semantic change, run the test
   binary with ARMB_GOLDEN_PRINT=<file>: it appends "name digest" lines
   there instead of asserting.  Paste the new digests below and explain
   the semantic change in the commit message. *)

module AM = Armb_core.Abstracted_model
module Barrier = Armb_cpu.Barrier
module Catalogue = Armb_litmus.Catalogue
module Codec = Armb_service.Codec
module Engine = Armb_service.Engine
module Fuzz = Armb_litmus.Fuzz
module Gen = Armb_soak.Gen
module Job = Armb_service.Job
module Lang = Armb_litmus.Lang
module Ordering = Armb_core.Ordering
module Fix = Armb_synth.Fix
module P = Armb_platform.Platform
module Sim = Armb_litmus.Sim_runner
module Spsc = Armb_sync.Spsc_ring

let kunpeng = P.kunpeng916
let cross = Armb_mem.Topology.num_cores kunpeng.Armb_cpu.Config.topo / 2

(* ---------- canonical texts ---------- *)

let mem_ops_name = function
  | AM.No_mem -> "no-mem"
  | AM.Store_store -> "st-st"
  | AM.Load_store -> "ld-st"
  | AM.Load_load -> "ld-ld"

(* Exact cycle counts of an abstracted-model sweep slice: covers loads,
   stores, barriers, LDAR/STLR, dependencies and both NUMA placements. *)
let fig3_text () =
  let b = Buffer.create 1024 in
  let emit mem_ops (aname, approach, location) cores nops =
    let spec =
      { (AM.default_spec kunpeng) with cores; mem_ops; approach; location; nops; iters = 300 }
    in
    if AM.valid spec then
      Buffer.add_string b
        (Printf.sprintf "%s %s (%d,%d) nops=%d cycles=%d\n" (mem_ops_name mem_ops) aname
           (fst cores) (snd cores) nops (fst (AM.run_stats spec)))
  in
  let store_approaches =
    [
      ("none", Ordering.No_barrier, AM.Loc1);
      ("dmb-full-1", Ordering.Bar (Barrier.Dmb Full), AM.Loc1);
      ("dmb-full-2", Ordering.Bar (Barrier.Dmb Full), AM.Loc2);
      ("dmb-st-1", Ordering.Bar (Barrier.Dmb St), AM.Loc1);
      ("dsb-full-1", Ordering.Bar (Barrier.Dsb Full), AM.Loc1);
      ("stlr", Ordering.Stlr_release, AM.Loc1);
    ]
  in
  let load_approaches =
    [
      ("dmb-ld-1", Ordering.Bar (Barrier.Dmb Ld), AM.Loc1);
      ("ldar", Ordering.Ldar_acquire, AM.Loc1);
      ("data-dep", Ordering.Data_dep, AM.Loc1);
      ("addr-dep", Ordering.Addr_dep, AM.Loc1);
      ("ctrl-isb", Ordering.Ctrl_isb, AM.Loc1);
    ]
  in
  List.iter
    (fun cores ->
      List.iter
        (fun nops ->
          List.iter (fun a -> emit AM.Store_store a cores nops) store_approaches;
          List.iter (fun a -> emit AM.Load_store a cores nops) load_approaches;
          emit AM.No_mem ("dmb-full-1", Ordering.Bar (Barrier.Dmb Full), AM.Loc1) cores nops;
          emit AM.Load_load ("ldar", Ordering.Ldar_acquire, AM.Loc1) cores nops)
        [ 100; 500 ])
    [ (0, 4); (0, cross) ];
  Buffer.contents b

(* Cycles and events of every valid abstracted model at 200 iterations:
   each memory-op kind under each named approach at both locations, at
   0, 7 and 100 NOPs, on a same-cluster and a half-machine core pair
   (cross-node on kunpeng916, cross-cluster on kirin960). *)
let model_approaches_text () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (cfg : Armb_cpu.Config.t) ->
      let half = Armb_mem.Topology.num_cores cfg.topo / 2 in
      List.iter
        (fun cores ->
          List.iter
            (fun mem_ops ->
              List.iter
                (fun (aname, approach) ->
                  List.iter
                    (fun (lname, location) ->
                      List.iter
                        (fun nops ->
                          let spec =
                            {
                              (AM.default_spec cfg) with
                              cores;
                              mem_ops;
                              approach;
                              location;
                              nops;
                              iters = 200;
                            }
                          in
                          if AM.valid spec then begin
                            let cycles, events = AM.run_stats spec in
                            Printf.bprintf b "%s %s %s-%s (%d,%d) nops=%d cycles=%d events=%d\n"
                              cfg.name (mem_ops_name mem_ops) aname lname (fst cores)
                              (snd cores) nops cycles events
                          end)
                        [ 0; 7; 100 ])
                    [ ("1", AM.Loc1); ("2", AM.Loc2) ])
                Ordering.named)
            [ AM.No_mem; AM.Store_store; AM.Load_store; AM.Load_load ])
        [ (0, 1); (0, half) ])
    [ P.kunpeng916; P.kirin960 ];
  Buffer.contents b

(* Outcome histograms of the whole litmus catalogue at a fixed seed. *)
let litmus_text () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (t : Lang.test) ->
      let r = Sim.run ~trials:40 ~seed:42 t in
      Buffer.add_string b
        (Printf.sprintf "%s witnessed=%b\n" t.name r.Sim.interesting_witnessed);
      List.iter
        (fun (o, n) -> Buffer.add_string b (Printf.sprintf "  %d %s\n" n o))
        r.Sim.outcomes)
    Catalogue.all;
  Buffer.contents b

(* Sanitizer verdicts over the catalogue (base + order-stripped). *)
let sanitizer_text () =
  let rows, ok = Sim.cross_check ~trials:12 ~seed:5 () in
  let b = Buffer.create 512 in
  List.iter
    (fun r -> Buffer.add_string b (Format.asprintf "%a\n" Sim.pp_check_row r))
    rows;
  Buffer.add_string b (Printf.sprintf "ok=%b\n" ok);
  Buffer.contents b

(* The full text of every sanitizer finding — pair, chain, witness,
   fix and recent-ops context — over the catalogue on every platform,
   the unrolled CFG slices and a fixed fuzz corpus: each run is one
   "<test> <platform> <findings>" line, then each finding printed. *)
let findings_text () =
  let b = Buffer.create 65536 in
  let emit (cfg : Armb_cpu.Config.t) (t : Lang.test) =
    let r = Sim.run ~cfg ~trials:12 ~seed:5 ~check:true t in
    Buffer.add_string b
      (Printf.sprintf "%s %s %d\n" t.name cfg.name (List.length r.Sim.findings));
    List.iter
      (fun f -> Buffer.add_string b (Format.asprintf "%a\n" Armb_check.Sanitizer.pp_finding f))
      r.Sim.findings
  in
  List.iter (fun cfg -> List.iter (emit cfg) Catalogue.all) P.all;
  List.iter (emit kunpeng) (Catalogue.cfg_slices ~unroll:2 ());
  let rng = Armb_sim.Rng.create 2026 in
  for _ = 1 to 50 do
    emit kunpeng (Fuzz.generate ~with_isb:true rng)
  done;
  Buffer.contents b

(* SPSC ring: exact makespans and traffic counters per combination. *)
let ring_text () =
  let b = Buffer.create 512 in
  List.iter
    (fun combo ->
      let spec =
        { (Spsc.default_spec kunpeng ~cores:(0, cross)) with
          messages = 500;
          barriers = Spsc.combo combo;
        }
      in
      let r = Spsc.verified_run spec in
      Buffer.add_string b
        (Format.asprintf "%s cycles=%d %a\n" combo r.Spsc.cycles
           Armb_mem.Memsys.pp_counters r.Spsc.lines_touched))
    [ "DMB full - DMB full"; "DMB ld - DMB st"; "LDAR - DMB st"; "DMB ld - No Barrier" ];
  Buffer.contents b

(* A differential fuzz round: RNG consumption, generated programs and
   simulated outcomes all feed the digest. *)
let fuzz_text () =
  let r = Fuzz.run ~tests:10 ~trials_per_test:25 ~seed:7 () in
  Format.asprintf "%a@." Fuzz.pp_report r

(* The content address of every request of a fixed soak stream: all
   eight job kinds, catalogue and inline tests (declarative predicates
   included), so the canonical renaming, the WMM predicate fingerprint
   and the non-test key coordinates all feed the digest.  This is the
   ["key"] every service result row carries; 1,000 requests reach all
   54 pool jobs. *)
let job_keys_text () =
  let b = Buffer.create 16384 in
  List.iter
    (fun (j : Gen.job) ->
      match Codec.request_of_line j.Gen.line with
      | Ok req ->
        Buffer.add_string b (Printf.sprintf "%s %s\n" j.Gen.id (Job.key req.Engine.job))
      | Error e -> Buffer.add_string b (Printf.sprintf "%s error %s\n" j.Gen.id e))
    (Gen.stream ~pool:54 ~requests:1000 ~seed:1 ());
  Buffer.contents b

(* The result of every distinct job of a fixed soak stream: all 54 pool
   jobs and all eight kinds, so fix costs on four platforms, faulted
   litmus runs, perturb sweeps and check rows — every number the
   simulator feeds the service — enter the digest.  Each job is named
   by the first stream id that carries it, not by its key, so a change
   to the key layout that keeps every job apart leaves this digest
   alone; [job-keys] pins the keys. *)
let job_results_text () =
  let b = Buffer.create 65536 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (j : Gen.job) ->
      match Codec.request_of_line j.Gen.line with
      | Error e -> Buffer.add_string b (Printf.sprintf "%s error %s\n" j.Gen.id e)
      | Ok req ->
        let key = Job.key req.Engine.job in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          let r = Job.run req.Engine.job in
          Buffer.add_string b
            (Printf.sprintf "%s %d %d\n%s" j.Gen.id r.Job.events r.Job.cycles r.Job.text)
        end)
    (Gen.stream ~pool:54 ~requests:1000 ~seed:1 ());
  Buffer.contents b

(* Every strip-and-resynthesize round trip of the catalogue at the
   default search limits (3 edits, 4,000 oracle calls) and a 40-test
   fuzz-repair soak: the repairs found, their oracle-call counts and
   their simulated costs all feed the digest.  [job-results] reaches
   only the service's 2-edit searches. *)
let fix_catalogue_text () =
  let b = Buffer.create 65536 in
  List.iter
    (fun rt ->
      Buffer.add_string b (Format.asprintf "%a@." Armb_synth.Report.pp_round_trip rt))
    (Fix.catalogue_round_trips ());
  Buffer.add_string b
    (Format.asprintf "%a@." Armb_synth.Soak.pp_report (Armb_synth.Soak.run ~tests:40 ()));
  Buffer.contents b

(* The Chrome trace of one trial at seed 42 of every catalogue test on
   every platform: the bytes [armb trace --test T -p P] writes. *)
let trace_catalogue_text () =
  let b = Buffer.create 262144 in
  List.iter
    (fun (cfg : Armb_cpu.Config.t) ->
      List.iter
        (fun (t : Lang.test) ->
          let tr = Armb_cpu.Trace.create () in
          ignore (Sim.run ~cfg ~trials:1 ~seed:42 ~observer:(Armb_cpu.Trace.observer tr) t);
          Buffer.add_string b (Printf.sprintf "%s %s\n" t.name cfg.name);
          Armb_cpu.Trace.write_chrome_json (Buffer.add_string b) tr;
          Buffer.add_char b '\n')
        Catalogue.all)
    P.all;
  Buffer.contents b

(* The synchronization kernels no other golden reaches: exact makespans,
   plus events and traffic counters where a result exposes them, for
   small runs of every in-place lock, both Pilot rings, the Figure 8
   data structures under an in-place and a delegated lock, the three
   barrier shapes at 64 and 256 cores, the floorplan search, and an
   SPSC ring under a fault plan whose backoff reaches its cap. *)
let sync_kernels_text () =
  let module S = Armb_sync in
  let b = Buffer.create 4096 in
  let counters c = Format.asprintf "%a" Armb_mem.Memsys.pp_counters c in
  let cores = List.init 8 (fun i -> if i < 4 then i else cross + i) in
  let counter lock =
    S.Ds_bench.run_counter
      {
        (S.Ds_bench.default_spec kunpeng ~lock) with
        workers = List.length cores;
        cores;
        ops_per_worker = 20;
        interval_nops = 300;
      }
  in
  let r = counter S.Ds_bench.Ticket in
  Printf.bprintf b "ticket cycles=%d\n" r.S.Ds_bench.cycles;
  List.iter
    (fun lock ->
      let r = counter lock in
      Printf.bprintf b "lock %s cycles=%d cross_node_per_cs=%h\n"
        (S.Ds_bench.lock_name lock) r.S.Ds_bench.cycles r.S.Ds_bench.cross_node_per_cs)
    S.Ds_bench.in_place_locks;
  let pilot =
    { (Spsc.default_spec kunpeng ~cores:(0, cross)) with messages = 300; barriers = Spsc.Pilot }
  in
  List.iter
    (fun (name, (r : Spsc.result)) ->
      Printf.bprintf b "%s cycles=%d fallbacks=%d %s\n" name r.cycles r.fallbacks
        (counters r.lines_touched))
    [
      ("pilot-ring", Spsc.verified_run pilot);
      ("pilot-ring words=3", Spsc.run_batched ~words:3 pilot);
    ];
  List.iter
    (fun lock ->
      let spec = { (S.Ds_bench.default_spec kunpeng ~lock) with workers = 4; ops_per_worker = 16 } in
      List.iter
        (fun (name, run) ->
          let r = run spec in
          Printf.bprintf b "ds %s %s cycles=%d ops=%d\n" name (S.Ds_bench.lock_name lock)
            r.S.Ds_bench.cycles r.S.Ds_bench.ops)
        [
          ("queue", S.Ds_bench.run_queue);
          ("stack", S.Ds_bench.run_stack);
          ("sorted-list", S.Ds_bench.run_sorted_list ~preload:16);
          ("hash-table", S.Ds_bench.run_hash_table ~buckets:4 ~preload:16);
        ])
    [ S.Ds_bench.Ticket; S.Ds_bench.Ffwd_pilot ];
  List.iter
    (fun n ->
      let cfg = P.manycore ~cores:n in
      List.iter
        (fun kind ->
          let r =
            S.Sync_barrier.run
              { cfg; kind; cores = List.init n Fun.id; episodes = 2; work = 64 }
          in
          Printf.bprintf b "barrier %s cores=%d cycles=%d events=%d %s\n"
            (S.Sync_barrier.kind_name kind) n r.S.Sync_barrier.cycles r.S.Sync_barrier.events
            (counters r.S.Sync_barrier.counters))
        [ S.Sync_barrier.Central; S.Sync_barrier.Tree 4; S.Sync_barrier.Dissemination ])
    [ 64; 256 ];
  List.iter
    (fun pilot ->
      let module F = Armb_workloads.Floorplan in
      let r = F.run { (F.default_spec kunpeng ~input:F.Input5) with workers = 4; pilot } in
      Printf.bprintf b "floorplan pilot=%b cycles=%d area=%d nodes=%d updates=%d\n" pilot
        r.F.cycles r.F.best_area r.F.nodes_explored r.F.lock_updates)
    [ false; true ];
  let fault =
    {
      (Armb_fault.Plan.of_intensity ~seed:11 1.0) with
      barrier_backoff = { base = 8; multiplier = 4; cap = 48 };
    }
  in
  let r =
    Spsc.verified_run
      { (Spsc.default_spec kunpeng ~cores:(0, cross)) with messages = 300; fault = Some fault }
  in
  Printf.bprintf b "faulted spsc-ring cycles=%d %s\n" r.Spsc.cycles (counters r.Spsc.lines_touched);
  Buffer.contents b

(* Cycles and operation counts of the simulated-lock benchmarks, small
   runs at the figures' settings: the ticket lock under each Figure
   7(a) release barrier and critical-section size, the FFWD server
   under each Figure 7(b) barrier pair and Pilot, DSM-Synch with and
   without Pilot, the Figure 8 structures under the delegation locks,
   and the in-place lock family on one node. *)
let lock_harnesses_text () =
  let module S = Armb_sync in
  let b = Buffer.create 4096 in
  let cores = List.init 6 (fun i -> if i < 3 then i else cross + i) in
  let rounds = 10 in
  let counter lock ~cores =
    {
      (S.Ds_bench.default_spec kunpeng ~lock) with
      workers = List.length cores;
      cores;
      ops_per_worker = rounds;
      interval_nops = 300;
    }
  in
  List.iter
    (fun (name, release_barrier) ->
      List.iter
        (fun cs_lines ->
          let r =
            S.Ds_bench.run_counter
              { (counter S.Ds_bench.Ticket ~cores) with cs_lines; release_barrier }
          in
          Printf.bprintf b "ticket %s cs_lines=%d cycles=%d ops=%d\n" name cs_lines
            r.S.Ds_bench.cycles r.S.Ds_bench.ops)
        [ 0; 1; 2 ])
    [
      ("DMB full", Ordering.Bar (Barrier.Dmb Full));
      ("DMB st", Ordering.Bar (Barrier.Dmb St));
      ("STLR", Ordering.Stlr_release);
      ("DSB full", Ordering.Bar (Barrier.Dsb Full));
      ("none", Ordering.No_barrier);
    ];
  let ffwd lock = { (counter lock ~cores:(List.tl cores)) with cores; interval_nops = 100 } in
  List.iter
    (fun (name, read_req, publish_resp, lock) ->
      let r =
        S.Ds_bench.run_counter
          { (ffwd lock) with ffwd_barriers = { S.Ffwd.read_req; publish_resp } }
      in
      Printf.bprintf b "ffwd %s cycles=%d ops=%d\n" name r.S.Ds_bench.cycles r.S.Ds_bench.ops)
    S.Ds_bench.
      [
        ("DMB full-DMB st", Ordering.Bar (Barrier.Dmb Full), Ordering.Bar (Barrier.Dmb St), Ffwd_lock);
        ("DMB ld-DMB st", Ordering.Bar (Barrier.Dmb Ld), Ordering.Bar (Barrier.Dmb St), Ffwd_lock);
        ("LDAR-DMB st", Ordering.Ldar_acquire, Ordering.Bar (Barrier.Dmb St), Ffwd_lock);
        ("CTRL+ISB-DMB st", Ordering.Ctrl_isb, Ordering.Bar (Barrier.Dmb St), Ffwd_lock);
        ("ADDR-DMB st", Ordering.Addr_dep, Ordering.Bar (Barrier.Dmb St), Ffwd_lock);
        ("LDAR-No Barrier", Ordering.Ldar_acquire, Ordering.No_barrier, Ffwd_lock);
        ("Ideal", Ordering.No_barrier, Ordering.No_barrier, Ffwd_lock);
        ("Pilot", Ordering.Ldar_acquire, Ordering.Bar (Barrier.Dmb St), Ffwd_pilot);
      ];
  List.iter
    (fun lock ->
      let r = S.Ds_bench.run_counter (counter lock ~cores) in
      Printf.bprintf b "dsmsynch pilot=%b cycles=%d ops=%d\n"
        (lock = S.Ds_bench.Dsynch_pilot) r.S.Ds_bench.cycles r.S.Ds_bench.ops)
    [ S.Ds_bench.Dsynch; S.Ds_bench.Dsynch_pilot ];
  List.iter
    (fun lock ->
      let spec = { (S.Ds_bench.default_spec kunpeng ~lock) with workers = 4; ops_per_worker = 16 } in
      List.iter
        (fun (name, run) ->
          let r = run spec in
          Printf.bprintf b "ds %s %s cycles=%d ops=%d\n" name (S.Ds_bench.lock_name lock)
            r.S.Ds_bench.cycles r.S.Ds_bench.ops)
        [
          ("queue", S.Ds_bench.run_queue);
          ("stack", S.Ds_bench.run_stack);
          ("sorted-list", S.Ds_bench.run_sorted_list ~preload:16);
          ("hash-table", S.Ds_bench.run_hash_table ~buckets:4 ~preload:16);
        ])
    [ S.Ds_bench.Dsynch; S.Ds_bench.Dsynch_pilot; S.Ds_bench.Ffwd_lock ];
  let same_node = List.init 6 Fun.id in
  List.iter
    (fun lock ->
      let r = S.Ds_bench.run_counter (counter lock ~cores:same_node) in
      Printf.bprintf b "lock %s same-node cycles=%d ops=%d cross_node_per_cs=%h\n"
        (S.Ds_bench.lock_name lock) r.S.Ds_bench.cycles r.S.Ds_bench.ops
        r.S.Ds_bench.cross_node_per_cs)
    S.Ds_bench.in_place_locks;
  Buffer.contents b

(* Cycles and counts of the primitives no other golden reaches: the
   dedup pipeline over each of its three channels, and the simulated
   seqlock with and without its barriers, each with and without half
   the payload warmed into the first reader's cache. *)
let primitive_kernels_text () =
  let module S = Armb_sync in
  let module D = Armb_workloads.Dedup in
  let b = Buffer.create 1024 in
  List.iter
    (fun queue ->
      let r = D.run { (D.default_spec kunpeng ~queue ~workload:D.Small) with slots = 8 } in
      Printf.bprintf b "dedup %s cycles=%d chunks=%d\n" (D.queue_name queue) r.D.cycles
        r.D.chunks)
    D.all_queues;
  let readers = [ 28; 29; 30 ] and writes = 200 in
  List.iter
    (fun (protected, skew) ->
      let m = Armb_cpu.Machine.create kunpeng in
      let sl = S.Seqlock.create m ~words:4 in
      if skew then
        List.iter
          (fun w ->
            Armb_mem.Memsys.place (Armb_cpu.Machine.mem m) ~core:(List.hd readers)
              ~addr:(S.Seqlock.data_addr sl w))
          [ 0; 1 ];
      let torn = ref 0 and good = ref 0 in
      Armb_cpu.Machine.spawn m ~core:0 (fun c ->
          for version = 1 to writes do
            S.Seqlock.write ~protected sl c (S.Seqlock.make_payload sl ~version);
            Armb_cpu.Core.compute c (40 + (version mod 7 * 9))
          done);
      List.iteri
        (fun i core ->
          Armb_cpu.Machine.spawn m ~core (fun c ->
              Armb_cpu.Core.pause c (17 * (i + 1));
              for k = 1 to writes / 2 do
                let snap = S.Seqlock.read ~protected sl c in
                if S.Seqlock.torn sl snap then incr torn else incr good;
                Armb_cpu.Core.compute c (25 + (k mod 5 * 11))
              done))
        readers;
      Armb_cpu.Machine.run_exn m;
      Printf.bprintf b "seqlock protected=%b skew=%b cycles=%d retries=%d torn=%d good=%d\n"
        protected skew (Armb_cpu.Machine.elapsed m) (S.Seqlock.retries sl) !torn !good)
    [ (true, false); (true, true); (false, false); (false, true) ];
  Buffer.contents b

(* Exact makespans, fallbacks and traffic counters of the ring runs no
   other golden reaches: every Figure 6(a) combination, then again under
   their bare names the three combinations [spsc-ring] leaves out (the
   STLR publish among them), the Pilot ring at 2, 4 and 8 words and
   under a fault plan, and the Figure 6(c) baseline at 1, 2, 4 and 8
   words. *)
let ring_harnesses_text () =
  let b = Buffer.create 4096 in
  let counters c = Format.asprintf "%a" Armb_mem.Memsys.pp_counters c in
  let spec = { (Spsc.default_spec kunpeng ~cores:(0, cross)) with messages = 300 } in
  let fenced name (r : Spsc.result) =
    Printf.bprintf b "%s cycles=%d %s\n" name r.cycles (counters r.lines_touched)
  in
  List.iter
    (fun combo ->
      fenced ("verified " ^ combo) (Spsc.verified_run { spec with barriers = Spsc.combo combo }))
    Spsc.combo_names;
  List.iter
    (fun combo -> fenced combo (Spsc.verified_run { spec with barriers = Spsc.combo combo }))
    [ "DMB full - DMB st"; "DMB full - STLR"; "Ideal" ];
  let pilot = { spec with barriers = Spsc.Pilot } in
  let batched name (r : Spsc.result) =
    Printf.bprintf b "%s cycles=%d fallbacks=%d %s\n" name r.cycles r.fallbacks
      (counters r.lines_touched)
  in
  List.iter
    (fun words ->
      batched (Printf.sprintf "pilot words=%d" words) (Spsc.run_batched ~words pilot))
    [ 2; 4; 8 ];
  batched "faulted pilot"
    (Spsc.verified_run { pilot with fault = Some (Armb_fault.Plan.of_intensity ~seed:13 0.5) });
  List.iter
    (fun words ->
      batched (Printf.sprintf "baseline words=%d" words) (Spsc.run_batched ~words spec))
    [ 1; 2; 4; 8 ];
  Buffer.contents b

(* ---------- goldens (captured from the seed kernel) ---------- *)

let expected =
  [
    ("fig3-slice", "f184f26dd571876913e3eb2d736ea7ca");
    ("litmus-catalogue", "0328c3ae1b1e9ad15ce1cb2da7aab167");
    ("sanitizer-verdicts", "1dccbc877ec11eea149d36edd7e22189");
    (* captured before the sanitizer's sets and finding text went lazy *)
    ("sanitizer-findings", "c27d3725bd6f8ce9912db5b4eb6dc5d9");
    ("spsc-ring", "98d7af687535a82f397ce19c55218635");
    ("fuzz-round", "929108fb4b9ca4066ad8de43298a4211");
    (* recaptured when each job kind kept only the run settings it reads *)
    ("job-keys", "314aa114e0d8ad751da342ea5330a619");
    (* recaptured when each job was named by its first stream id *)
    ("job-results", "a81c390eefc1aca5e023326794cd278a");
    (* captured before the repair search replayed counterexamples *)
    ("fix-catalogue", "372620c57b304a50f3f6c20f26e9ee73");
    (* captured before Trace became a consumer of the Observe stream *)
    ("trace-catalogue", "e84a4dd3a8f9bf8ae8e786b4c0f56108");
    (* captured before the kernel libraries moved to Int.max/Int.min *)
    ("sync-kernels", "16eacfc1e570cda62165625e0def87ea");
    (* captured before the lock harnesses merged into Ds_bench *)
    ("lock-harnesses", "4baca71b47117fcad0ae02c9eabf8adf");
    (* captured before the Pilot channels and protocol skeletons were
       rewritten per substrate *)
    ("primitive-kernels", "c71fc46ea9a71fc585a723e14d4fe1e1");
    (* captured before the Pilot ring and the Figure 6(c) baseline
       merged into Spsc_ring *)
    ("ring-harnesses", "c2548ade776e0496cb0c19d2a21d3919");
    (* captured before Algorithm 1's loop body was written once *)
    ("model-approaches", "9ec861eb2d38e5f0853e355fe9bf1758");
  ]

let texts =
  [
    ("fig3-slice", fig3_text);
    ("litmus-catalogue", litmus_text);
    ("sanitizer-verdicts", sanitizer_text);
    ("sanitizer-findings", findings_text);
    ("spsc-ring", ring_text);
    ("fuzz-round", fuzz_text);
    ("job-keys", job_keys_text);
    ("job-results", job_results_text);
    ("fix-catalogue", fix_catalogue_text);
    ("trace-catalogue", trace_catalogue_text);
    ("sync-kernels", sync_kernels_text);
    ("lock-harnesses", lock_harnesses_text);
    ("primitive-kernels", primitive_kernels_text);
    ("ring-harnesses", ring_harnesses_text);
    ("model-approaches", model_approaches_text);
  ]

let golden name () =
  let text = (List.assoc name texts) () in
  let digest = Digest.to_hex (Digest.string text) in
  match Sys.getenv_opt "ARMB_GOLDEN_PRINT" with
  | Some file ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
    Printf.fprintf oc "%s %s\n" name digest;
    close_out oc
  | None ->
    let want = List.assoc name expected in
    if digest <> want then begin
      (* dump the canonical text so the diff is inspectable in the log *)
      Printf.printf "--- canonical %s ---\n%s--- end %s ---\n" name text name;
      Alcotest.failf "golden digest mismatch for %s: expected %s, got %s" name want digest
    end

let () =
  Alcotest.run "armb_golden"
    [
      ( "determinism",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (golden name))
          expected );
    ]
