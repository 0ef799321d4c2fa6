(* Regeneration of every table and figure in the paper's evaluation,
   driven by the simulator.  Each entry prints one or more
   Armb_sim.Series tables; EXPERIMENTS.md records how the shapes
   compare against the published numbers. *)

module Barrier = Armb_cpu.Barrier
module AM = Armb_core.Abstracted_model
module Ch = Armb_core.Characterize
module Ordering = Armb_core.Ordering
module P = Armb_platform.Platform
module S = Armb_sync
module W = Armb_workloads
module Series = Armb_sim.Series

let kunpeng = P.kunpeng916

(* Shared run parameters: the same record the CLI builds from its
   flags, so bench and `armb` agree on placement, seed and trials. *)
let rc = Armb_platform.Run_config.make kunpeng

let cross_pair = rc.Armb_platform.Run_config.cores

let section title =
  Printf.printf "\n================ %s ================\n%!" title

(* ---------- Table 1 ---------- *)

let table1 () =
  section "Table 1: TSO vs WMM on message passing";
  let open Armb_litmus in
  List.iter
    (fun (t : Lang.test) ->
      let wmm = Enumerate.allows Enumerate.Wmm t in
      let tso = Enumerate.allows Enumerate.Tso t in
      let sim = Sim_runner.run ~trials:rc.Armb_platform.Run_config.trials t in
      Printf.printf "%-18s TSO:%-9s WMM:%-9s simulator witnessed: %b\n" t.Lang.name
        (if tso then "Allowed" else "Forbidden")
        (if wmm then "Allowed" else "Forbidden")
        sim.Sim_runner.interesting_witnessed)
    [ Catalogue.mp; Catalogue.mp_dmb; Catalogue.mp_acq_rel ];
  print_newline ()

(* ---------- Table 2 ---------- *)

let table2 () =
  section "Table 2: target platforms (simulator configurations)";
  List.iter (fun cfg -> Format.printf "%a@.@." Armb_cpu.Config.pp cfg) P.all

(* ---------- Figure 2 ---------- *)

let fig2 () =
  section "Figure 2: intrinsic overhead of barriers (no memory ops)";
  Series.print (Ch.fig2 kunpeng ~nop_counts:[ 100; 300; 500; 700 ] ~iters:1500);
  Series.print (Ch.fig2 P.kirin960 ~nop_counts:[ 10; 30; 50 ] ~iters:1500);
  Series.print (Ch.fig2 P.kirin970 ~nop_counts:[ 10; 30; 50 ] ~iters:1500);
  Series.print (Ch.fig2 P.raspberrypi4 ~nop_counts:[ 10; 30; 50 ] ~iters:1500)

(* ---------- Figure 3 ---------- *)

let fig3 () =
  section "Figure 3: store-store abstracted model";
  Series.print
    (Ch.fig3 kunpeng ~cores:(0, 4) ~label:"(a) kunpeng916, same NUMA node"
       ~nop_counts:[ 100; 300; 500; 700 ] ~iters:1500);
  Series.print
    (Ch.fig3 kunpeng ~cores:cross_pair ~label:"(b) kunpeng916, cross NUMA nodes"
       ~nop_counts:[ 100; 300; 500; 700 ] ~iters:1500);
  Series.print
    (Ch.fig3 P.kirin960 ~cores:(0, 1) ~label:"(c) kirin960 big cluster"
       ~nop_counts:[ 10; 30; 60 ] ~iters:1500);
  Series.print
    (Ch.fig3 P.kirin970 ~cores:(0, 1) ~label:"(d) kirin970 big cluster"
       ~nop_counts:[ 10; 30; 60 ] ~iters:1500);
  Series.print
    (Ch.fig3 P.raspberrypi4 ~cores:(0, 1) ~label:"(e) raspberry pi 4"
       ~nop_counts:[ 10; 30; 60 ] ~iters:1500)

(* ---------- Figure 4 ---------- *)

let fig4 () =
  section "Figure 4: tipping point where NOPs hide the barrier";
  List.iter
    (fun (label, cores) ->
      match Ch.tipping_point kunpeng ~cores () with
      | None -> Printf.printf "%s: no tipping point in sweep\n" label
      | Some nops ->
        let spec loc =
          {
            (AM.default_spec kunpeng) with
            cores;
            approach = Ordering.Bar (Barrier.Dmb Full);
            location = loc;
            nops;
            iters = 1500;
          }
        in
        let r1 = AM.run (spec AM.Loc1) /. 1e6 and r2 = AM.run (spec AM.Loc2) /. 1e6 in
        Printf.printf
          "%s: tipping at %d nops; DMB full-1 = %.2f, DMB full-2 = %.2f M loops/s (ratio %.2f, paper predicts 1/2)\n"
          label nops r1 r2 (r1 /. r2))
    [ ("same node ", (0, 4)); ("cross node", cross_pair) ];
  print_newline ()

(* ---------- Figure 5 ---------- *)

let fig5 () =
  section "Figure 5: load-store abstracted model, kunpeng916 cross-node";
  Series.print (Ch.fig5 kunpeng ~cores:cross_pair ~nop_counts:[ 300; 500 ] ~iters:1500)

(* ---------- Table 3 ---------- *)

let table3 () =
  section "Table 3: order-preserving suggestions";
  let open Armb_core.Advisor in
  List.iter
    (fun f ->
      List.iter
        (fun t ->
          let sugg = suggest ~from_:f ~to_:t in
          let names =
            String.concat " > "
              (List.map (fun s -> Ordering.to_string s.approach) sugg)
          in
          Printf.printf "%-6s -> %-7s : %s\n" (from_to_string f) (to_to_string t) names)
        all_to)
    all_from;
  print_newline ()

(* ---------- Figure 6(a) ---------- *)

let placements = P.comm_pairs

let fig6a () =
  section "Figure 6(a): producer-consumer barrier combinations (normalized)";
  let cols = List.map (fun (p : P.placement) -> p.label) placements in
  let rows =
    List.map
      (fun name ->
        ( name,
          List.map
            (fun (p : P.placement) ->
              let cores = match p.cores with [ a; b ] -> (a, b) | _ -> assert false in
              let spec =
                { (S.Spsc_ring.default_spec p.cfg ~cores) with barriers = S.Spsc_ring.combo name }
              in
              (S.Spsc_ring.run spec).S.Spsc_ring.throughput /. 1e6)
            placements ))
      S.Spsc_ring.combo_names
  in
  let t = Series.make ~title:"Fig 6(a): SPSC ring" ~unit_label:"10^6 msgs/s" ~cols rows in
  Series.print t;
  Series.print (Series.normalize_to t ~row:"DMB full - DMB full")

(* ---------- Figure 6(b) ---------- *)

let fig6b () =
  section "Figure 6(b): Pilot vs best / theoretical / ideal";
  let cols = List.map (fun (p : P.placement) -> p.label) placements in
  let run_combo (p : P.placement) name =
    let cores = match p.cores with [ a; b ] -> (a, b) | _ -> assert false in
    let spec = { (S.Spsc_ring.default_spec p.cfg ~cores) with barriers = S.Spsc_ring.combo name } in
    (S.Spsc_ring.run spec).S.Spsc_ring.throughput /. 1e6
  in
  let run_pilot (p : P.placement) =
    let cores = match p.cores with [ a; b ] -> (a, b) | _ -> assert false in
    (S.Pilot_ring.run (S.Pilot_ring.default_spec p.cfg ~cores)).S.Pilot_ring.throughput /. 1e6
  in
  let rows =
    [
      ("DMB ld - DMB st", List.map (fun p -> run_combo p "DMB ld - DMB st") placements);
      ("Theoretical", List.map (fun p -> run_combo p "DMB ld - No Barrier") placements);
      ("Pilot", List.map run_pilot placements);
      ("Ideal", List.map (fun p -> run_combo p "Ideal") placements);
    ]
  in
  Series.print (Series.make ~title:"Fig 6(b): Pilot" ~unit_label:"10^6 msgs/s" ~cols rows)

(* ---------- Figure 6(c) ---------- *)

let fig6c () =
  section "Figure 6(c): Pilot speedup vs batched message size";
  let words_list = [ 1; 2; 4; 8 ] in
  let cols = List.map (fun w -> string_of_int w) words_list in
  let rows =
    List.map
      (fun (p : P.placement) ->
        let cores = match p.cores with [ a; b ] -> (a, b) | _ -> assert false in
        let spec = { (S.Pilot_ring.default_spec p.cfg ~cores) with messages = 2000 } in
        ( p.label,
          List.map
            (fun words ->
              let pi = (S.Pilot_ring.run_batched ~words spec).S.Pilot_ring.throughput in
              let base = (S.Pilot_ring.run_batched_baseline ~words spec).S.Pilot_ring.throughput in
              (pi /. base) -. 1.0)
            words_list ))
      placements
  in
  Series.print
    (Series.make ~title:"Fig 6(c): Pilot speedup over best ring" ~unit_label:"fraction (x-1)"
       ~cols:(List.map (fun c -> c ^ "x8B") cols)
       rows)

(* ---------- Figure 6(d) ---------- *)

let fig6d () =
  section "Figure 6(d): dedup pipeline (normalized compress speed)";
  let cols = List.map W.Dedup.queue_name W.Dedup.all_queues in
  let rows =
    List.map
      (fun wl ->
        let thr q =
          (W.Dedup.run (W.Dedup.default_spec kunpeng ~queue:q ~workload:wl)).W.Dedup.throughput
        in
        let base = thr W.Dedup.Locked_queue in
        (W.Dedup.workload_name wl, List.map (fun q -> thr q /. base) W.Dedup.all_queues))
      W.Dedup.all_workloads
  in
  Series.print (Series.make ~title:"Fig 6(d): dedup" ~unit_label:"normalized to Q" ~cols rows)

(* ---------- Figure 7(a) ---------- *)

let fig7a () =
  section "Figure 7(a): ticket lock, unlock barrier vs CS global lines";
  let variants =
    [
      ("Normal (DMB full)", Ordering.Bar (Barrier.Dmb Full));
      ("DMB st", Ordering.Bar (Barrier.Dmb St));
      ("STLR", Ordering.Stlr_release);
      ("DSB full", Ordering.Bar (Barrier.Dsb Full));
      ("Removed", Ordering.No_barrier);
    ]
  in
  List.iter
    (fun (label, cfg, workers) ->
      let rows =
        List.map
          (fun (name, barrier) ->
            ( name,
              List.map
                (fun cs_lines ->
                  let spec =
                    {
                      (S.Ds_bench.default_spec cfg ~lock:S.Ds_bench.Ticket) with
                      workers;
                      ops_per_worker = 150;
                      interval_nops = 300;
                      release_barrier = barrier;
                      cs_lines;
                    }
                  in
                  (S.Ds_bench.run_counter spec).S.Ds_bench.throughput /. 1e6)
                [ 0; 1; 2 ] ))
          variants
      in
      let t =
        Series.make
          ~title:(Printf.sprintf "Fig 7(a): ticket lock, %s" label)
          ~unit_label:"10^6 cs/s" ~cols:[ "0 lines"; "1 line"; "2 lines" ] rows
      in
      Series.print t;
      Series.print (Series.normalize_to t ~row:"Normal (DMB full)"))
    [
      ("kunpeng916 (32 threads)", kunpeng, 32);
      ("kirin960 (4 threads)", P.kirin960, 4);
      ("raspberrypi4 (4 threads)", P.raspberrypi4, 4);
    ]

(* ---------- Figure 7(b) ---------- *)

let fig7b () =
  section "Figure 7(b): delegation lock barrier combinations (kunpeng916)";
  let base =
    {
      (S.Ds_bench.default_spec kunpeng ~lock:S.Ds_bench.Ffwd_lock) with
      workers = 24;
      ops_per_worker = 120;
      interval_nops = 100;
    }
  in
  let combos =
    [
      ("DMB full-DMB st", Ordering.Bar (Barrier.Dmb Full), Ordering.Bar (Barrier.Dmb St));
      ("DMB ld-DMB st", Ordering.Bar (Barrier.Dmb Ld), Ordering.Bar (Barrier.Dmb St));
      ("LDAR-DMB st", Ordering.Ldar_acquire, Ordering.Bar (Barrier.Dmb St));
      ("CTRL+ISB-DMB st", Ordering.Ctrl_isb, Ordering.Bar (Barrier.Dmb St));
      ("ADDR-DMB st", Ordering.Addr_dep, Ordering.Bar (Barrier.Dmb St));
      ("LDAR-No Barrier", Ordering.Ldar_acquire, Ordering.No_barrier);
      ("Ideal", Ordering.No_barrier, Ordering.No_barrier);
    ]
  in
  let rows =
    List.map
      (fun (name, read_req, publish_resp) ->
        let spec = { base with ffwd_barriers = { S.Ffwd.read_req; publish_resp } } in
        (name, [ (S.Ds_bench.run_counter spec).S.Ds_bench.throughput /. 1e6 ]))
      combos
  in
  let t = Series.make ~title:"Fig 7(b): FFWD-style server" ~unit_label:"10^6 cs/s" ~cols:[ "throughput" ] rows in
  Series.print t;
  Series.print (Series.normalize_to t ~row:"DMB full-DMB st")

(* ---------- Figure 7(c) ---------- *)

let fig7c () =
  section "Figure 7(c): lock throughput vs contention interval";
  let exps = [ 0; 1; 2; 3 ] in
  let cols = List.map (fun n -> Printf.sprintf "10^%d*128" n) exps in
  let rounds_of n = max 10 (240 / (1 + (n * n))) in
  let point lock n =
    let spec =
      {
        (S.Ds_bench.default_spec kunpeng ~lock) with
        workers = 24;
        ops_per_worker = rounds_of n;
        interval_nops = 128 * int_of_float (10.0 ** float_of_int n);
      }
    in
    (S.Ds_bench.run_counter spec).S.Ds_bench.throughput /. 1e6
  in
  let rows =
    List.map (fun lock -> (S.Ds_bench.lock_name lock, List.map (point lock) exps)) S.Ds_bench.paper_locks
  in
  Series.print
    (Series.make ~title:"Fig 7(c): contention sweep (kunpeng916, 24 threads)"
       ~unit_label:"10^6 cs/s" ~cols rows)

(* ---------- Figure 8(a,b,c) ---------- *)

let ds_spec lock = { (S.Ds_bench.default_spec kunpeng ~lock) with workers = 16; ops_per_worker = 100 }

let fig8a () =
  section "Figure 8(a): queue and stack under a global lock";
  let rows =
    List.map
      (fun lk ->
        let q = (S.Ds_bench.run_queue (ds_spec lk)).S.Ds_bench.throughput /. 1e6 in
        let s = (S.Ds_bench.run_stack (ds_spec lk)).S.Ds_bench.throughput /. 1e6 in
        (S.Ds_bench.lock_name lk, [ q; s ]))
      S.Ds_bench.paper_locks
  in
  Series.print
    (Series.make ~title:"Fig 8(a): queue & stack" ~unit_label:"10^6 ops/s"
       ~cols:[ "Queue"; "Stack" ] rows)

let fig8b () =
  section "Figure 8(b): sorted linked list vs preloaded size";
  let preloads = [ 0; 50; 150; 300; 500 ] in
  let rows =
    List.map
      (fun lk ->
        ( S.Ds_bench.lock_name lk,
          List.map
            (fun preload ->
              let spec = { (ds_spec lk) with ops_per_worker = 48 } in
              (S.Ds_bench.run_sorted_list ~preload spec).S.Ds_bench.throughput /. 1e6)
            preloads ))
      S.Ds_bench.paper_locks
  in
  Series.print
    (Series.make ~title:"Fig 8(b): sorted list" ~unit_label:"10^6 ops/s"
       ~cols:(List.map string_of_int preloads) rows)

let fig8c () =
  section "Figure 8(c): hash table vs bucket count (512 preloaded)";
  let buckets = [ 2; 8; 32; 128; 512 ] in
  let rows =
    List.map
      (fun lk ->
        ( S.Ds_bench.lock_name lk,
          List.map
            (fun b ->
              let spec = { (ds_spec lk) with workers = 24; ops_per_worker = 48 } in
              (S.Ds_bench.run_hash_table ~buckets:b ~preload:512 spec).S.Ds_bench.throughput
              /. 1e6)
            buckets ))
      S.Ds_bench.paper_locks
  in
  Series.print
    (Series.make ~title:"Fig 8(c): hash table" ~unit_label:"10^6 ops/s"
       ~cols:(List.map (fun b -> "2^" ^ string_of_int (int_of_float (Float.round (Float.log2 (float_of_int b))))) buckets)
       rows)

(* ---------- Figure 8(d) ---------- *)

let fig8d () =
  section "Figure 8(d): BOTS floorplan execution time";
  let rows =
    List.map
      (fun inp ->
        let d = W.Floorplan.run (W.Floorplan.default_spec kunpeng ~input:inp) in
        let dp = W.Floorplan.run { (W.Floorplan.default_spec kunpeng ~input:inp) with pilot = true } in
        ( W.Floorplan.input_name inp,
          [
            float_of_int d.W.Floorplan.cycles;
            float_of_int dp.W.Floorplan.cycles;
            float_of_int dp.W.Floorplan.cycles /. float_of_int d.W.Floorplan.cycles;
          ] ))
      W.Floorplan.all_inputs
  in
  Series.print
    (Series.make ~title:"Fig 8(d): floorplan" ~unit_label:"cycles (lower is better)"
       ~cols:[ "DSynch"; "DSynch-P"; "normalized" ] rows)

(* ---------- Ablations ---------- *)

let ablations () =
  section "Ablation: store-buffer size (Observation 2's mechanism)";
  let sbs = [ 2; 8; 24; 64 ] in
  let rows =
    [
      ( "DMB st-1 cross-node",
        List.map
          (fun sb_size ->
            let cfg = { kunpeng with Armb_cpu.Config.sb_size } in
            AM.run
              {
                (AM.default_spec cfg) with
                cores = cross_pair;
                approach = Ordering.Bar (Barrier.Dmb St);
                nops = 300;
                iters = 1000;
              }
            /. 1e6)
          sbs );
    ]
  in
  Series.print
    (Series.make ~title:"store-buffer sweep" ~unit_label:"10^6 loops/s"
       ~cols:(List.map string_of_int sbs) rows);

  section "Ablation: in-flight window size (Figure 4's mechanism)";
  let robs = [ 8; 32; 128; 512 ] in
  let rows =
    [
      ( "DMB full-1 cross-node",
        List.map
          (fun rob_size ->
            let cfg = { kunpeng with Armb_cpu.Config.rob_size } in
            AM.run
              {
                (AM.default_spec cfg) with
                cores = cross_pair;
                approach = Ordering.Bar (Barrier.Dmb Full);
                nops = 700;
                iters = 1000;
              }
            /. 1e6)
          robs );
    ]
  in
  Series.print
    (Series.make ~title:"window sweep" ~unit_label:"10^6 loops/s"
       ~cols:(List.map string_of_int robs) rows);

  section "Ablation: domain-boundary round trip (Observation 4's axis)";
  let rts = [ 40; 160; 320; 640 ] in
  let rows =
    [
      ( "DSB full-1",
        List.map
          (fun domain_rt ->
            let cfg = { kunpeng with Armb_cpu.Config.lat = { kunpeng.Armb_cpu.Config.lat with domain_rt } } in
            AM.run
              {
                (AM.default_spec cfg) with
                cores = cross_pair;
                approach = Ordering.Bar (Barrier.Dsb Full);
                nops = 300;
                iters = 1000;
              }
            /. 1e6)
          rts );
    ]
  in
  Series.print
    (Series.make ~title:"boundary sweep" ~unit_label:"10^6 loops/s"
       ~cols:(List.map string_of_int rts) rows);

  section "Ablation: STLR interconnect surcharge (Observation 3's axis)";
  let extras = [ 0; 20; 70; 150 ] in
  let rows =
    [
      ( "STLR cross-node",
        List.map
          (fun stlr_extra ->
            let cfg = { kunpeng with Armb_cpu.Config.stlr_extra } in
            AM.run
              {
                (AM.default_spec cfg) with
                cores = cross_pair;
                approach = Ordering.Stlr_release;
                nops = 300;
                iters = 1000;
              }
            /. 1e6)
          extras );
      ( "DMB full-1 (reference)",
        List.map
          (fun _ ->
            AM.run
              {
                (AM.default_spec kunpeng) with
                cores = cross_pair;
                approach = Ordering.Bar (Barrier.Dmb Full);
                nops = 300;
                iters = 1000;
              }
            /. 1e6)
          extras );
    ]
  in
  Series.print
    (Series.make
       ~title:"STLR surcharge sweep: where STLR crosses below the stronger DMB full"
       ~unit_label:"10^6 loops/s" ~cols:(List.map string_of_int extras) rows);

  section "Ablation: Pilot fallback rate vs shuffle-pool size";
  let pools = [ 1; 2; 8; 64 ] in
  let rows =
    [
      ( "fallback fraction",
        List.map
          (fun size ->
            (* repeated identical messages through one Pilot channel *)
            let pool = Armb_core.Pilot.make_pool ~size ~seed:3 () in
            let s = Armb_core.Pilot.sender pool in
            let n = 10_000 and fb = ref 0 in
            for _ = 1 to n do
              match Armb_core.Pilot.encode s 42L with
              | Armb_core.Pilot.Write_data _ -> ()
              | Armb_core.Pilot.Toggle_flag -> incr fb
            done;
            float_of_int !fb /. float_of_int n)
          pools );
    ]
  in
  Series.print
    (Series.make ~title:"pilot collisions (identical messages)" ~unit_label:"fraction"
       ~cols:(List.map string_of_int pools) rows)

(* ---------- Extension: in-place lock family and NUMA cohorting ---------- *)

let locks () =
  section "Extension: in-place locks and NUMA cohorting (paper §5.3's suggestion)";
  let placements =
    [
      ("same node", List.init 16 (fun i -> i));
      ("cross node", List.init 16 (fun i -> if i < 8 then i else 20 + i));
    ]
  in
  List.iter
    (fun (label, cores) ->
      let rows =
        List.map
          (fun lk ->
            let r =
              S.Ds_bench.run_counter
                {
                  (S.Ds_bench.default_spec kunpeng ~lock:lk) with
                  workers = 16;
                  cores;
                  ops_per_worker = 150;
                  interval_nops = 300;
                }
            in
            (S.Ds_bench.lock_name lk, [ r.throughput /. 1e6; r.cross_node_per_cs ]))
          S.Ds_bench.in_place_locks
      in
      Series.print
        (Series.make
           ~title:(Printf.sprintf "in-place locks, kunpeng916, 16 threads, %s" label)
           ~unit_label:"10^6 cs/s | cross-node transfers per CS"
           ~cols:[ "throughput"; "xnode/cs" ] rows))
    placements

(* ---------- registry ---------- *)

let all : (string * (unit -> unit)) list =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("table3", table3);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig6c", fig6c);
    ("fig6d", fig6d);
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("fig7c", fig7c);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig8c", fig8c);
    ("fig8d", fig8d);
    ("locks", locks);
    ("ablations", ablations);
  ]
