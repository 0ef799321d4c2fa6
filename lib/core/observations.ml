module Barrier = Armb_cpu.Barrier
module AM = Abstracted_model
module P = Armb_platform.Platform

type verdict = { holds : bool; detail : string }

let spec cfg ~cores ~mem_ops ~approach ~location ~nops =
  {
    (AM.default_spec cfg) with
    cores;
    mem_ops;
    approach;
    location;
    nops;
    iters = 1500;
  }

let thr s = AM.run s /. 1e6

let obs1_intrinsic_overhead cfg =
  let nops = 100 in
  let m approach =
    thr (spec cfg ~cores:(0, 1) ~mem_ops:AM.No_mem ~approach ~location:AM.Loc1 ~nops)
  in
  let none = m Ordering.No_barrier in
  let dmb_full = m (Ordering.Bar (Barrier.Dmb Full)) in
  let dmb_st = m (Ordering.Bar (Barrier.Dmb St)) in
  let dmb_ld = m (Ordering.Bar (Barrier.Dmb Ld)) in
  let dsb_full = m (Ordering.Bar (Barrier.Dsb Full)) in
  let dsb_st = m (Ordering.Bar (Barrier.Dsb St)) in
  let isb = m (Ordering.Bar Barrier.Isb) in
  let close a b = Float.abs (a -. b) /. Float.max a b < 0.10 in
  let holds =
    dmb_full <= none
    && close dmb_full dmb_st && close dmb_full dmb_ld
    && close dsb_full dsb_st
    && isb < dmb_full && isb > dsb_full
    && dsb_full < 0.5 *. dmb_full
  in
  {
    holds;
    detail =
      Printf.sprintf
        "none=%.1f dmb(full/st/ld)=%.1f/%.1f/%.1f isb=%.1f dsb(full/st)=%.1f/%.1f M loops/s"
        none dmb_full dmb_st dmb_ld isb dsb_full dsb_st;
  }

let obs2_location_matters cfg ~cores =
  let nops = 300 in
  let m location =
    thr
      (spec cfg ~cores ~mem_ops:AM.Store_store
         ~approach:(Ordering.Bar (Barrier.Dmb Full))
         ~location ~nops)
  in
  let loc1 = m AM.Loc1 and loc2 = m AM.Loc2 in
  {
    holds = loc1 < 0.85 *. loc2;
    detail = Printf.sprintf "DMB full-1=%.1f vs DMB full-2=%.1f M loops/s" loc1 loc2;
  }

let stlr_vs cfg ~cores ~nops =
  let m approach location =
    thr (spec cfg ~cores ~mem_ops:AM.Store_store ~approach ~location ~nops)
  in
  let stlr = m Ordering.Stlr_release AM.Loc1 in
  let dmb_full = m (Ordering.Bar (Barrier.Dmb Full)) AM.Loc1 in
  let dmb_st = m (Ordering.Bar (Barrier.Dmb St)) AM.Loc1 in
  let dsb = m (Ordering.Bar (Barrier.Dsb Full)) AM.Loc1 in
  (stlr, dmb_full, dmb_st, dsb)

(* On at least one platform STLR is slower than the stronger DMB full,
   and on at least one other it is faster; its overhead sits between
   DSB and DMB st. *)
let obs3_stlr_unstable () =
  let s_k, f_k, st_k, dsb_k =
    stlr_vs P.kunpeng916
      ~cores:(0, Armb_mem.Topology.num_cores P.kunpeng916.topo / 2)
      ~nops:300
  in
  let s_m, f_m, _, _ = stlr_vs P.kirin960 ~cores:(0, 1) ~nops:30 in
  let holds =
    (* worse than the stronger barrier on the server... *)
    s_k < f_k
    (* ...but fine on the mobile part... *)
    && s_m >= 0.95 *. f_m
    (* ...and always between DSB and DMB st. *)
    && s_k > dsb_k && s_k < st_k
  in
  {
    holds;
    detail =
      Printf.sprintf
        "kunpeng916: stlr=%.1f dmbfull=%.1f dmbst=%.1f dsb=%.1f; kirin960: stlr=%.1f \
         dmbfull=%.1f"
        s_k f_k st_k dsb_k s_m f_m;
  }

(* Absolute overhead in cycles/loop that each bus-involving approach
   adds over the no-barrier baseline, and the spread among them.
   Observation 4 claims both grow with bus complexity: the server's
   deeper interconnect makes barriers cost more cycles and makes the
   choice of approach matter more. *)
let added_cycles cfg ~cores ~nops =
  let cyc approach location =
    let s = spec cfg ~cores ~mem_ops:AM.Store_store ~approach ~location ~nops in
    float_of_int (AM.run_cycles s) /. float_of_int s.AM.iters
  in
  let base = cyc Ordering.No_barrier AM.Loc1 in
  let overheads =
    [
      cyc (Ordering.Bar (Barrier.Dmb Full)) AM.Loc1 -. base;
      cyc (Ordering.Bar (Barrier.Dmb St)) AM.Loc1 -. base;
      cyc Ordering.Stlr_release AM.Loc1 -. base;
    ]
  in
  let worst = List.fold_left Float.max 0.0 overheads in
  let best = List.fold_left Float.min infinity overheads in
  (worst, worst -. best)

(* The barrier-cost spread (max/min over approaches) is far larger on
   the server platform than on the mobile platforms. *)
let obs4_bus_complexity () =
  let w_server, s_server =
    added_cycles P.kunpeng916
      ~cores:(0, Armb_mem.Topology.num_cores P.kunpeng916.topo / 2)
      ~nops:100
  in
  let w_kirin, s_kirin = added_cycles P.kirin960 ~cores:(0, 1) ~nops:10 in
  let w_rpi, s_rpi = added_cycles P.raspberrypi4 ~cores:(0, 1) ~nops:10 in
  {
    holds =
      w_server > 2.0 *. w_kirin && w_server > 2.0 *. w_rpi && s_server > 2.0 *. s_kirin
      && s_server > 2.0 *. s_rpi;
    detail =
      Printf.sprintf
        "worst added cycles/loop (variation): kunpeng916=%.0f (%.0f) kirin960=%.0f (%.0f) \
         rpi4=%.0f (%.0f)"
        w_server s_server w_kirin s_kirin w_rpi s_rpi;
  }

(* Crossing NUMA nodes inflates DMB full's penalty but not DSB's (DSB
   pays the domain boundary regardless). *)
let obs5_crossing_nodes () =
  let cfg = P.kunpeng916 in
  let far = Armb_mem.Topology.num_cores cfg.topo / 2 in
  let m approach cores =
    thr
      (spec cfg ~cores ~mem_ops:AM.Store_store ~approach ~location:AM.Loc1 ~nops:100)
  in
  let dmb_same = m (Ordering.Bar (Barrier.Dmb Full)) (0, 4) in
  let dmb_cross = m (Ordering.Bar (Barrier.Dmb Full)) (0, far) in
  let dsb_same = m (Ordering.Bar (Barrier.Dsb Full)) (0, 4) in
  let dsb_cross = m (Ordering.Bar (Barrier.Dsb Full)) (0, far) in
  let dmb_penalty = dmb_same /. dmb_cross in
  let dsb_penalty = dsb_same /. dsb_cross in
  {
    holds = dmb_penalty > 1.5 && dsb_penalty < 1.3;
    detail =
      Printf.sprintf
        "DMB full same/cross=%.1f/%.1f (%.1fx); DSB full same/cross=%.1f/%.1f (%.2fx)"
        dmb_same dmb_cross dmb_penalty dsb_same dsb_cross dsb_penalty;
  }

let obs6_no_bus_wins cfg ~cores =
  let nops = 300 in
  let m approach =
    thr (spec cfg ~cores ~mem_ops:AM.Load_store ~approach ~location:AM.Loc1 ~nops)
  in
  let cheap =
    [ m Ordering.Data_dep; m Ordering.Addr_dep; m Ordering.Ctrl_dep; m Ordering.Ldar_acquire;
      m (Ordering.Bar (Barrier.Dmb Ld)) ]
  in
  let bus = [ m (Ordering.Bar (Barrier.Dmb Full)); m (Ordering.Bar (Barrier.Dsb Full)); m Ordering.Stlr_release ] in
  let min_cheap = List.fold_left Float.min infinity cheap in
  let max_bus = List.fold_left Float.max 0.0 bus in
  {
    holds = min_cheap > max_bus;
    detail =
      Printf.sprintf "cheapest no-bus approach=%.1f vs best bus approach=%.1f M loops/s"
        min_cheap max_bus;
  }

let all () =
  let far = Armb_mem.Topology.num_cores P.kunpeng916.topo / 2 in
  [
    ("obs1 intrinsic overhead (kunpeng916)", obs1_intrinsic_overhead P.kunpeng916);
    ("obs2 location matters (kunpeng916 cross-node)", obs2_location_matters P.kunpeng916 ~cores:(0, far));
    ("obs3 STLR unstable", obs3_stlr_unstable ());
    ("obs4 bus complexity", obs4_bus_complexity ());
    ("obs5 crossing nodes", obs5_crossing_nodes ());
    ("obs6 no-bus wins (kunpeng916 cross-node)", obs6_no_bus_wins P.kunpeng916 ~cores:(0, far));
  ]
