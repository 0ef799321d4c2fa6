module Barrier = Armb_cpu.Barrier
module AM = Abstracted_model

(* One figure: a row per (approach, location) of [base], named by
   [name], a cell per NOP count in 10^6 loops/s. *)
let sweep ~title ~name (base : AM.spec) ~nop_counts rows =
  let row (approach, location) =
    let spec = { base with approach; location } in
    (name spec, List.map (fun nops -> AM.run { spec with nops } /. 1e6) nop_counts)
  in
  Armb_sim.Series.make ~title ~unit_label:"10^6 loops/s"
    ~cols:(List.map string_of_int nop_counts) (List.map row rows)

let at_loc1 = List.map (fun a -> (a, AM.Loc1))
let at_both = List.concat_map (fun b -> [ (Ordering.Bar b, AM.Loc1); (Ordering.Bar b, AM.Loc2) ])

let fig2 cfg ~nop_counts ~iters =
  sweep
    ~title:(Printf.sprintf "Fig 2: intrinsic overhead, %s" cfg.Armb_cpu.Config.name)
    ~name:(fun spec -> Ordering.to_string spec.AM.approach)
    { (AM.default_spec cfg) with mem_ops = AM.No_mem; iters }
    ~nop_counts
    (at_loc1
       Ordering.
         [
           No_barrier;
           Bar (Barrier.Dmb Full);
           Bar (Barrier.Dmb Ld);
           Bar (Barrier.Dmb St);
           Bar (Barrier.Dsb Full);
           Bar (Barrier.Dsb Ld);
           Bar (Barrier.Dsb St);
           Bar Barrier.Isb;
         ])

let fig3 cfg ~cores ~label ~nop_counts ~iters =
  sweep
    ~title:(Printf.sprintf "Fig 3: store-store model, %s" label)
    ~name:AM.label
    { (AM.default_spec cfg) with cores; mem_ops = AM.Store_store; iters }
    ~nop_counts
    (at_loc1 [ Ordering.No_barrier ]
    @ at_both Barrier.[ Dmb Full; Dmb St; Dsb Full; Dsb St ]
    @ at_loc1 [ Ordering.Stlr_release ])

let fig5 cfg ~cores ~nop_counts ~iters =
  sweep
    ~title:(Printf.sprintf "Fig 5: load-store model, %s" cfg.Armb_cpu.Config.name)
    ~name:AM.label
    { (AM.default_spec cfg) with cores; mem_ops = AM.Load_store; iters }
    ~nop_counts
    (at_loc1 [ Ordering.No_barrier ]
    @ at_both Barrier.[ Dmb Full; Dmb Ld; Dsb Full; Dsb Ld ]
    @ at_loc1
        Ordering.[ Ldar_acquire; Stlr_release; Ctrl_dep; Ctrl_isb; Data_dep; Addr_dep ])

let tipping_point cfg ~cores ?(iters = 1500) () =
  let base = { (AM.default_spec cfg) with cores; mem_ops = AM.Store_store; iters } in
  let run approach location nops = AM.run { base with approach; location; nops } in
  List.find_opt
    (fun nops ->
      let none = run Ordering.No_barrier AM.Loc1 nops in
      let full2 = run (Ordering.Bar (Barrier.Dmb Full)) AM.Loc2 nops in
      none > 0.0 && (none -. full2) /. none <= 0.05)
    [ 50; 100; 150; 200; 300; 400; 500; 600; 700; 900; 1200; 1600 ]
