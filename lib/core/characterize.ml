module Barrier = Armb_cpu.Barrier
module AM = Abstracted_model

let mega v = v /. 1e6

let run_spec spec = mega (AM.run spec)

let fig2 cfg ~nop_counts ~iters =
  let approaches =
    [
      (Ordering.No_barrier, AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Ld), AM.Loc1);
      (Ordering.Bar (Barrier.Dmb St), AM.Loc1);
      (Ordering.Bar (Barrier.Dsb Full), AM.Loc1);
      (Ordering.Bar (Barrier.Dsb Ld), AM.Loc1);
      (Ordering.Bar (Barrier.Dsb St), AM.Loc1);
      (Ordering.Bar Barrier.Isb, AM.Loc1);
    ]
  in
  let rows =
    List.map
      (fun (a, loc) ->
        let name = Ordering.to_string a in
        let cells =
          List.map
            (fun nops ->
              run_spec
                {
                  (AM.default_spec cfg) with
                  mem_ops = AM.No_mem;
                  approach = a;
                  location = loc;
                  nops;
                  iters;
                })
            nop_counts
        in
        (name, cells))
      approaches
  in
  Armb_sim.Series.make
    ~title:(Printf.sprintf "Fig 2: intrinsic overhead, %s" cfg.Armb_cpu.Config.name)
    ~unit_label:"10^6 loops/s" ~cols:(List.map string_of_int nop_counts) rows

let fig3 cfg ~cores ~label ~nop_counts ~iters =
  let specs =
    [
      (Ordering.No_barrier, AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc2);
      (Ordering.Bar (Barrier.Dmb St), AM.Loc1);
      (Ordering.Bar (Barrier.Dmb St), AM.Loc2);
      (Ordering.Bar (Barrier.Dsb Full), AM.Loc1);
      (Ordering.Bar (Barrier.Dsb Full), AM.Loc2);
      (Ordering.Bar (Barrier.Dsb St), AM.Loc1);
      (Ordering.Bar (Barrier.Dsb St), AM.Loc2);
      (Ordering.Stlr_release, AM.Loc1);
    ]
  in
  let rows =
    List.map
      (fun (a, loc) ->
        let spec0 =
          {
            (AM.default_spec cfg) with
            cores;
            mem_ops = AM.Store_store;
            approach = a;
            location = loc;
            iters;
          }
        in
        let cells = List.map (fun nops -> run_spec { spec0 with nops }) nop_counts in
        (AM.label spec0, cells))
      specs
  in
  Armb_sim.Series.make
    ~title:(Printf.sprintf "Fig 3: store-store model, %s" label)
    ~unit_label:"10^6 loops/s" ~cols:(List.map string_of_int nop_counts) rows

let fig5 cfg ~cores ~nop_counts ~iters =
  let specs =
    [
      (Ordering.No_barrier, AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc2);
      (Ordering.Bar (Barrier.Dmb Ld), AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Ld), AM.Loc2);
      (Ordering.Bar (Barrier.Dsb Full), AM.Loc1);
      (Ordering.Bar (Barrier.Dsb Full), AM.Loc2);
      (Ordering.Bar (Barrier.Dsb Ld), AM.Loc1);
      (Ordering.Bar (Barrier.Dsb Ld), AM.Loc2);
      (Ordering.Ldar_acquire, AM.Loc1);
      (Ordering.Stlr_release, AM.Loc1);
      (Ordering.Ctrl_dep, AM.Loc1);
      (Ordering.Ctrl_isb, AM.Loc1);
      (Ordering.Data_dep, AM.Loc1);
      (Ordering.Addr_dep, AM.Loc1);
    ]
  in
  let rows =
    List.map
      (fun (a, loc) ->
        let spec0 =
          {
            (AM.default_spec cfg) with
            cores;
            mem_ops = AM.Load_store;
            approach = a;
            location = loc;
            iters;
          }
        in
        let cells = List.map (fun nops -> run_spec { spec0 with nops }) nop_counts in
        (AM.label spec0, cells))
      specs
  in
  Armb_sim.Series.make
    ~title:
      (Printf.sprintf "Fig 5: load-store model, %s" cfg.Armb_cpu.Config.name)
    ~unit_label:"10^6 loops/s" ~cols:(List.map string_of_int nop_counts) rows

let tipping_point cfg ~cores ?(iters = 1500) () =
  let sweep = [ 50; 100; 150; 200; 300; 400; 500; 600; 700; 900; 1200; 1600 ] in
  let spec a loc nops =
    {
      (AM.default_spec cfg) with
      cores;
      mem_ops = AM.Store_store;
      approach = a;
      location = loc;
      nops;
      iters;
    }
  in
  List.find_opt
    (fun nops ->
      let base = AM.run (spec Ordering.No_barrier AM.Loc1 nops) in
      let full2 = AM.run (spec (Ordering.Bar (Barrier.Dmb Full)) AM.Loc2 nops) in
      base > 0.0 && (base -. full2) /. base <= 0.05)
    sweep
