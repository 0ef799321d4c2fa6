(* The sim-kernel workload: the figure sweep, run outside the service.
   Event_queue, Memsys and Core do all the work; Codec, Key, Cache and
   Enumerate do none (the litmus check's model enumeration runs off the
   clock).

   One sweep is a list of simulation runs, each one "request" of the
   end-to-end metrics:
   - a Figure 3 slice: Abstracted_model store-store, 5 approaches x 4
     NOP counts x 2 placements on kunpeng916;
   - the Figure 6(a) SPSC ring, DMB ld - DMB st, cross-node, through
     Spsc_ring.verified_run (the consumer checks every payload);
   - a 256-core tree Sync_barrier run (validated per episode);
   - the litmus catalogue on Sim_runner, seeded by --seed. *)

module AM = Armb_core.Abstracted_model
module Barrier = Armb_cpu.Barrier
module Event_queue = Armb_sim.Event_queue
module Memsys = Armb_mem.Memsys
module Ordering = Armb_core.Ordering
module P = Armb_platform.Platform
module SB = Armb_sync.Sync_barrier
module Spsc = Armb_sync.Spsc_ring
module SR = Armb_litmus.Sim_runner
module T = Tracer

type result = {
  events : int;  (* 0 where the part's result exposes none (the ring) *)
  cycles : int;
  counters : Memsys.counters option;
  check : unit -> string option;  (* output check, run off the clock *)
}

type run = { part : string; label : string; exec : unit -> result }

let ok () = None

let kunpeng = P.kunpeng916

(* core 0 and the first core of the far node *)
let cross = snd (Armb_platform.Run_config.default_cores kunpeng)

let ring_messages = 40_000
let barrier_episodes = 64
let litmus_trials = 1000

let fig3_runs () =
  let approaches =
    [
      (Ordering.No_barrier, AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc2);
      (Ordering.Bar (Barrier.Dmb St), AM.Loc1);
      (Ordering.Stlr_release, AM.Loc1);
    ]
  in
  List.concat_map
    (fun cores ->
      List.concat_map
        (fun (approach, location) ->
          List.map
            (fun nops ->
              let spec = { (AM.default_spec kunpeng) with cores; approach; location; nops } in
              {
                part = "fig3";
                label = Printf.sprintf "%s nops=%d (%d,%d)" (AM.label spec) nops (fst cores) (snd cores);
                exec =
                  (fun () ->
                    let cycles, events = AM.run_stats spec in
                    { events; cycles; counters = None; check = ok });
              })
            [ 100; 300; 500; 700 ])
        approaches)
    [ (0, 4); (0, cross) ]

let ring_run () =
  let spec =
    {
      (Spsc.default_spec kunpeng ~cores:(0, cross)) with
      messages = ring_messages;
      barriers = Spsc.combo "DMB ld - DMB st";
    }
  in
  {
    part = "ring";
    label = "DMB ld - DMB st";
    exec =
      (fun () ->
        let r = Spsc.verified_run spec in
        { events = 0; cycles = r.Spsc.cycles; counters = Some r.Spsc.lines_touched; check = ok });
  }

let barrier_run () =
  let cores = 256 in
  let spec =
    { SB.cfg = P.manycore ~cores; kind = SB.Tree 4; cores = List.init cores Fun.id; episodes = barrier_episodes; work = 64 }
  in
  {
    part = "barrier";
    label = "tree4 x256";
    exec =
      (fun () ->
        let r = SB.run spec in
        let check () =
          if r.SB.episodes = barrier_episodes then None
          else Some (Printf.sprintf "barrier ran %d of %d episodes" r.SB.episodes barrier_episodes)
        in
        { events = r.SB.events; cycles = r.SB.cycles; counters = Some r.SB.counters; check });
  }

let litmus_runs ~seed =
  List.map
    (fun (t : Armb_litmus.Lang.test) ->
      {
        part = "litmus";
        label = t.Armb_litmus.Lang.name;
        exec =
          (fun () ->
            let r = SR.run ~cfg:kunpeng ~trials:litmus_trials ~seed t in
            let check () =
              if SR.consistent_with_model r t then None
              else Some (t.Armb_litmus.Lang.name ^ ": witnessed an outcome the model forbids")
            in
            { events = r.SR.events; cycles = r.SR.cycles; counters = None; check });
      })
    Armb_litmus.Catalogue.all

let sweep ~seed = fig3_runs () @ [ ring_run (); barrier_run () ] @ litmus_runs ~seed

(* ---------- running sweeps ---------- *)

type part_total = { mutable p_events : int; mutable p_cycles : int; mutable ctrs : Memsys.counters option }

type account = {
  mutable requests : int;
  mutable failed : int;
  mutable busy_ns : int;
  latencies : T.Samples.t;  (* ms, this block's *)
  mutable errors : string list;
  mutable first : (string * int * int * Memsys.counters option) list option;
      (* the first sweep's exact counts per part *)
  parts : (string * part_total) list;  (* the last sweep's, per part *)
}

let account () =
  {
    requests = 0;
    failed = 0;
    busy_ns = 0;
    latencies = T.Samples.create ();
    errors = [];
    first = None;
    parts = List.map (fun p -> (p, { p_events = 0; p_cycles = 0; ctrs = None })) Registry.sim_parts;
  }

let error acct msg = if List.length acct.errors < 10 then acct.errors <- msg :: acct.errors

let add_counters (a : Memsys.counters) (b : Memsys.counters) =
  {
    Memsys.hits = a.hits + b.hits;
    transfers = a.transfers + b.transfers;
    cross_node_transfers = a.cross_node_transfers + b.cross_node_transfers;
    dram_fills = a.dram_fills + b.dram_fills;
    invalidations = a.invalidations + b.invalidations;
  }

(* One sweep: the runs are timed, their checks and the exact-count
   comparison are not. *)
let run_sweep acct ?tracer runs =
  let sweep_id = match tracer with Some t -> T.fresh_id t | None -> -1 in
  let s0 = T.now_ns () in
  let done_ =
    List.mapi
      (fun i run ->
        let t0 = T.now_ns () in
        let r =
          try Ok (T.span tracer ~name:("sim." ^ run.part) ~parent:sweep_id ~req:i run.exec)
          with e -> Error (Printexc.to_string e)
        in
        let dt = T.now_ns () - t0 in
        acct.busy_ns <- acct.busy_ns + dt;
        T.Samples.add acct.latencies (float_of_int dt /. 1e6);
        (run, r))
      runs
  in
  Option.iter
    (fun t ->
      T.record t ~id:sweep_id ~name:"sweep" ~parent:(-1) ~req:(-1) ~start_ns:s0 ~end_ns:(T.now_ns ()))
    tracer;
  List.iter
    (fun (_, pt) ->
      pt.p_events <- 0;
      pt.p_cycles <- 0;
      pt.ctrs <- None)
    acct.parts;
  List.iter
    (fun (run, r) ->
      acct.requests <- acct.requests + 1;
      match r with
      | Error msg ->
        acct.failed <- acct.failed + 1;
        error acct (Printf.sprintf "%s %s raised %s" run.part run.label msg)
      | Ok res ->
        Option.iter (fun msg -> error acct (run.part ^ " " ^ run.label ^ ": " ^ msg)) (res.check ());
        let pt = List.assoc run.part acct.parts in
        pt.p_events <- pt.p_events + res.events;
        pt.p_cycles <- pt.p_cycles + res.cycles;
        pt.ctrs <-
          (match (pt.ctrs, res.counters) with
          | None, c -> c
          | Some a, Some b -> Some (add_counters a b)
          | Some a, None -> Some a))
    done_;
  (* the simulator is deterministic: every sweep must repeat the first
     one's exact counts bit for bit *)
  let counts = List.map (fun (p, pt) -> (p, pt.p_events, pt.p_cycles, pt.ctrs)) acct.parts in
  match acct.first with
  | None -> acct.first <- Some counts
  | Some first -> if first <> counts then error acct "exact simulation counts changed between sweeps"

let outcome acct metrics =
  { Report.attempted = acct.requests; failed = acct.failed; errors = List.rev acct.errors; metrics }

let setup_reps = 5

(* Setup builds the run list and runs one warm-up sweep, so lazy
   allocation and heap growth finish before timing. *)
let setup ~seed () =
  let runs = sweep ~seed in
  let warm = account () in
  run_sweep warm runs;
  (runs, warm)

let timed ~seed ~seconds =
  let (runs, warm), setup_s = Report.repeat_setup setup_reps (setup ~seed) in
  let acct = { (account ()) with first = warm.first; errors = warm.errors } in
  let deadline = T.now_ns () + int_of_float (seconds *. 1e9) in
  (* every sweep is the same work: a block of the end-to-end figures *)
  let blocks = ref [] in
  while T.now_ns () < deadline do
    let scale = Report.host_scale () in
    let b0 = acct.busy_ns in
    run_sweep acct runs;
    blocks := Report.block ~scale acct.latencies ~busy_ns:(acct.busy_ns - b0) :: !blocks
  done;
  outcome acct (Report.end_to_end !blocks ~setup_s)

(* ---------- layer microbenchmarks ---------- *)

let micro_lines = 4096

(* Memsys.read on a kunpeng916 memory system: an L1 hit, a cross-node
   cache-to-cache transfer and a DRAM fill, each checked against the
   traffic counters. *)
let memsys_micro errors =
  let cfg = kunpeng in
  let create () = Memsys.create ~topo:cfg.Armb_cpu.Config.topo ~lat:cfg.Armb_cpu.Config.lat () in
  let addr i = i * 64 in
  let reads m ~core ~passes ~field ~expect =
    let before = field (Memsys.counters m) in
    let t0 = T.now_ns () in
    for p = 0 to passes - 1 do
      for i = 0 to micro_lines - 1 do
        ignore (Memsys.read m ~now:((p * micro_lines) + i) ~core ~addr:(addr i) : Memsys.access)
      done
    done;
    let dt = T.now_ns () - t0 in
    let got = field (Memsys.counters m) - before in
    if got <> passes * micro_lines then
      errors := Printf.sprintf "memsys micro: %s counted %d of %d reads" expect got (passes * micro_lines) :: !errors;
    (dt, passes * micro_lines)
  in
  let placed core =
    let m = create () in
    for i = 0 to micro_lines - 1 do
      Memsys.place m ~core ~addr:(addr i)
    done;
    m
  in
  let hit =
    Report.ns_per_op ~rounds:9 (fun () ->
        reads (placed 0) ~core:0 ~passes:8 ~field:(fun c -> c.Memsys.hits) ~expect:"hit")
  in
  let transfer =
    Report.ns_per_op ~rounds:9 (fun () ->
        reads (placed 0) ~core:cross ~passes:1
          ~field:(fun c -> c.Memsys.cross_node_transfers)
          ~expect:"cross-node transfer")
  in
  let dram =
    Report.ns_per_op ~rounds:9 (fun () ->
        reads (create ()) ~core:0 ~passes:1 ~field:(fun c -> c.Memsys.dram_fills) ~expect:"dram fill")
  in
  [ ("memsys.read_hit_ns", hit); ("memsys.read_transfer_ns", transfer); ("memsys.read_dram_ns", dram) ]

(* Event_queue.schedule and run over 64 self-rescheduling chains; a
   third of the events land in the same cycle (the FIFO path), the rest
   1-13 cycles ahead (the heap path). *)
let event_queue_micro errors =
  let total = 200_000 in
  Report.ns_per_op ~rounds:9 (fun () ->
      let q = Event_queue.create () in
      let scheduled = ref 0 in
      let rec ev i () =
        if !scheduled < total then begin
          incr scheduled;
          let d = if i mod 3 = 0 then 0 else 1 + (i mod 13) in
          Event_queue.schedule q ~at:(Event_queue.now q + d) (ev (i + 7))
        end
      in
      for c = 0 to 63 do
        incr scheduled;
        Event_queue.schedule q ~at:c (ev c)
      done;
      let t0 = T.now_ns () in
      Event_queue.run q;
      let dt = T.now_ns () - t0 in
      if Event_queue.processed q <> !scheduled then
        errors := "event queue micro: processed count differs from scheduled" :: !errors;
      (dt, Event_queue.processed q))

(* ---------- traced run (--trace 1) ---------- *)

let traced ~seed ~seconds =
  let runs, warm = setup ~seed () in
  let k = max 1 (int_of_float (Float.ceil (seconds /. 2.0))) in
  (* untraced and traced sweeps alternate, so a slow spell of the host
     hits both *)
  let u = { (account ()) with first = warm.first } in
  let tr = T.create () in
  let t = { (account ()) with first = warm.first } in
  for _ = 1 to k do
    run_sweep u runs;
    run_sweep t ~tracer:tr runs
  done;
  List.iter (error t) (warm.errors @ u.errors);
  let errors = ref [] in
  let micro = memsys_micro errors @ [ ("event_queue.ns_per_event", event_queue_micro errors) ] in
  List.iter (error t) !errors;
  let part p = List.assoc p t.parts in
  let f = float_of_int in
  let per_part =
    List.concat_map
      (fun p ->
        let pt = part p in
        [ (Printf.sprintf "sim.%s.events" p, f pt.p_events); (Printf.sprintf "sim.%s.ns_per_event" p, f (T.total_ns tr ("sim." ^ p)) /. f (k * max 1 pt.p_events)) ])
      Registry.event_parts
    @ List.map (fun p -> (Printf.sprintf "sim.%s.cycles" p, f (part p).p_cycles)) Registry.sim_parts
    @ List.concat_map
        (fun p ->
          match (part p).ctrs with
          | None -> []
          | Some (c : Memsys.counters) ->
            List.map2
              (fun name v -> (Printf.sprintf "memsys.%s.%s" p name, f v))
              Registry.memsys_counters
              [ c.hits; c.transfers; c.cross_node_transfers; c.dram_fills; c.invalidations ])
        Registry.memsys_parts
  in
  let ev_parts = Registry.event_parts in
  let events = List.fold_left (fun acc p -> acc + (part p).p_events) 0 ev_parts in
  let ev_ns = List.fold_left (fun acc p -> acc + T.total_ns tr ("sim." ^ p)) 0 ev_parts in
  ( outcome t
      ([
         ("failed_ratio", f t.failed /. f (max 1 t.requests));
         ("trace.overhead_pct", 100.0 *. f (t.busy_ns - u.busy_ns) /. f (max 1 u.busy_ns));
         ("sim_events_per_s", f (k * events) /. (f ev_ns /. 1e9));
         ("sim.ring.ns_per_cycle", f (T.total_ns tr "sim.ring") /. f (k * max 1 (part "ring").p_cycles));
       ]
      @ per_part @ micro),
    tr )
