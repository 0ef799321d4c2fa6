module AM = Armb_core.Abstracted_model
module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Event_queue = Armb_sim.Event_queue
module Machine = Armb_cpu.Machine
module Ordering = Armb_core.Ordering
module P = Armb_platform.Platform

type sample = {
  name : string;
  events : int;
  wall_s : float;
  events_per_sec : float;
}

type results = { mode : string; fault : string; samples : sample list }

(* ---------- workloads ---------- *)

(* A slice of the Figure 3 store-store sweep: the abstracted model over
   the order-preserving approaches and NOP counts that dominate the
   figure, on both NUMA placements of the kunpeng916 model.  This is
   the per-op hot path: loads, stores, barriers, compute batches. *)
let fig3_slice ~iters ~nop_counts () =
  let kunpeng = P.kunpeng916 in
  let cross = Armb_mem.Topology.num_cores kunpeng.Armb_cpu.Config.topo / 2 in
  let placements = [ (0, 4); (0, cross) ] in
  let approaches =
    [
      (Ordering.No_barrier, AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc1);
      (Ordering.Bar (Barrier.Dmb Full), AM.Loc2);
      (Ordering.Bar (Barrier.Dmb St), AM.Loc1);
      (Ordering.Stlr_release, AM.Loc1);
    ]
  in
  let events = ref 0 in
  List.iter
    (fun cores ->
      List.iter
        (fun (approach, location) ->
          List.iter
            (fun nops ->
              let spec =
                { (AM.default_spec kunpeng) with cores; approach; location; nops; iters }
              in
              let _cycles, ev = AM.run_stats spec in
              events := !events + ev)
            nop_counts)
        approaches)
    placements;
  !events

(* The whole litmus catalogue on the timing simulator: many short
   machines, so per-trial setup cost (allocating the memory system and
   event queue) weighs as much as the per-op path. *)
let litmus_catalogue ?fault ~trials () =
  List.fold_left
    (fun acc t ->
      let r = Armb_litmus.Sim_runner.run ?fault ~trials ~seed:42 t in
      acc + r.Armb_litmus.Sim_runner.events)
    0 Armb_litmus.Catalogue.all

(* The Figure 6(a) SPSC ring with the best-legal barrier combination
   (DMB ld - DMB st): spin loops, line watches and cross-core line
   bouncing — the event queue's wakeup machinery. *)
let fig6a_ring ?fault ~messages () =
  let cfg = P.kunpeng916 in
  let cross = Armb_mem.Topology.num_cores cfg.Armb_cpu.Config.topo / 2 in
  let m = Machine.create ?fault cfg in
  let prod_cnt = Machine.alloc_line m in
  let cons_cnt = Machine.alloc_line m in
  let slots = 16 in
  let buf = Machine.alloc_lines m slots in
  Machine.spawn m ~core:0 (fun c ->
      for i = 0 to messages - 1 do
        let avail v = Int64.to_int v > i - slots in
        let cv = Core.await c (Core.load c cons_cnt) in
        if not (avail cv) then ignore (Core.spin_until c cons_cnt avail);
        Core.barrier c (Barrier.Dmb Ld);
        Core.compute c 60;
        Core.store c (buf + (i mod slots * 64)) (Int64.of_int i);
        Core.barrier c (Barrier.Dmb St);
        Core.store c prod_cnt (Int64.of_int (i + 1))
      done);
  Machine.spawn m ~core:cross (fun c ->
      for i = 0 to messages - 1 do
        ignore (Core.spin_until c prod_cnt (fun v -> Int64.to_int v > i));
        Core.barrier c (Barrier.Dmb Ld);
        ignore (Core.await c (Core.load c (buf + (i mod slots * 64))));
        Core.compute c 10;
        Core.store c cons_cnt (Int64.of_int (i + 1))
      done);
  Machine.run_exn m;
  Event_queue.processed (Machine.queue m)

(* One differential fuzz round: random litmus tests checked against the
   operational model — simulator trials interleaved with enumeration. *)
let fuzz_round ?fault ~tests ~trials_per_test () =
  let r = Armb_litmus.Fuzz.run ?fault ~tests ~trials_per_test ~seed:1234 () in
  r.Armb_litmus.Fuzz.events

(* The job service over a duplicate-heavy demo batch.  serve-cold
   measures the engine's queue/key/execute overhead with memoization
   off; serve-warm serves the same batch out of a populated memo cache.
   Events count what each ok response *serves* (a cache hit credits its
   computation's events), so the warm number reflects cache throughput.
   Like fig3-slice these stay clean under a fault plan: demo requests
   carry fault intensity 0. *)
module Service = Armb_service

let served (b : Service.Serve.batch) =
  List.fold_left
    (fun acc (r : Service.Engine.response) ->
      match r.Service.Engine.reply with
      | Service.Engine.Result { result; _ } -> acc + result.Service.Job.events
      | _ -> acc)
    0 b.Service.Serve.responses

let serve_cold ~requests () =
  let lines = Service.Serve.demo_requests ~requests ~seed:11 () in
  let engine = Service.Engine.create ~no_cache:true ~queue_bound:(max 256 requests) () in
  served (Service.Serve.run_batch engine ~lines)

(* The populating pass runs at workload-construction time, outside the
   timed region: only cache service is measured. *)
let serve_warm ~requests =
  let lines = Service.Serve.demo_requests ~requests ~seed:11 () in
  let engine = Service.Engine.create ~queue_bound:(max 256 requests) () in
  ignore (Service.Serve.run_batch engine ~lines : Service.Serve.batch);
  fun () -> served (Service.Serve.run_batch engine ~lines)

(* The same warm measurement over the Zipf-skewed batch: hot keys
   dominate and 64 clients churn the scheduler lanes. *)
let serve_zipf_warm ~requests =
  let lines = Service.Serve.zipf_requests ~requests ~seed:11 () in
  let engine = Service.Engine.create ~queue_bound:(max 256 requests) () in
  ignore (Service.Serve.run_batch engine ~lines : Service.Serve.batch);
  fun () -> served (Service.Serve.run_batch engine ~lines)

(* The many-core scalability workloads: a 256-core manycore machine
   running barrier episodes.  many-core-central hammers one fetch-add
   line with a 256-wide release fan-out — the widest sharer sets and
   deepest same-timestamp event bursts the kernel produces;
   many-core-tree spreads arrivals over a combining tree, so the event
   mix shifts from one hot line to many lukewarm ones.  Both are pure
   simulator workloads (no fault hook: a barrier that loses a wakeup
   deadlocks rather than measuring anything). *)
let many_core ~kind ~cores ~episodes ~work () =
  let spec =
    {
      Armb_sync.Sync_barrier.cfg = P.manycore ~cores;
      kind;
      cores = List.init cores Fun.id;
      episodes;
      work;
    }
  in
  (Armb_sync.Sync_barrier.run spec).Armb_sync.Sync_barrier.events

(* ---------- harness ---------- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let events = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let events_per_sec = if events > 0 && wall_s > 0. then float_of_int events /. wall_s else 0. in
  (events, wall_s, events_per_sec)

let run ?(quick = false) ?fault ?only ?(progress = fun _ -> ()) () =
  (* Record whether a fault plan perturbed the measurement: a perturbed
     number must never be confused with a clean baseline.  The null plan
     counts as faults-off (the machine drops it at creation anyway).
     fig3-slice runs on the analytic abstracted model, outside the
     machine and hence outside the injector's reach — it stays clean
     even under a plan. *)
  let fault =
    match fault with
    | Some (sp : Armb_fault.Plan.spec) when not (Armb_fault.Plan.is_null sp) -> Some sp
    | Some _ | None -> None
  in
  let fault_name = match fault with Some sp -> sp.Armb_fault.Plan.name | None -> "none" in
  let workloads =
    if quick then
      [
        ("fig3-slice", fig3_slice ~iters:4000 ~nop_counts:[ 100; 700 ]);
        ("litmus-catalogue", litmus_catalogue ?fault ~trials:800);
        ("fig6a-ring", fig6a_ring ?fault ~messages:40000);
        ("fuzz-round", fuzz_round ?fault ~tests:30 ~trials_per_test:120);
        ("serve-cold", serve_cold ~requests:120);
        ("serve-warm", serve_warm ~requests:120);
        ("serve-zipf-warm", serve_zipf_warm ~requests:120);
        ( "many-core-central",
          many_core ~kind:Armb_sync.Sync_barrier.Central ~cores:256 ~episodes:2 ~work:64 );
        ( "many-core-tree",
          many_core ~kind:(Armb_sync.Sync_barrier.Tree 4) ~cores:256 ~episodes:2 ~work:64 );
      ]
    else
      [
        ("fig3-slice", fig3_slice ~iters:15000 ~nop_counts:[ 100; 300; 500; 700 ]);
        ("litmus-catalogue", litmus_catalogue ?fault ~trials:2000);
        ("fig6a-ring", fig6a_ring ?fault ~messages:100000);
        ("fuzz-round", fuzz_round ?fault ~tests:60 ~trials_per_test:150);
        ("serve-cold", serve_cold ~requests:400);
        ("serve-warm", serve_warm ~requests:400);
        ("serve-zipf-warm", serve_zipf_warm ~requests:400);
        ( "many-core-central",
          many_core ~kind:Armb_sync.Sync_barrier.Central ~cores:256 ~episodes:32 ~work:64 );
        ( "many-core-tree",
          many_core ~kind:(Armb_sync.Sync_barrier.Tree 4) ~cores:256 ~episodes:32 ~work:64 );
      ]
  in
  let workloads =
    match only with
    | None -> workloads
    | Some ids ->
      let known = List.map fst workloads in
      List.iter
        (fun id ->
          if not (List.mem id known) then
            invalid_arg
              (Printf.sprintf "Perf.run: unknown workload %S (valid: %s)" id
                 (String.concat ", " known)))
        ids;
      List.filter (fun (name, _) -> List.mem name ids) workloads
  in
  let samples =
    List.map
      (fun (name, f) ->
        progress name;
        let events, wall_s, events_per_sec = time f in
        { name; events; wall_s; events_per_sec })
      workloads
  in
  { mode = (if quick then "quick" else "full"); fault = fault_name; samples }

let pp ppf r =
  Format.fprintf ppf "@[<v>kernel perf (%s mode%s)@," r.mode
    (if r.fault = "none" then "" else ", fault plan " ^ r.fault);
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-18s %9d events  %8.3f s  %12.0f events/s@," s.name s.events
        s.wall_s s.events_per_sec)
    r.samples;
  Format.fprintf ppf "@]"

(* ---------- JSON serialization ---------- *)

(* Hand-rolled, line-oriented JSON: one key per line, so the loader can
   be a trivial line scanner instead of pulling in a JSON dependency. *)
let to_json r =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"armb-perf-v1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"mode\": %S,\n" r.mode);
  Buffer.add_string b (Printf.sprintf "  \"fault\": %S,\n" r.fault);
  Buffer.add_string b "  \"workloads\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b "    {\n";
      Buffer.add_string b (Printf.sprintf "      \"name\": %S,\n" s.name);
      Buffer.add_string b (Printf.sprintf "      \"events\": %d,\n" s.events);
      Buffer.add_string b (Printf.sprintf "      \"wall_s\": %.6f,\n" s.wall_s);
      Buffer.add_string b (Printf.sprintf "      \"events_per_sec\": %.1f\n" s.events_per_sec);
      Buffer.add_string b
        (if i = List.length r.samples - 1 then "    }\n" else "    },\n"))
    r.samples;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let write_json ~path r =
  let oc = open_out path in
  output_string oc (to_json r);
  close_out oc

let strip_trailing_comma s =
  let s = String.trim s in
  if String.length s > 0 && s.[String.length s - 1] = ',' then
    String.sub s 0 (String.length s - 1)
  else s

let field_value line key =
  let prefix = Printf.sprintf "\"%s\":" key in
  let line = String.trim line in
  if String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then
    Some
      (strip_trailing_comma
         (String.sub line (String.length prefix) (String.length line - String.length prefix)))
  else None

let unquote s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"' then
    String.sub s 1 (String.length s - 2)
  else s

let load_json ~path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> close_in ic);
    let lines = List.rev !lines in
    let mode = ref "" in
    (* pre-fault files simply never set the key: they read as faults-off *)
    let fault = ref "none" in
    let samples = ref [] in
    let cur_name = ref None and cur_events = ref None and cur_wall = ref None in
    let cur_eps = ref None in
    let flush () =
      match (!cur_name, !cur_events, !cur_wall, !cur_eps) with
      | Some name, Some events, Some wall_s, Some events_per_sec ->
        samples := { name; events; wall_s; events_per_sec } :: !samples;
        cur_name := None;
        cur_events := None;
        cur_wall := None;
        cur_eps := None
      | _ -> ()
    in
    List.iter
      (fun line ->
        (match field_value line "mode" with Some v -> mode := unquote v | None -> ());
        (match field_value line "fault" with Some v -> fault := unquote v | None -> ());
        (match field_value line "name" with
        | Some v ->
          flush ();
          cur_name := Some (unquote v)
        | None -> ());
        (match field_value line "events" with
        | Some v -> cur_events := int_of_string_opt (String.trim v)
        | None -> ());
        (match field_value line "wall_s" with
        | Some v -> cur_wall := float_of_string_opt (String.trim v)
        | None -> ());
        match field_value line "events_per_sec" with
        | Some v -> cur_eps := float_of_string_opt (String.trim v)
        | None -> ())
      lines;
    flush ();
    match (!mode, !samples) with
    | "", [] -> None
    | mode, samples -> Some { mode; fault = !fault; samples = List.rev samples }
  end

(* ---------- baseline comparison ---------- *)

type regression = { workload : string; baseline_eps : float; current_eps : float }

let compare_against ~baseline current ~tolerance =
  List.filter_map
    (fun s ->
      if s.events = 0 then None
      else
        match List.find_opt (fun b -> b.name = s.name) baseline.samples with
        | Some b when b.events > 0 && b.events_per_sec > 0. ->
          if s.events_per_sec < b.events_per_sec *. (1. -. tolerance) then
            Some
              {
                workload = s.name;
                baseline_eps = b.events_per_sec;
                current_eps = s.events_per_sec;
              }
          else None
        | _ -> None)
    current.samples
