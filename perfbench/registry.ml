(* Every metric the benchmark prints, by name, unit and direction.
   BENCHMARK.json lists the same names; the benchmark's tests hold the
   two in step, and Report refuses to print a result that misses one or
   adds one. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

(* Printed by a run with --trace 0, on every workload.  On sim-kernel a
   request is one simulation run of the figure sweep. *)
let end_to_end =
  [
    m "throughput_rps" "1/s" Higher;
    m "latency_p50_ms" "ms" Lower;
    m "latency_p99_ms" "ms" Lower;
    m "setup_s" "s" Lower;
    m "heap_peak_mb" "MB" Lower;
  ]

let job_kinds = [ "litmus"; "check"; "perturb"; "fix"; "opt"; "fuzz"; "ring"; "model" ]

let sim_parts = [ "fig3"; "ring"; "barrier"; "litmus" ]

(* The parts whose result exposes an event count; the ring's
   Spsc_ring.result carries cycles and memsys counters only. *)
let event_parts = [ "fig3"; "barrier"; "litmus" ]

(* The parts whose result exposes Memsys.counters. *)
let memsys_parts = [ "ring"; "barrier" ]

let memsys_counters = [ "hits"; "transfers"; "cross_node_transfers"; "dram_fills"; "invalidations" ]

(* Printed by a run with --trace 1, on every workload; a layer the
   workload never calls reads 0. *)
let per_layer =
  [
    m "failed_ratio" "ratio" Lower;
    m "trace.overhead_pct" "%" Lower;
    (* the host-speed calibration kernel (Report.kernel_ms); per-layer
       timings are raw wall-clock, so this is their host's speed *)
    m "host.kernel_ms" "ms" Lower;
    m "key.us" "us" Lower;
    m "key.calls" "count" Lower;
    m "codec.decode_us" "us" Lower;
    m "codec.encode_us" "us" Lower;
    m "engine.submit_self_us" "us" Lower;
    m "engine.drain_ms" "ms" Lower;
    m "engine.queue_depth_max" "count" Lower;
    m "cache.hits" "count" Higher;
    m "cache.misses" "count" Lower;
    m "cache.evictions" "count" Lower;
    m "cache.hit_ratio" "ratio" Higher;
  ]
  @ List.concat_map
      (fun k ->
        [ m (Printf.sprintf "job.%s.ms" k) "ms" Lower; m (Printf.sprintf "job.%s.count" k) "count" Higher ])
      job_kinds
  @ [
      m "synth.oracle_calls" "count" Lower;
      m "synth.us_per_oracle_call" "us" Lower;
      m "enumerate.us" "us" Lower;
      m "cost.measure_ms" "ms" Lower;
      m "sim_events_per_s" "1/s" Higher;
    ]
  @ List.map (fun p -> m (Printf.sprintf "sim.%s.ns_per_event" p) "ns" Lower) event_parts
  @ [ m "sim.ring.ns_per_cycle" "ns" Lower ]
  @ List.map (fun p -> m (Printf.sprintf "sim.%s.events" p) "count" Lower) event_parts
  @ List.map (fun p -> m (Printf.sprintf "sim.%s.cycles" p) "count" Lower) sim_parts
  @ List.concat_map
      (fun p ->
        List.map
          (fun c -> m (Printf.sprintf "memsys.%s.%s" p c) "count" Lower)
          memsys_counters)
      memsys_parts
  @ [
      m "memsys.read_hit_ns" "ns" Lower;
      m "memsys.read_transfer_ns" "ns" Lower;
      m "memsys.read_dram_ns" "ns" Lower;
      m "event_queue.ns_per_event" "ns" Lower;
    ]

let workloads = [ "serve-hot"; "serve-cold"; "sim-kernel" ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"
