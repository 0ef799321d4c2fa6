(* A workload's outcome and the one-line JSON result the benchmark
   prints last. *)

type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (* failed output checks; empty when correct *)
  metrics : (string * float) list;
}

(* ---------- host speed ----------

   The benchmark runs on shared VMs whose speed drifts by up to 2x over
   minutes, more than any regression bound could absorb.  So every
   timed end-to-end figure is stated in reference-host time: right
   before each block of work (and each set-up) the run times a fixed
   calibration kernel and scales that block's times by
   [reference_ms / kernel time].  The kernel is plain OCaml that touches
   nothing in lib/, doing what the program spends its time on: hashing,
   short-lived allocation and scattered reads over a 2 MB table.  On a
   host where the kernel takes [reference_ms] (a 2-vCPU Xeon VM at its
   usual speed) the figures are plain wall-clock. *)

let reference_ms = 15.0

module IntMap = Map.Make (Int)

let table = Array.init (1 lsl 18) (fun i -> (i * 2654435761) land 0x3FFFF)

let kernel () =
  let h = Hashtbl.create 4096 in
  let m = ref IntMap.empty in
  let acc = ref 0 in
  let x = ref 1 in
  for i = 0 to 30_000 do
    x := table.((!x + i) land (Array.length table - 1));
    let k = !x land 0x3FFF in
    (match Hashtbl.find_opt h k with
    | Some l -> Hashtbl.replace h k (i :: l)
    | None -> Hashtbl.add h k [ i ]);
    if i land 3 = 0 then m := IntMap.add k i !m;
    acc := !acc + String.length (string_of_int !x)
  done;
  !acc + IntMap.cardinal !m

(* The kernel's median time over three runs, in ms. *)
let kernel_ms () =
  Tracer.median
    (List.init 3 (fun _ ->
         let t0 = Tracer.now_ns () in
         ignore (kernel () : int);
         float_of_int (Tracer.now_ns () - t0) /. 1e6))

(* Multiply a time measured now by this to state it in reference-host
   time. *)
let host_scale () = reference_ms /. kernel_ms ()

(* Set up [reps] times and keep the last; setup_s is the median set-up
   time, so one slow set-up does not move it. *)
let repeat_setup reps f =
  let rec go i times last =
    if i = reps then (Option.get last, Tracer.median times)
    else begin
      let scale = host_scale () in
      let t0 = Tracer.now_ns () in
      let x = f () in
      let dt = float_of_int (Tracer.now_ns () - t0) /. 1e9 in
      go (i + 1) ((dt *. scale) :: times) (Some x)
    end
  in
  go 0 [] None

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Median over [rounds] of [f ()], which returns (elapsed ns, ops done):
   the per-op cost of a microbenchmark in ns. *)
let ns_per_op ~rounds f =
  Tracer.median
    (List.init rounds (fun _ ->
         let ns, ops = f () in
         float_of_int ns /. float_of_int (max 1 ops)))

(* One block of identical work in a timed run, in reference-host time. *)
type block = { rate : float; p50 : float; p99 : float }

(* A block from its latency samples (ms), served in [busy_ns] at host
   scale [scale].  The samples are cleared, so the benchmark's own
   memory does not grow with the number of requests a run serves. *)
let block ~scale (lat : Tracer.Samples.t) ~busy_ns =
  let s = Tracer.Samples.sorted lat in
  Tracer.Samples.clear lat;
  {
    rate = float_of_int (Array.length s) /. (float_of_int busy_ns *. scale /. 1e9);
    p50 = Tracer.percentile s 0.50 *. scale;
    p99 = Tracer.percentile s 0.99 *. scale;
  }

(* The end-to-end metrics of a timed run: medians over its blocks. *)
let end_to_end blocks ~setup_s =
  let med f = Tracer.median (List.map f blocks) in
  [
    ("throughput_rps", med (fun b -> b.rate));
    ("latency_p50_ms", med (fun b -> b.p50));
    ("latency_p99_ms", med (fun b -> b.p99));
    ("setup_s", setup_s);
    ("heap_peak_mb", heap_peak_mb ());
  ]

let number x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

(* The result line.  With [~trace:false] it carries exactly the
   end-to-end metrics, with [~trace:true] exactly the per-layer ones; a
   per-layer metric the workload did not set is a layer it never calls
   and reads 0.  Raises on a missing end-to-end metric, an unknown name
   or a non-finite value: those are benchmark bugs, never results. *)
let to_line ~trace o =
  let wanted = if trace then Registry.per_layer else Registry.end_to_end in
  List.iter
    (fun (name, v) ->
      if not (List.exists (fun (m : Registry.metric) -> m.name = name) wanted) then
        invalid_arg (Printf.sprintf "Report: metric %S is not a %s metric" name
             (if trace then "per-layer" else "end-to-end"));
      if not (Float.is_finite v) then invalid_arg (Printf.sprintf "Report: metric %S is %f" name v))
    o.metrics;
  let fields =
    List.map
      (fun (m : Registry.metric) ->
        let v =
          match List.assoc_opt m.name o.metrics with
          | Some v -> v
          | None when trace -> 0.0
          | None -> invalid_arg (Printf.sprintf "Report: end-to-end metric %S not measured" m.name)
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number v) m.unit)
      wanted
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.errors = []) o.attempted o.failed (String.concat ", " fields)
