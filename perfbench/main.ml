(* perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload and prints, as its last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  --trace 0 measures
   the end-to-end metrics; --trace 1 gives the per-layer ones and writes
   the recorded spans to perfbench-out/spans-<workload>.jsonl.  Exits 1
   when an output check fails. *)

open Perfbench

let usage = "main.exe --workload (serve-hot|serve-cold|sim-kernel) --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " serve-hot | serve-cold | sim-kernel");
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Registry.workloads) then begin
    prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = !seed and seconds = !seconds and tracing = !trace = 1 in
  let outcome, tracer =
    match (!workload, tracing) with
    | "serve-hot", false -> (Serve_bench.timed_hot ~seed ~seconds, None)
    | "serve-hot", true ->
      let o, tr = Serve_bench.traced_hot ~seed ~seconds in
      (o, Some tr)
    | "serve-cold", false -> (Serve_bench.timed_cold ~seed ~seconds, None)
    | "serve-cold", true ->
      let o, tr = Serve_bench.traced_cold ~seed ~seconds in
      (o, Some tr)
    | _, false -> (Sim_bench.timed ~seed ~seconds, None)
    | _, true ->
      let o, tr = Sim_bench.traced ~seed ~seconds in
      (o, Some tr)
  in
  let outcome =
    if outcome.Report.attempted > 0 then outcome
    else { outcome with errors = "no request was attempted" :: outcome.errors }
  in
  let outcome =
    if tracing then
      { outcome with metrics = ("host.kernel_ms", Report.kernel_ms ()) :: outcome.Report.metrics }
    else outcome
  in
  Option.iter
    (fun tr ->
      if not (Sys.file_exists "perfbench-out") then Sys.mkdir "perfbench-out" 0o755;
      Tracer.write tr (Printf.sprintf "perfbench-out/spans-%s.jsonl" !workload))
    tracer;
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) outcome.Report.errors;
  print_endline (Report.to_line ~trace:tracing outcome);
  exit (if outcome.Report.errors = [] then 0 else 1)
