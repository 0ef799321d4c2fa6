(* The benchmark's own tests: seeded load generation is deterministic,
   the metrics it prints are exactly the ones BENCHMARK.json declares,
   and the simulator's exact counts have not moved. *)

open Perfbench
module Json = Armb_service.Json

let lines reqs = Array.to_list (Array.map (fun (r : Load.request) -> r.Load.line) reqs)

let test_hot_deterministic () =
  let pool1, s1 = Load.hot ~seed:7 256 and pool2, s2 = Load.hot ~seed:7 256 in
  Alcotest.(check (list string)) "same seed, same pool" (lines pool1) (lines pool2);
  Alcotest.(check (list string)) "same seed, same stream" (lines s1) (lines s2);
  let _, s3 = Load.hot ~seed:8 256 in
  Alcotest.(check bool) "another seed, another stream" true (lines s1 <> lines s3);
  Alcotest.(check int) "the whole generator pool" Load.pool_size (Array.length pool1)

let test_cold_deterministic () =
  let jobs = Load.sequence 64 in
  let b ~seed ~block = lines (Load.cold_block ~seed ~block jobs) in
  Alcotest.(check (list string)) "same seed, same block" (b ~seed:3 ~block:1) (b ~seed:3 ~block:1);
  Alcotest.(check bool) "another seed, another block" true (b ~seed:3 ~block:1 <> b ~seed:4 ~block:1)

(* serve-cold's premise: no two requests of a run share a job key *)
let test_cold_keys_distinct () =
  let jobs = Load.sequence 128 in
  let keys =
    List.concat_map
      (fun block ->
        Array.to_list
          (Array.map
             (fun (r : Load.request) ->
               match Armb_service.Codec.request_of_line r.Load.line with
               | Ok req -> Armb_service.Job.key req.Armb_service.Engine.job
               | Error msg -> Alcotest.fail msg)
             (Load.cold_block ~seed:5 ~block jobs)))
      [ 0; 1 ]
  in
  Alcotest.(check int) "distinct keys" (List.length keys) (List.length (List.sort_uniq compare keys))

let benchmark_json () =
  let ic = open_in "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string s with Ok j -> j | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)

let declared key =
  match Option.bind (Json.member key (benchmark_json ())) Json.list with
  | Some l ->
    List.map
      (fun m ->
        ( Option.get (Json.mem_str "name" m),
          Option.get (Json.mem_str "unit" m),
          Option.get (Json.mem_str "better" m) ))
      l
  | None -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let registered ms =
  List.map
    (fun (m : Registry.metric) -> (m.name, m.unit, Registry.better_to_string m.better))
    ms

let triple = Alcotest.(list (triple string string string))

let test_metrics_declared () =
  Alcotest.check triple "end_to_end" (registered Registry.end_to_end) (declared "end_to_end");
  Alcotest.check triple "per_layer" (registered Registry.per_layer) (declared "per_layer");
  let workloads =
    match Option.bind (Json.member "workloads" (benchmark_json ())) Json.list with
    | Some l -> List.map (fun w -> Option.get (Json.mem_str "name" w)) l
    | None -> []
  in
  Alcotest.(check (list string)) "workloads" Registry.workloads workloads

(* The result line carries exactly the declared names, for both modes. *)
let test_result_line_names () =
  List.iter
    (fun (trace, ms) ->
      let o =
        {
          Report.attempted = 1;
          failed = 0;
          errors = [];
          metrics = List.map (fun (m : Registry.metric) -> (m.name, 1.5)) ms;
        }
      in
      match Json.of_string (Report.to_line ~trace o) with
      | Ok j -> (
        match Json.member "metrics" j with
        | Some (Json.Obj fields) ->
          Alcotest.(check (list string))
            "printed names"
            (List.map (fun (m : Registry.metric) -> m.name) ms)
            (List.map fst fields)
        | _ -> Alcotest.fail "no metrics object")
      | Error e -> Alcotest.fail e)
    [ (false, Registry.end_to_end); (true, Registry.per_layer) ];
  Alcotest.check_raises "unknown metric" (Invalid_argument "Report: metric \"nope\" is not a end-to-end metric")
    (fun () ->
      ignore
        (Report.to_line ~trace:false
           { Report.attempted = 1; failed = 0; errors = []; metrics = [ ("nope", 1.0) ] }))

(* One sim-kernel sweep's exact counts for --seed 1.  A change that
   only claims speed must leave them identical; a change that means to
   alter the simulation updates them here. *)
let expected_sweep =
  [
    ("fig3", 447976, 5937943);
    ("ring", 0, 2681112);
    ("barrier", 38718, 30089);
    ("litmus", 98886, 1586503);
  ]

let test_sweep_counts () =
  let acct = Sim_bench.account () in
  Sim_bench.run_sweep acct (Sim_bench.sweep ~seed:1);
  Alcotest.(check (list string)) "no failed check" [] acct.Sim_bench.errors;
  Alcotest.(check (list (triple string int int)))
    "events and cycles per part" expected_sweep
    (List.map
       (fun (p, (pt : Sim_bench.part_total)) -> (p, pt.Sim_bench.p_events, pt.Sim_bench.p_cycles))
       acct.Sim_bench.parts)

let () =
  Alcotest.run "perfbench"
    [
      ( "load",
        [
          Alcotest.test_case "serve-hot stream is seeded" `Quick test_hot_deterministic;
          Alcotest.test_case "serve-cold blocks are seeded" `Quick test_cold_deterministic;
          Alcotest.test_case "serve-cold keys are distinct" `Quick test_cold_keys_distinct;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry matches BENCHMARK.json" `Quick test_metrics_declared;
          Alcotest.test_case "result line prints declared names" `Quick test_result_line_names;
        ] );
      ("exact", [ Alcotest.test_case "sim-kernel sweep counts" `Quick test_sweep_counts ]);
    ]
