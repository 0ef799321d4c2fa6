(* Tests for the continuous soak farm: seeded stream determinism,
   the inline-test / inline-program wire codecs, bounded serve, the
   metrics-v2 artifact, violation repro bundles, and end-to-end mixed
   runs through the engine. *)

module Lang = Armb_litmus.Lang
module Cat = Armb_litmus.Catalogue
module Fuzz = Armb_litmus.Fuzz
module Rng = Armb_sim.Rng
module Json = Armb_json.Json
module Key = Armb_service.Key
module Codec = Armb_service.Codec
module Engine = Armb_service.Engine
module Serve = Armb_service.Serve
module Out = Armb_service.Out
module Gen = Armb_soak.Gen
module Invariant = Armb_soak.Invariant
module Driver = Armb_soak.Driver

let check = Alcotest.check

let tmp_path suffix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "armb-soak-test-%d-%s" (Unix.getpid ()) suffix)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Does [s] contain [sub]? *)
let contains s sub =
  let n = String.length sub in
  let rec found i = i + n <= String.length s && (String.sub s i n = sub || found (i + 1)) in
  found 0

(* ---------- generator determinism ---------- *)

let test_stream_deterministic () =
  let a = Gen.stream ~requests:150 ~seed:31 () in
  let b = Gen.stream ~requests:150 ~seed:31 () in
  let lines js = List.map (fun j -> j.Gen.line) js in
  check (Alcotest.list Alcotest.string) "same seed, byte-identical stream"
    (lines a) (lines b);
  let c = Gen.stream ~requests:150 ~seed:32 () in
  check Alcotest.bool "different seed, different stream" true (lines a <> lines c)

let test_stream_decodes_and_mixes () =
  let jobs = Gen.stream ~requests:200 ~seed:5 () in
  List.iter
    (fun j ->
      match Codec.request_of_line j.Gen.line with
      | Ok req ->
        check Alcotest.string
          ("declared kind matches decoded kind: " ^ j.Gen.line)
          j.Gen.kind
          (Armb_service.Job.kind req.Engine.job)
      | Error e -> Alcotest.fail ("stream line does not decode: " ^ e))
    jobs;
  let kinds = List.sort_uniq compare (List.map (fun j -> j.Gen.kind) jobs) in
  List.iter
    (fun k ->
      check Alcotest.bool ("kind present in 200-job stream: " ^ k) true
        (List.mem k kinds))
    [ "litmus"; "check"; "perturb"; "fix"; "opt" ]

let test_small_pool_still_mixes () =
  let t = Gen.create ~pool:12 ~seed:9 () in
  let kinds = Gen.pool_kinds t in
  check Alcotest.bool
    (Printf.sprintf "12-job pool spans >= 5 kinds (got %s)"
       (String.concat "," kinds))
    true
    (List.length kinds >= 5)

(* Requests of the hottest job in a 400-request stream, a job being its
   line without the per-request id, client and priority. *)
let hottest_count ~alpha =
  let job line =
    match Json.of_string line with
    | Ok (Json.Obj fields) ->
      List.filter (fun (k, _) -> k <> "id" && k <> "client" && k <> "priority") fields
    | _ -> Alcotest.fail ("stream line is not a JSON object: " ^ line)
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun j ->
      let k = job j.Gen.line in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (Gen.stream ~alpha ~requests:400 ~seed:5 ());
  Hashtbl.fold (fun _ c acc -> max c acc) tbl 0

let test_alpha_skews_mix () =
  (* a uniform draw over the 48-job pool gives each job ~8 of 400 *)
  let hot = hottest_count ~alpha:1.1 and flat = hottest_count ~alpha:0.0 in
  check Alcotest.bool (Printf.sprintf "alpha 1.1: hottest job dominates (%d/400)" hot) true
    (hot >= 40);
  check Alcotest.bool (Printf.sprintf "alpha 0: no job dominates (%d/400)" flat) true
    (flat < 40)

(* ---------- inline wire codecs ---------- *)

(* The canonical key has two parts: the structural lines (threads,
   init, expectations) and the predicate-probing "O ..." lines.  A
   round trip with a synthetic predicate must preserve the former; the
   latter only when the declared conjunction IS the test's original
   predicate (SB and LB below). *)
let structural_key t =
  Key.canonical_test t
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.length l > 1 && l.[0] = 'O' && l.[1] = ' '))
  |> String.concat "\n"

let test_inline_test_round_trip () =
  (* a register every one of the eight tests loads: the codec refuses
     a condition on a name the test does not bind *)
  let conds = [ ("1:r1", 1L) ] in
  List.iter
    (fun (t : Lang.test) ->
      let j = Codec.test_inline_to_json ~interesting_when:conds t in
      match Codec.test_inline_of_json j with
      | Error e -> Alcotest.fail (t.Lang.name ^ ": inline test does not parse: " ^ e)
      | Ok t' ->
        check Alcotest.string (t.Lang.name ^ ": name survives") t.Lang.name
          t'.Lang.name;
        check Alcotest.string
          (t.Lang.name ^ ": structural key survives the round trip")
          (structural_key t) (structural_key t');
        (* and the rendering is a fixpoint: serialize(parse(j)) = j *)
        check Alcotest.string
          (t.Lang.name ^ ": serialization fixpoint")
          (Json.to_string j)
          (Json.to_string (Codec.test_inline_to_json ~interesting_when:conds t')))
    (List.filteri (fun i _ -> i < 8) Cat.all);
  (* with the true predicate declared, the FULL canonical key (probing
     lines included) survives — wire semantics = closure semantics *)
  List.iter
    (fun (name, conds) ->
      match Cat.find name with
      | None -> Alcotest.fail ("catalogue test missing: " ^ name)
      | Some t -> (
        let j = Codec.test_inline_to_json ~interesting_when:conds t in
        match Codec.test_inline_of_json j with
        | Error e -> Alcotest.fail (name ^ ": inline test does not parse: " ^ e)
        | Ok t' ->
          check Alcotest.string
            (name ^ ": full canonical key survives with the true predicate")
            (Key.canonical_test t) (Key.canonical_test t')))
    [
      ("SB", [ ("0:r1", 0L); ("1:r1", 0L) ]);
      ("LB", [ ("0:r1", 1L); ("1:r1", 1L) ]);
    ]

let test_inline_program_round_trip () =
  let rng = Rng.create 77 in
  for i = 1 to 6 do
    let p = Fuzz.generate_cfg ~with_loop:(i mod 2 = 0) rng in
    let j = Codec.program_to_json p in
    match Codec.program_of_json j with
    | Error e -> Alcotest.fail (Printf.sprintf "program %d does not parse: %s" i e)
    | Ok p' ->
      check Alcotest.string
        (Printf.sprintf "program %d: canonical key survives" i)
        (Key.canonical_program p) (Key.canonical_program p');
      check Alcotest.string
        (Printf.sprintf "program %d: serialization fixpoint" i)
        (Json.to_string j)
        (Json.to_string (Codec.program_to_json p'))
  done

(* ---------- atomic artifact writes ---------- *)

(* The target changes only when the writer returns: a writer that
   raises leaves the old target and no temp file behind. *)
let test_out_write_with () =
  let dir = tmp_path "out" in
  let path = Filename.concat dir "artifact.txt" in
  let write text =
    match Out.write_with ~path (fun oc -> output_string oc text) with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  in
  write "old\n";
  (match Out.write_with ~path (fun oc -> output_string oc "half"; failwith "writer failed") with
  | _ -> Alcotest.fail "the writer's exception must propagate"
  | exception Failure _ -> ());
  check Alcotest.string "old target unchanged" "old\n" (read_file path);
  check (Alcotest.list Alcotest.string) "no temp file left" [ "artifact.txt" ]
    (Array.to_list (Sys.readdir dir));
  write "new\n";
  check Alcotest.string "replaced when the writer returns" "new\n" (read_file path);
  Sys.remove path;
  Sys.rmdir dir

(* ---------- bounded serve ---------- *)

let litmus_line i =
  Printf.sprintf "{\"id\":\"q%d\",\"kind\":\"litmus\",\"test\":\"MP\",\"trials\":5,\"seed\":%d}" i i

(* parses as JSON but fails validation: sent as line 2 *)
let invalid_line = {|{"id":"c","client":"carol","kind":"litmus","test":"MP","trials":-3}|}

let test_serve_max_requests () =
  let inp = tmp_path "serve-in.ndjson" in
  let out = tmp_path "serve-out.ndjson" in
  let lines = List.init 10 litmus_line in
  (match
     Out.write ~path:inp
       (String.concat "\n" (List.hd lines :: invalid_line :: List.tl lines) ^ "\n")
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let engine = Engine.create ~cache_cap:16 ~queue_bound:16 () in
  let ic = open_in inp and oc = open_out out in
  Serve.serve ~max_requests:4 engine ic oc;
  close_in_noerr ic;
  close_out_noerr oc;
  let responses =
    String.split_on_char '\n' (read_file out)
    |> List.filter_map (fun l ->
           if String.trim l = "" then None
           else
             match Json.of_string l with
             | Ok j -> Some j
             | Error e -> Alcotest.fail ("response does not parse: " ^ e))
  in
  (* the bound stops reading, never answering: exactly the accepted
     prefix is drained and answered *)
  check Alcotest.int "exactly 4 responses" 4 (List.length responses);
  match responses with
  | err :: computed ->
    (* the error row is answered as soon as its line is read, and
       echoes the request's own id and client, not the line number *)
    check (Alcotest.option Alcotest.string) "error row" (Some "error")
      (Json.mem_str "status" err);
    check (Alcotest.option Alcotest.string) "error row echoes the id" (Some "c")
      (Json.mem_str "id" err);
    check (Alcotest.option Alcotest.string) "error row echoes the client"
      (Some "carol") (Json.mem_str "client" err);
    List.iteri
      (fun i j ->
        check (Alcotest.option Alcotest.string)
          "responses are the accepted prefix, in order"
          (Some (Printf.sprintf "q%d" i))
          (Json.mem_str "id" j))
      computed;
    Sys.remove inp;
    Sys.remove out
  | [] -> Alcotest.fail "no responses"

(* ---------- metrics artifact ---------- *)

let small_config ~seed =
  {
    (Driver.default_config ~seed) with
    Driver.requests = 120;
    wave = 24;
    pool = 24;
    queue_bound = 8;
  }

let test_metrics_artifact_round_trips () =
  let path = tmp_path "metrics.json" in
  let cfg = { (small_config ~seed:7) with Driver.metrics_out = Some path } in
  let r = Driver.run cfg in
  check Alcotest.bool "run is clean" true r.Driver.ok;
  check Alcotest.bool "at least one rolling + one final snapshot" true
    (r.Driver.snapshots >= 2);
  let j =
    match Json.of_string (read_file path) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("metrics artifact does not parse: " ^ e)
  in
  check (Alcotest.option Alcotest.string) "schema" (Some "armb-soak-metrics-v2")
    (Json.mem_str "schema" j);
  List.iter
    (fun k -> check Alcotest.bool (k ^ " absent") true (Json.member k j = None))
    [ "retried_ok"; "gave_up" ];
  check (Alcotest.option Alcotest.int) "submitted" (Some 120)
    (Json.mem_int "submitted" j);
  check (Alcotest.option Alcotest.int) "violations" (Some 0)
    (Json.mem_int "violations" j);
  (match Json.member "jobs_by_kind" j with
  | Some (Json.Obj kinds) ->
    check Alcotest.bool "per-kind counts present" true (List.length kinds >= 4)
  | _ -> Alcotest.fail "jobs_by_kind missing");
  (match Json.member "engine" j with
  | Some engine ->
    check (Alcotest.option Alcotest.string) "embedded engine schema"
      (Some "armb-serve-metrics-v1")
      (Json.mem_str "schema" engine);
    check Alcotest.bool "p99 present" true
      (Json.mem_int "latency_p99_us" engine <> None);
    check Alcotest.bool "hit rate present and positive" true
      (match Json.mem_number "hit_rate" engine with
      | Some h -> h > 0.0
      | None -> false)
  | None -> Alcotest.fail "embedded engine metrics missing");
  Sys.remove path

(* ---------- violation repro bundles ---------- *)

(* A fix job on an already-fenced catalogue test with a
   must-repair expectation: the service truthfully answers "already
   sound", the invariant cannot be satisfied, and the driver must
   persist exactly one self-contained bundle.  Three benign litmus jobs
   run ahead of it. *)
let injected_bad =
  {
    Gen.id = "inject-1";
    kind = "fix";
    expect = Invariant.Fix_must_repair;
    line =
      "{\"id\":\"inject-1\",\"kind\":\"fix\",\"test\":\"MP+dmb.st+dmb.ld\",\
       \"max_edits\":1,\"budget\":200,\"trials\":10,\"seed\":42}";
  }

let run_injected ~bundle_dir =
  let benign =
    List.map
      (fun i ->
        {
          Gen.id = Printf.sprintf "benign-%d" i;
          kind = "litmus";
          expect = Invariant.Status_ok;
          line = litmus_line i;
        })
      [ 1; 2; 3 ]
  in
  let cfg =
    {
      (Driver.default_config ~seed:1) with
      Driver.requests = 0;
      wave = 4;
      bundle_dir = Some bundle_dir;
    }
  in
  Driver.run ~jobs:(benign @ [ injected_bad ]) cfg

let test_injected_violation_bundle () =
  let dir = tmp_path "bundles" in
  let r = run_injected ~bundle_dir:dir in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)) "no write failed" []
    r.Driver.write_failures;
  check Alcotest.bool "run is flagged" false r.Driver.ok;
  check Alcotest.int "exactly one violation" 1 (List.length r.Driver.violations);
  let v = List.hd r.Driver.violations in
  check Alcotest.string "the injected job violated" "inject-1" v.Driver.job.Gen.id;
  let files = Sys.readdir dir in
  check Alcotest.int "exactly one bundle file" 1 (Array.length files);
  let bundle_path = Filename.concat dir files.(0) in
  check (Alcotest.option Alcotest.string) "report points at the bundle"
    (Some bundle_path) v.Driver.bundle;
  (match Json.of_string (read_file bundle_path) with
  | Error e -> Alcotest.fail ("bundle does not parse: " ^ e)
  | Ok j ->
    check (Alcotest.option Alcotest.string) "bundle schema"
      (Some "armb-soak-violation-v1")
      (Json.mem_str "schema" j);
    check (Alcotest.option Alcotest.string) "bundle carries the verbatim request"
      (Some injected_bad.Gen.line) (Json.mem_str "request" j);
    check Alcotest.bool "bundle carries a reason" true
      (Json.mem_str "reason" j <> None);
    (* self-contained: the recorded request replays through a fresh
       engine and reproduces a terminal response *)
    match Json.mem_str "request" j with
    | None -> Alcotest.fail "unreachable"
    | Some line -> (
      let engine = Engine.create ~cache_cap:4 ~queue_bound:4 () in
      match (Serve.run_batch engine ~lines:[ line ]).Serve.responses with
      | [ resp ] ->
        let verdict = Invariant.check Invariant.Fix_must_repair resp in
        check Alcotest.bool "replay reproduces the violation" false
          verdict.Invariant.ok
      | _ -> Alcotest.fail "replay produced no response"));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Unix.rmdir dir

(* ---------- artifacts that cannot be written ---------- *)

(* A regular file where a directory must be: every write under it
   fails, and the report lists each one instead of dropping it. *)
let with_plain_file f =
  let plain = tmp_path "plain" in
  Out.write ~path:plain "not a directory\n" |> Result.get_ok;
  Fun.protect ~finally:(fun () -> Sys.remove plain) (fun () -> f plain)

(* A failed write's reason names no temp file (the caller names the
   target), and a failed rename leaves no temp file behind. *)
let test_out_failure_names_no_temp_file () =
  let fails what path =
    match Out.write ~path "{}\n" with
    | Ok () -> Alcotest.failf "a write %s must fail" what
    | Error reason ->
      if contains reason ".tmp." then Alcotest.failf "the reason %S names the temp file" reason
  in
  with_plain_file (fun plain -> fails "under a regular file" (Filename.concat plain "m.json"));
  let dir = tmp_path "out-onto-dir" in
  let target = Filename.concat dir "m.json" in
  Sys.mkdir dir 0o755;
  Sys.mkdir target 0o755;
  fails "onto a directory" target;
  check (Alcotest.list Alcotest.string) "no temp file left" [ "m.json" ]
    (Array.to_list (Sys.readdir dir));
  Sys.rmdir target;
  Sys.rmdir dir

let test_metrics_write_failure () =
  with_plain_file (fun plain ->
      let path = Filename.concat plain "m.json" in
      let cfg =
        { (small_config ~seed:7) with Driver.requests = 40; metrics_out = Some path }
      in
      let r = Driver.run cfg in
      check Alcotest.bool "run is clean" true r.Driver.ok;
      check Alcotest.int "no snapshot written" 0 r.Driver.snapshots;
      check Alcotest.bool "the final snapshot's failure is listed" true
        (r.Driver.write_failures <> []);
      List.iter
        (fun (p, reason) ->
          check Alcotest.string "failed path" path p;
          check Alcotest.bool "reason given" true (reason <> ""))
        r.Driver.write_failures;
      check Alcotest.bool "nothing written" false (Sys.file_exists path))

let test_bundle_write_failure () =
  with_plain_file (fun plain ->
      let r = run_injected ~bundle_dir:plain in
      check Alcotest.bool "run is flagged" false r.Driver.ok;
      match (r.Driver.violations, r.Driver.write_failures) with
      | [ v ], [ (p, reason) ] ->
        check Alcotest.string "the injected job violated" "inject-1" v.Driver.job.Gen.id;
        check (Alcotest.option Alcotest.string) "no bundle path" None v.Driver.bundle;
        check Alcotest.string "failed path" (Filename.concat plain "violation-001.json") p;
        check Alcotest.bool "reason given" true (reason <> "")
      | vs, fs ->
        Alcotest.failf "want one violation and one failed write, got %d and %d"
          (List.length vs) (List.length fs))

(* ---------- end-to-end mixed runs ---------- *)

let test_mixed_run_single_engine () =
  (* queue bounds 4 and 1 under waves of 48 force shedding, so the run
     must resubmit shed requests and still complete every one *)
  List.iter
    (fun queue_bound ->
      let cfg =
        {
          (Driver.default_config ~seed:11) with
          Driver.requests = 200;
          wave = 48;
          pool = 48;
          queue_bound;
        }
      in
      let r = Driver.run cfg in
      let name s = Printf.sprintf "queue bound %d: %s" queue_bound s in
      check Alcotest.bool (name "zero violations") true r.Driver.ok;
      check Alcotest.int (name "every request submitted") 200 r.Driver.submitted;
      check Alcotest.int (name "every request completed") 200 r.Driver.completed;
      check Alcotest.int (name "no error replies") 0 r.Driver.errors;
      check Alcotest.bool (name "memo cache hit") true (r.Driver.hits > 0);
      check Alcotest.bool (name "shed observed") true (r.Driver.shed_seen > 0);
      check Alcotest.bool (name "perturb drift accumulated") true
        (r.Driver.drift_total > 0.0);
      check Alcotest.bool (name "at least 5 kinds exercised") true
        (List.length r.Driver.by_kind >= 5))
    [ 4; 1 ]

(* A client that sends one request and waits for its answer, keeping
   its end of the pipe open, is answered without closing it: the loop
   drains pending work before a read that would block.  The wait is
   bounded through [select], so a loop that holds the request until end
   of input fails the test instead of hanging it. *)
let test_serve_answers_before_eof () =
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
        Serve.serve (Engine.create ()) ic oc;
        close_in ic;
        close_out oc)
  in
  let line = litmus_line 0 ^ "\n" in
  ignore (Unix.write_substring req_w line 0 (String.length line));
  (* the first response line, read until its newline or for 10 s *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let got = Buffer.create 512 and chunk = Bytes.create 4096 in
  let rec read () =
    let left = deadline -. Unix.gettimeofday () in
    if (not (String.contains (Buffer.contents got) '\n')) && left > 0.0 then
      match Unix.select [ resp_r ] [] [] left with
      | [], _, _ -> ()
      | _ ->
        let n = Unix.read resp_r chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes got chunk 0 n;
          read ()
        end
  in
  read ();
  Unix.close req_w;
  Domain.join server;
  Unix.close resp_r;
  match String.split_on_char '\n' (Buffer.contents got) with
  | [ _ ] -> Alcotest.fail "no response within 10 s while the client kept its pipe open"
  | first :: _ -> (
    match Json.of_string first with
    | Ok j ->
      check (Alcotest.option Alcotest.string) "answers the request" (Some "q0")
        (Json.mem_str "id" j);
      check (Alcotest.option Alcotest.string) "computed" (Some "ok") (Json.mem_str "status" j)
    | Error e -> Alcotest.fail ("response does not parse: " ^ e))
  | [] -> assert false

let () =
  Alcotest.run "soak"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed, byte-identical stream" `Quick
            test_stream_deterministic;
          Alcotest.test_case "every line decodes; kinds mixed" `Quick
            test_stream_decodes_and_mixes;
          Alcotest.test_case "small pool still mixes kinds" `Quick
            test_small_pool_still_mixes;
          Alcotest.test_case "alpha skews the job mix" `Quick test_alpha_skews_mix;
        ] );
      ( "codec",
        [
          Alcotest.test_case "inline test round trip" `Quick
            test_inline_test_round_trip;
          Alcotest.test_case "inline program round trip" `Quick
            test_inline_program_round_trip;
        ] );
      ( "out",
        [
          Alcotest.test_case "writer raises -> old target, no temp file" `Quick
            test_out_write_with;
          Alcotest.test_case "a failed write names and leaves no temp file" `Quick
            test_out_failure_names_no_temp_file;
        ] );
      ( "serve",
        [
          Alcotest.test_case "--max-requests answers the accepted prefix" `Quick
            test_serve_max_requests;
          Alcotest.test_case "a lone request is answered before end of input" `Quick
            test_serve_answers_before_eof;
        ] );
      ( "driver",
        [
          Alcotest.test_case "metrics-v1 artifact round-trips" `Quick
            test_metrics_artifact_round_trips;
          Alcotest.test_case "injected unsound repair -> one repro bundle" `Quick
            test_injected_violation_bundle;
          Alcotest.test_case "200 mixed jobs, single engine" `Quick
            test_mixed_run_single_engine;
          Alcotest.test_case "metrics path under a regular file is a listed failure" `Quick
            test_metrics_write_failure;
          Alcotest.test_case "bundle into a regular file is a listed failure" `Quick
            test_bundle_write_failure;
        ] );
    ]
