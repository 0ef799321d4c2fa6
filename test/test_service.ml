(* Tests for the job-service engine: canonical content-addressed keys
   (renaming invariance, collision freedom), the LRU memo cache,
   request coalescing, load shedding, fair-share priority scheduling,
   warm-vs-cold bit-identity on the golden workloads and on generated
   traffic, and the NDJSON codec. *)

module AM = Armb_core.Abstracted_model
module Ordering = Armb_core.Ordering
module Barrier = Armb_cpu.Barrier
module Lang = Armb_litmus.Lang
module Cat = Armb_litmus.Catalogue
module Sim = Armb_litmus.Sim_runner
module Fuzz = Armb_litmus.Fuzz
module RC = Armb_platform.Run_config
module P = Armb_platform.Platform
module Rng = Armb_sim.Rng
module Json = Armb_json.Json
module Key = Armb_service.Key
module Job = Armb_service.Job
module Cache = Armb_service.Cache
module Metrics = Armb_service.Metrics
module Engine = Armb_service.Engine
module Codec = Armb_service.Codec
module Serve = Armb_service.Serve
module Gen = Armb_soak.Gen

let check = Alcotest.check

let rc ?(seed = 42) ?(trials = 40) () = RC.make ~seed ~trials P.kunpeng916

(* Does [s] contain [sub]? *)
let contains s sub =
  let n = String.length sub in
  let rec found i = i + n <= String.length s && (String.sub s i n = sub || found (i + 1)) in
  found 0

(* ---------- canonical keys ---------- *)

(* A consistent injective renaming of every shared variable and
   register, with the outcome predicate wrapped so it keeps working
   over the renamed bindings.  Canonicalization must erase it. *)
let rename_test (t : Lang.test) =
  let rv v = "q_" ^ v in
  let rr r = "z" ^ r in
  let rinstr = function
    | Lang.Load { var; reg; acquire; addr_dep } ->
      Lang.Load
        { var = rv var; reg = rr reg; acquire; addr_dep = Option.map rr addr_dep }
    | Lang.Store { var; v; release; addr_dep } ->
      Lang.Store
        {
          var = rv var;
          v = (match v with Lang.Reg r -> Lang.Reg (rr r) | Lang.Const _ as c -> c);
          release;
          addr_dep = Option.map rr addr_dep;
        }
    | Lang.Fence f -> Lang.Fence f
  in
  let rename_key k =
    match String.index_opt k ':' with
    | Some i ->
      let pre = String.sub k 0 i in
      let post = String.sub k (i + 1) (String.length k - i - 1) in
      if pre = "mem" then "mem:" ^ rv post else pre ^ ":" ^ rr post
    | None -> k
  in
  {
    t with
    Lang.name = t.Lang.name ^ "-renamed";
    init = List.map (fun (v, x) -> (rv v, x)) t.Lang.init;
    threads = List.map (List.map rinstr) t.Lang.threads;
    interesting = (fun lookup -> t.Lang.interesting (fun k -> lookup (rename_key k)));
  }

let test_key_rename_invariant () =
  List.iter
    (fun (t : Lang.test) ->
      check Alcotest.string
        (t.Lang.name ^ " canonical form survives renaming")
        (Key.canonical_test t)
        (Key.canonical_test (rename_test t)))
    Cat.all

let test_key_init_presentation () =
  List.iter
    (fun (t : Lang.test) ->
      (* binding order is presentation *)
      check Alcotest.string
        (t.Lang.name ^ " init order irrelevant")
        (Key.canonical_test t)
        (Key.canonical_test { t with Lang.init = List.rev t.Lang.init });
      (* explicit zeros for thread-referenced variables are presentation *)
      match
        List.find_opt
          (fun v -> not (List.mem_assoc v t.Lang.init))
          (Lang.vars t)
      with
      | None -> ()
      | Some v ->
        check Alcotest.string
          (t.Lang.name ^ " explicit zero init irrelevant")
          (Key.canonical_test t)
          (Key.canonical_test { t with Lang.init = (v, 0L) :: t.Lang.init }))
    Cat.all

let test_key_catalogue_distinct () =
  let keys =
    List.map (fun (t : Lang.test) -> (t.Lang.name, Key.digest (Key.canonical_test t))) Cat.all
  in
  List.iteri
    (fun i (n1, k1) ->
      List.iteri
        (fun j (n2, k2) ->
          if i < j then
            check Alcotest.bool
              (Printf.sprintf "%s and %s do not collide" n1 n2)
              false (k1 = k2))
        keys)
    keys

(* Fuzz skeletons: canonicalization is rename-invariant and
   collision-free over a stream of random tests. *)
let prop_fuzz_keys =
  QCheck.Test.make ~name:"random tests: rename-invariant, distinct keys" ~count:40
    QCheck.small_int (fun salt ->
      let rng = Rng.create (1000 + salt) in
      let a = Fuzz.generate rng in
      let b = Fuzz.generate rng in
      Key.canonical_test a = Key.canonical_test (rename_test a)
      && (Key.canonical_test a = Key.canonical_test b
          || Key.digest (Key.canonical_test a) <> Key.digest (Key.canonical_test b)))

let test_job_key_coordinates () =
  let t = List.hd Cat.all in
  let base = { Job.spec = Job.Litmus t; rc = rc (); fault = 0.0 } in
  let key = Job.key base in
  let distinct name j =
    check Alcotest.bool (name ^ " changes the key") false (Job.key j = key)
  in
  distinct "kind" { base with Job.spec = Job.Check t };
  distinct "seed" { base with Job.rc = rc ~seed:43 () };
  distinct "trials" { base with Job.rc = rc ~trials:41 () };
  distinct "fault plan" { base with Job.fault = 0.5 };
  distinct "platform"
    { base with Job.rc = RC.make ~seed:42 ~trials:40 P.kirin970 };
  (* ...but a renamed test is the same job *)
  check Alcotest.string "renamed test, same key" key
    (Job.key { base with Job.spec = Job.Litmus (rename_test t) })

(* ---------- LRU cache ---------- *)

let test_cache_lru () =
  let c = Cache.create ~cap:3 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  Cache.put c "c" 3;
  check Alcotest.(list string) "MRU order" [ "c"; "b"; "a" ] (Cache.keys_mru c);
  (* find bumps recency: a becomes MRU, so b is evicted next *)
  check Alcotest.(option int) "find a" (Some 1) (Cache.find c "a");
  Cache.put c "d" 4;
  check Alcotest.bool "b evicted" false (Cache.mem c "b");
  check Alcotest.(list string) "order after eviction" [ "d"; "a"; "c" ]
    (Cache.keys_mru c);
  (* mem is pure: c stays LRU and falls out next *)
  check Alcotest.bool "mem c" true (Cache.mem c "c");
  Cache.put c "e" 5;
  check Alcotest.bool "c evicted despite mem" false (Cache.mem c "c");
  (* put on a live key updates in place, no eviction *)
  Cache.put c "a" 10;
  check Alcotest.(option int) "a updated" (Some 10) (Cache.find c "a");
  check Alcotest.int "size capped" 3 (Cache.size c)

(* ---------- engine: coalescing, hits, shedding, scheduling ---------- *)

let job_of_test ?(trials = 6) (t : Lang.test) =
  { Job.spec = Job.Litmus t; rc = rc ~trials (); fault = 0.0 }

let req ?(client = "anon") ?(priority = Engine.Normal) ~id job =
  { Engine.id; client; priority; job }

let origins responses =
  List.map
    (fun (r : Engine.response) ->
      match r.Engine.reply with
      | Engine.Result { origin; _ } -> (r.Engine.id, origin)
      | _ -> (r.Engine.id, Engine.Cold))
    responses

let test_coalescing () =
  let e = Engine.create () in
  let job = job_of_test (List.hd Cat.all) in
  for i = 1 to 5 do
    match Engine.submit e (req ~id:(string_of_int i) job) with
    | None -> ()
    | Some _ -> Alcotest.fail "identical in-flight requests must coalesce"
  done;
  let m = Engine.metrics e in
  check Alcotest.int "one miss" 1 (Metrics.get m "misses");
  check Alcotest.int "four coalesced" 4 (Metrics.get m "coalesced");
  let rs = Engine.drain e in
  check Alcotest.int "five responses" 5 (List.length rs);
  check
    Alcotest.(list (pair string bool))
    "head is the cold computation, the rest coalesced"
    [ ("1", true); ("2", false); ("3", false); ("4", false); ("5", false) ]
    (List.map (fun (id, o) -> (id, o = Engine.Cold)) (origins rs));
  (* the finished result now serves hits without queueing *)
  (match Engine.submit e (req ~id:"6" job) with
  | Some { Engine.reply = Engine.Result { origin = Engine.Hit; wall_us = 0; _ }; _ } ->
    ()
  | _ -> Alcotest.fail "expected an immediate cache hit");
  check Alcotest.int "hit recorded" 1 (Metrics.get (Engine.metrics e) "hits")

let test_no_cache_disables_both () =
  let e = Engine.create ~no_cache:true () in
  let job = job_of_test (List.hd Cat.all) in
  (match Engine.submit e (req ~id:"1" job) with
  | None -> ()
  | Some _ -> Alcotest.fail "first submit should queue");
  (match Engine.submit e (req ~id:"2" job) with
  | None -> ()
  | Some _ -> Alcotest.fail "second submit should queue, not hit");
  let rs = Engine.drain e in
  check Alcotest.int "two distinct computations" 2 (List.length rs);
  List.iter
    (fun (_, o) -> check Alcotest.bool "all cold" true (o = Engine.Cold))
    (origins rs);
  check Alcotest.int "no coalescing" 0 (Metrics.get (Engine.metrics e) "coalesced")

let test_shedding () =
  let e = Engine.create ~queue_bound:2 () in
  let tests = Array.of_list Cat.all in
  let submit i = Engine.submit e (req ~id:(string_of_int i) (job_of_test tests.(i))) in
  (match (submit 0, submit 1) with
  | None, None -> ()
  | _ -> Alcotest.fail "first two distinct jobs fit the queue");
  (match submit 2 with
  | Some { Engine.reply = Engine.Shed { retry_after_ms }; _ } ->
    check Alcotest.bool "retry hint positive" true (retry_after_ms > 0)
  | _ -> Alcotest.fail "third distinct job must shed");
  (* coalescing onto queued work is free: no shed *)
  (match Engine.submit e (req ~id:"x" (job_of_test tests.(0))) with
  | None -> ()
  | Some _ -> Alcotest.fail "coalesced waiter must not shed");
  check Alcotest.int "one shed" 1 (Metrics.get (Engine.metrics e) "shed");
  let rs = Engine.drain e in
  check Alcotest.int "queued work still completes" 3 (List.length rs)

let test_priority_order () =
  let e = Engine.create () in
  let tests = Array.of_list Cat.all in
  ignore (Engine.submit e (req ~id:"lo" ~priority:Engine.Low (job_of_test tests.(0))));
  ignore (Engine.submit e (req ~id:"no" ~priority:Engine.Normal (job_of_test tests.(1))));
  ignore (Engine.submit e (req ~id:"hi" ~priority:Engine.High (job_of_test tests.(2))));
  let ids = List.map (fun (r : Engine.response) -> r.Engine.id) (Engine.drain e) in
  check Alcotest.(list string) "high before normal before low" [ "hi"; "no"; "lo" ] ids

let test_fair_share () =
  let e = Engine.create () in
  let tests = Array.of_list Cat.all in
  ignore (Engine.submit e (req ~id:"a1" ~client:"alice" (job_of_test tests.(0))));
  ignore (Engine.submit e (req ~id:"a2" ~client:"alice" (job_of_test tests.(1))));
  ignore (Engine.submit e (req ~id:"a3" ~client:"alice" (job_of_test tests.(2))));
  ignore (Engine.submit e (req ~id:"b1" ~client:"bob" (job_of_test tests.(3))));
  ignore (Engine.submit e (req ~id:"b2" ~client:"bob" (job_of_test tests.(4))));
  let ids = List.map (fun (r : Engine.response) -> r.Engine.id) (Engine.drain e) in
  check
    Alcotest.(list string)
    "round-robin across clients, FIFO within"
    [ "a1"; "b1"; "a2"; "b2"; "a3" ]
    ids

let test_error_reply () =
  let e = Engine.create () in
  let bad = { Job.spec = Job.Ring { combo = "no such combo"; messages = 10 }; rc = rc (); fault = 0.0 } in
  (* 64 accesses in one thread are past the WMM enumerator's limit, so keying fails *)
  let long =
    {
      Cat.mp with
      Lang.name = "64-loads";
      threads = [ List.init 64 (fun i -> Lang.ld "x" (Printf.sprintf "r%d" i)) ];
    }
  in
  (* 10^13 NOPs run the simulated clock past the event queue's 2^38 - 1
     cycle limit, so running the job fails *)
  let past_limit =
    match
      Codec.request_of_line
        {|{"kind":"model","mem_ops":"st-st","approach":"dmb","location":1,"nops":10000000000000,"iters":2}|}
    with
    | Ok r -> r.Engine.job
    | Error msg -> Alcotest.failf "model job does not decode: %s" msg
  in
  (* a fix job's search limits, a model job's counts and combination
     and a ring job's message count are checked when the job is keyed *)
  let decode line =
    match Codec.request_of_line line with
    | Ok r -> r.Engine.job
    | Error msg -> Alcotest.failf "%s does not decode: %s" line msg
  in
  let limits =
    List.map
      (fun (id, line, says) -> (id, decode line, says))
      [
        ( "5",
          {|{"kind":"fix","test":"MP","max_edits":-1,"budget":100,"trials":5}|},
          "max_edits must be at least 1 (got -1)" );
        ( "6",
          {|{"kind":"fix","test":"MP","max_edits":0,"budget":1500,"trials":5}|},
          "max_edits must be at least 1 (got 0)" );
        ( "7",
          {|{"kind":"fix","test":"MP","max_edits":2,"budget":0,"trials":5}|},
          "budget must be at least 1 (got 0)" );
        ( "8",
          {|{"kind":"model","mem_ops":"st-st","approach":"dmb","location":1,"nops":100,"iters":0}|},
          "iters must be at least 1 (got 0)" );
        ( "9",
          {|{"kind":"model","mem_ops":"st-st","approach":"dmb","location":1,"nops":-5,"iters":2}|},
          "nops must be at least 0 (got -5)" );
        ( "10",
          {|{"kind":"model","mem_ops":"st-st","approach":"ldar","location":1,"nops":100,"iters":2}|},
          "invalid model combination LDAR" );
        ( "11",
          {|{"kind":"ring","combo":"DMB ld - DMB st","messages":0}|},
          "messages must be at least 1 (got 0)" );
        ( "12",
          {|{"kind":"opt","program":"MP+overfenced","unroll":0}|},
          "Job: unroll must be at least 1 (got 0)" );
      ]
  in
  (* 4,095 fences ahead of MP's two stores put the second store at the
     producer's 4,097th op, past the sanitizer's per-core limit, so
     checking the test fails *)
  let past_sanitizer =
    let fences = List.init 4095 (fun _ -> Lang.fence Lang.F_dmb_full) in
    let threads =
      match Cat.mp.Lang.threads with th0 :: rest -> (fences @ th0) :: rest | [] -> []
    in
    let test = { Cat.mp with Lang.name = "MP-long"; threads; expect_wmm = false } in
    { Job.spec = Job.Check test; rc = rc (); fault = 0.0 }
  in
  List.iter
    (fun (id, job, says) ->
      match Engine.submit e (req ~id job) with
      | Some { Engine.reply = Engine.Error msg; _ } ->
        if not (contains msg says) then Alcotest.failf "job %s: error %S lacks %S" id msg says;
        (* the library's message alone, not the exception's printed form *)
        if String.starts_with ~prefix:"Invalid_argument" msg then
          Alcotest.failf "job %s: error %S is not plain text" id msg
      | _ -> Alcotest.failf "invalid job %s must fail at submit (key) time" id)
    ([
       ("1", bad, "no such combo");
       ("2", job_of_test long, "thread 0 has 64 memory operations");
     ]
    @ limits);
  (* keying these jobs runs nothing, so their errors may come back from the drain *)
  let late =
    [
      ("3", past_limit, "past the limit of 274877906943 cycles");
      ("4", past_sanitizer, "4096");
    ]
  in
  let submitted = List.filter_map (fun (id, job, _) -> Engine.submit e (req ~id job)) late in
  let replies = submitted @ Engine.drain e in
  List.iter
    (fun (id, _, says) ->
      match List.find_opt (fun (r : Engine.response) -> r.Engine.id = id) replies with
      | Some { Engine.reply = Engine.Error msg; _ } ->
        if not (contains msg says) then Alcotest.failf "job %s: error %S lacks %S" id msg says
      | _ -> Alcotest.failf "invalid job %s must come back as an error row" id)
    late;
  check Alcotest.int "failures counted" 12 (Metrics.get (Engine.metrics e) "failed")

(* ---------- warm-vs-cold bit-identity on the golden workloads ---------- *)

(* One job per golden workload family, with the result text computed
   directly against the underlying engines — the same renderings the
   golden-digest suite pins. *)
let golden_jobs () =
  let t = List.find (fun (t : Lang.test) -> t.Lang.name = "MP") Cat.all in
  let rc40 = rc () in
  let litmus_direct =
    let r = Sim.run ~trials:40 ~seed:42 t in
    Printf.sprintf "%s witnessed=%b\n" t.Lang.name r.Sim.interesting_witnessed
    ^ String.concat ""
        (List.map (fun (o, k) -> Printf.sprintf "  %d %s\n" k o) r.Sim.outcomes)
  in
  let check_direct =
    let base, stripped = Sim.check_test ~cfg:rc40.RC.cfg ~trials:12 t in
    Format.asprintf "%a\n" Sim.pp_check_row (Sim.check_row_of t ~base ~stripped)
  in
  let ring_direct =
    let spec =
      {
        (Armb_sync.Spsc_ring.default_spec rc40.RC.cfg ~cores:rc40.RC.cores) with
        Armb_sync.Spsc_ring.messages = 200;
        barriers = Armb_sync.Spsc_ring.combo "DMB ld - DMB st";
      }
    in
    let r = Armb_sync.Spsc_ring.run spec in
    Format.asprintf "%s cycles=%d %a\n" "DMB ld - DMB st" r.Armb_sync.Spsc_ring.cycles
      Armb_mem.Memsys.pp_counters r.Armb_sync.Spsc_ring.lines_touched
  in
  let fuzz_direct =
    Format.asprintf "%a@." Fuzz.pp_report
      (Fuzz.run ~tests:5 ~trials_per_test:40 ~seed:42 ())
  in
  (* one line of the golden fig3 slice, same emit format *)
  let model_direct =
    let spec =
      {
        (AM.default_spec rc40.RC.cfg) with
        AM.cores = rc40.RC.cores;
        mem_ops = AM.Store_store;
        approach = Ordering.Bar (Barrier.Dmb Full);
        location = AM.Loc1;
        nops = 100;
        iters = 300;
      }
    in
    Printf.sprintf "st-st dmb-full-1 (%d,%d) nops=100 cycles=%d\n"
      (fst rc40.RC.cores) (snd rc40.RC.cores) (AM.run_cycles spec)
  in
  [
    ( "model",
      {
        Job.spec =
          Job.Model
            {
              label = "dmb-full-1";
              mem_ops = AM.Store_store;
              approach = Ordering.Bar (Barrier.Dmb Full);
              location = AM.Loc1;
              nops = 100;
              iters = 300;
            };
        rc = rc40;
        fault = 0.0;
      },
      model_direct );
    ("litmus", { Job.spec = Job.Litmus t; rc = rc40; fault = 0.0 }, litmus_direct);
    ( "check",
      { Job.spec = Job.Check t; rc = rc ~trials:12 (); fault = 0.0 },
      check_direct );
    ( "ring",
      {
        Job.spec = Job.Ring { combo = "DMB ld - DMB st"; messages = 200 };
        rc = rc40;
        fault = 0.0;
      },
      ring_direct );
    ( "fuzz",
      { Job.spec = Job.Fuzz { tests = 5 }; rc = rc40; fault = 0.0 },
      fuzz_direct );
  ]

let test_golden_cold_and_warm () =
  let e = Engine.create () in
  List.iter
    (fun (name, job, direct) ->
      (match Engine.submit e (req ~id:name job) with
      | None -> ()
      | Some _ -> Alcotest.fail (name ^ ": cold submit should queue"));
      (match Engine.drain e with
      | [ { Engine.reply = Engine.Result { origin = Engine.Cold; result; _ }; _ } ] ->
        check Alcotest.string (name ^ ": cold text matches direct computation")
          direct result.Job.text
      | _ -> Alcotest.fail (name ^ ": expected one cold response"));
      (* warm hit is byte-identical to the cold run *)
      match Engine.submit e (req ~id:(name ^ "-warm") job) with
      | Some { Engine.reply = Engine.Result { origin = Engine.Hit; result; _ }; _ } ->
        check Alcotest.string (name ^ ": warm hit bit-identical") direct
          result.Job.text
      | _ -> Alcotest.fail (name ^ ": expected a warm hit"))
    (golden_jobs ())

let soak_lines ~alpha =
  List.map (fun j -> j.Gen.line) (Gen.stream ~alpha ~requests:60 ~seed:3 ())

let test_compare_cold_identical () =
  List.iter
    (fun (what, lines) ->
      let c = Serve.compare_cold ~lines () in
      check Alcotest.bool (what ^ ": warm responses byte-identical to cold") true
        c.Serve.identical;
      check Alcotest.int (what ^ ": same response count")
        (List.length c.Serve.cold.Serve.responses)
        (List.length c.Serve.warm.Serve.responses);
      check Alcotest.bool (what ^ ": duplicates coalesced on the warm engine") true
        (Metrics.get c.Serve.warm_metrics "coalesced" > 0))
    [
      ("zipf", soak_lines ~alpha:1.1);
      ("uniform", soak_lines ~alpha:0.0);
    ]

(* ---------- codec and JSON ---------- *)

let test_codec_roundtrip () =
  let line =
    {|{"id":7,"client":"alice","priority":"high","kind":"litmus","test":"sb","trials":9,"seed":3,"platform":"kirin970","fault":0.25}|}
  in
  match Codec.request_of_line line with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check Alcotest.string "numeric id accepted" "7" r.Engine.id;
    check Alcotest.string "client" "alice" r.Engine.client;
    check Alcotest.bool "priority" true (r.Engine.priority = Engine.High);
    (match r.Engine.job.Job.spec with
    | Job.Litmus t -> check Alcotest.string "case-insensitive test lookup" "SB" t.Lang.name
    | _ -> Alcotest.fail "wrong kind");
    check Alcotest.int "trials" 9 r.Engine.job.Job.rc.RC.trials;
    check Alcotest.int "seed" 3 r.Engine.job.Job.rc.RC.seed;
    check Alcotest.string "platform" "kirin970"
      r.Engine.job.Job.rc.RC.cfg.Armb_cpu.Config.name;
    check (Alcotest.float 1e-9) "fault" 0.25 r.Engine.job.Job.fault

let test_codec_errors () =
  (* [mentions]: a substring the error message must contain *)
  let bad ?(mentions = "") what line =
    match Codec.request_of_line line with
    | Ok _ -> Alcotest.fail (what ^ " should be rejected")
    | Error m ->
      check Alcotest.bool (Printf.sprintf "%s: %S mentions %S" what m mentions) true
        (contains m mentions)
  in
  let bad_cores v =
    bad
      ~mentions:(Printf.sprintf {|"cores" must be [A,B] or "A,B", got %s|} v)
      ("cores " ^ v)
      (Printf.sprintf {|{"kind":"litmus","test":"SB","cores":%s}|} v)
  in
  bad_cores "100000";
  bad_cores "[1]";
  bad_cores {|[0,"x"]|};
  bad "missing kind" {|{"test":"SB"}|};
  bad "unknown kind" {|{"kind":"nope"}|};
  bad "unknown test" {|{"kind":"litmus","test":"NOPE"}|};
  bad "fault out of range" {|{"kind":"litmus","test":"SB","fault":1.5}|};
  bad "bad priority" {|{"kind":"litmus","test":"SB","priority":"urgent"}|};
  bad "bad platform" {|{"kind":"litmus","test":"SB","platform":"m1"}|};
  bad "not json" {|{"kind":|}

let test_response_line_parses () =
  let e = Engine.create () in
  ignore (Engine.submit e (req ~id:"1" (job_of_test (List.hd Cat.all))));
  match Engine.drain e with
  | [ r ] -> (
    match Json.of_string (Codec.response_to_line r) with
    | Ok j ->
      check Alcotest.(option string) "status" (Some "ok") (Json.mem_str "status" j);
      check Alcotest.(option string) "origin" (Some "cold") (Json.mem_str "origin" j);
      check Alcotest.bool "has result text" true (Json.mem_str "result" j <> None)
    | Error e -> Alcotest.fail ("response line does not parse: " ^ e))
  | _ -> Alcotest.fail "expected one response"

let test_json_parser () =
  let roundtrip s =
    match Json.of_string s with
    | Ok j -> Json.to_string j
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  check Alcotest.string "nested"
    {|{"a":[1,2.5,true,null],"b":{"c":"x"}}|}
    (roundtrip {| { "a" : [ 1 , 2.5 , true , null ] , "b" : { "c" : "x" } } |});
  check Alcotest.string "escapes" {|{"s":"a\"b\\c\nd"}|}
    (roundtrip {|{"s":"a\"b\\c\nd"}|});
  check Alcotest.string "unicode escape decodes" {|{"s":"é"}|}
    (roundtrip {|{"s":"é"}|});
  (match Json.of_string {|{"a":1} trailing|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage must be rejected");
  match Json.of_string {|[1,|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input must be rejected"

let test_run_config_kv () =
  let r = RC.make ~cores:(1, 5) ~seed:9 ~trials:77 P.kirin960 in
  match RC.of_kv (RC.to_kv r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    check Alcotest.string "platform survives" r.RC.cfg.Armb_cpu.Config.name
      r'.RC.cfg.Armb_cpu.Config.name;
    check Alcotest.(pair int int) "cores survive" r.RC.cores r'.RC.cores;
    check Alcotest.int "seed survives" r.RC.seed r'.RC.seed;
    check Alcotest.int "trials survive" r.RC.trials r'.RC.trials;
    (* switching platform without explicit cores re-derives the default
       far-half placement for the new machine *)
    match RC.of_kv ~defaults:r [ ("platform", "raspberrypi4") ] with
    | Error e -> Alcotest.fail e
    | Ok r2 ->
      check Alcotest.(pair int int) "cores re-derived"
        (RC.default_cores (Option.get (P.by_name "raspberrypi4")))
        r2.RC.cores

(* ---------- scalability regressions ---------- *)

module Clock = Armb_service.Clock

(* Client churn must not grow the scheduler: a drained lane retires, so
   the lane index tracks only clients with work in flight.  The old
   list-backed registration kept every client ever seen (and each
   registration was a full-list append). *)
let test_lane_churn () =
  let e = Engine.create ~no_cache:true () in
  let job = job_of_test ~trials:2 (List.hd Cat.all) in
  let wave tag =
    for i = 1 to 64 do
      ignore
        (Engine.submit e
           (req ~id:(Printf.sprintf "%s-%d" tag i)
              ~client:(Printf.sprintf "client-%s-%03d" tag i) job))
    done;
    check Alcotest.int (tag ^ ": one lane per active client") 64 (Engine.live_lanes e);
    check Alcotest.int
      (tag ^ ": responses")
      64
      (List.length (Engine.drain e));
    check Alcotest.int (tag ^ ": drained lanes retire") 0 (Engine.live_lanes e)
  in
  (* three waves of disjoint clients: 192 clients total, never more
     than 64 live lanes *)
  wave "a";
  wave "b";
  wave "c"

(* Absorbing a duplicate is O(1) and order-preserving: the first
   arrival computes (Cold), every later arrival coalesces, and the
   drain answers them in arrival order.  The old [waiters @ [req]]
   append made exactly this pattern quadratic. *)
let test_coalesce_order_large () =
  let e = Engine.create () in
  let job = job_of_test (List.hd Cat.all) in
  let n = 500 in
  for i = 1 to n do
    match Engine.submit e (req ~id:(string_of_int i) job) with
    | None -> ()
    | Some _ -> Alcotest.fail "duplicates of a queued job must coalesce"
  done;
  let rs = Engine.drain e in
  check Alcotest.int "one response per request" n (List.length rs);
  List.iteri
    (fun i (r : Engine.response) ->
      check Alcotest.string "arrival order preserved" (string_of_int (i + 1))
        r.Engine.id;
      match r.Engine.reply with
      | Engine.Result { origin; _ } ->
        check Alcotest.bool "first cold, rest coalesced" true
          (origin = if i = 0 then Engine.Cold else Engine.Coalesced)
      | _ -> Alcotest.fail "expected ok responses")
    rs;
  check Alcotest.int "coalesced count" (n - 1)
    (Metrics.get (Engine.metrics e) "coalesced")

(* The monotonized clock clamps a time source that steps backwards
   (NTP, VM migration), so measured intervals are never negative. *)
let test_clock_monotonic () =
  let steps = ref [ 100.0; 200.0; 50.0; 60.0; 300.0 ] in
  let source () =
    match !steps with
    | [] -> 300.0
    | x :: rest ->
      steps := rest;
      x
  in
  let c = Clock.create ~source () in
  let t1 = Clock.now_us c in
  let t2 = Clock.now_us c in
  check Alcotest.bool "advances" true (t2 > t1);
  let t3 = Clock.now_us c in
  check Alcotest.int "backwards step clamps to the last reading" t2 t3;
  check Alcotest.int "still clamped" t2 (Clock.now_us c);
  check Alcotest.bool "resumes once the source catches up" true (Clock.now_us c > t2);
  check Alcotest.bool "elapsed never negative" true
    (Clock.elapsed_us c ~since:max_int >= 0)

let test_engine_wall_us_nonnegative () =
  (* a source that jumps far backwards mid-computation *)
  let calls = ref 0 in
  let source () =
    incr calls;
    if !calls = 1 then 1000.0 else 1.0
  in
  let e = Engine.create ~clock:(Clock.create ~source ()) () in
  ignore (Engine.submit e (req ~id:"1" (job_of_test (List.hd Cat.all))));
  match Engine.drain e with
  | [ { Engine.reply = Engine.Result { wall_us; _ }; _ } ] ->
    check Alcotest.bool "wall_us clamped >= 0" true (wall_us >= 0)
  | _ -> Alcotest.fail "expected one response"

(* Response-count conservation: work the engine held from outside the
   batch surfaces as an error-tagged orphan row instead of being
   silently dropped, and every batch slot still gets its own row.  An
   error row echoes the request's own id and client; only a line that
   is not a JSON object falls back to its line number. *)
let test_batch_conservation () =
  let e = Engine.create () in
  let tests = Array.of_list Cat.all in
  ignore (Engine.submit e (req ~id:"outsider" (job_of_test tests.(5))));
  let lines =
    [
      {|{"id":"a","kind":"litmus","test":"MP","trials":6,"seed":42}|};
      "";
      {|{"id":"b","kind":"litmus","test":"SB","trials":6,"seed":42}|};
      {|{"id":"c","client":"carol","kind":"litmus","test":"MP","trials":-3}|};
      {|{"kind":|};
    ]
  in
  let b = Serve.run_batch e ~lines in
  check Alcotest.int "4 slots + 1 orphan" 5 (List.length b.Serve.responses);
  let is_error (r : Engine.response) =
    match r.Engine.reply with Engine.Error _ -> true | _ -> false
  in
  (match b.Serve.responses with
  | [ ra; rb; rc; rbad; orphan ] ->
    check Alcotest.string "slot order" "a" ra.Engine.id;
    check Alcotest.string "slot order" "b" rb.Engine.id;
    check Alcotest.bool "invalid request is an error row" true (is_error rc);
    check Alcotest.string "error row echoes the request id" "c" rc.Engine.id;
    check Alcotest.string "error row echoes the client" "carol" rc.Engine.client;
    check Alcotest.bool "non-JSON line is an error row" true (is_error rbad);
    check Alcotest.string "non-JSON line keyed by line number" "5" rbad.Engine.id;
    check Alcotest.string "orphan keeps its id" "outsider" orphan.Engine.id;
    (match orphan.Engine.reply with
    | Engine.Error m ->
      check Alcotest.bool "orphan tagged" true
        (String.length m >= 8 && String.sub m 0 8 = "orphaned")
    | _ -> Alcotest.fail "orphan must be an error row")
  | _ -> Alcotest.fail "unexpected batch shape");
  (* an engine that starts empty conserves exactly *)
  let b2 = Serve.run_batch (Engine.create ()) ~lines in
  check Alcotest.int "fresh engine: one row per non-blank line" 4
    (List.length b2.Serve.responses)

(* ---------- JSON grammar ---------- *)

let test_json_number_grammar () =
  let ok what s expected =
    match Json.of_string s with
    | Ok j -> check Alcotest.string what expected (Json.to_string j)
    | Error e -> Alcotest.fail (what ^ ": " ^ e)
  in
  let bad what s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (what ^ " must be rejected")
    | Error _ -> ()
  in
  ok "zero" "0" "0";
  ok "negative zero" "-0" "0";
  ok "int" "-127" "-127";
  ok "fraction" "0.5" "0.5";
  ok "exponent" "1e2" "100.0";
  ok "signed exponent" "1.5E+2" "150.0";
  ok "big magnitude falls back to float" "123456789123456789123456789"
    "1.23457e+26";
  bad "leading plus" "+5";
  bad "leading zero" "01";
  bad "hex" "0x10";
  bad "underscores" "1_000";
  bad "bare dot" "5.";
  bad "leading dot" ".5";
  bad "dangling exponent" "1e";
  bad "double minus" "--1";
  bad "minus alone" "-";
  bad "inf" "inf";
  bad "nan" "nan"

let test_json_surrogate_pairs () =
  (* escape pairs assembled by concatenation so the pair only exists in
     the parsed JSON, never in this source file's encoding *)
  (match Json.of_string ({|"\ud83d|} ^ {|\ude00"|}) with
  | Ok (Json.Str s) ->
    check Alcotest.string "surrogate pair combines into one code point"
      "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e);
  (match Json.of_string ({|"\ud834|} ^ {|\udd1e"|}) with
  | Ok (Json.Str s) ->
    check Alcotest.string "U+1D11E" "\xf0\x9d\x84\x9e" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e);
  let bad what s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (what ^ " must be rejected")
    | Error _ -> ()
  in
  bad "lone high surrogate" {|"\ud83d"|};
  bad "lone low surrogate" {|"\ude00"|};
  bad "high followed by non-surrogate" {|"\ud83dA"|};
  bad "high at end of escape run" {|"\ud83dx"|};
  (* basic-plane escapes still decode *)
  match Json.of_string "\"\\u00e9\"" with
  | Ok (Json.Str s) -> check Alcotest.string "BMP escape" "\xc3\xa9" s
  | _ -> Alcotest.fail "BMP escape must decode"

(* Printable round-trip property over random JSON trees (floats
   excluded: their %.6g rendering is lossy by design; the next property
   pins how lossy). *)
let prop_json_roundtrip =
  let open QCheck in
  let leaf =
    Gen.oneof
      [
        Gen.return Json.Null;
        Gen.map (fun b -> Json.Bool b) Gen.bool;
        Gen.map (fun i -> Json.Int i) Gen.int;
        Gen.map (fun s -> Json.Str s) Gen.string_printable;
      ]
  in
  let tree =
    Gen.sized (fun n ->
        Gen.fix
          (fun self n ->
            if n <= 1 then leaf
            else
              Gen.oneof
                [
                  leaf;
                  Gen.map (fun xs -> Json.List xs)
                    (Gen.list_size (Gen.int_bound 4) (self (n / 2)));
                  Gen.map (fun kvs -> Json.Obj kvs)
                    (Gen.list_size (Gen.int_bound 4)
                       (Gen.pair Gen.string_printable (self (n / 2))));
                ])
          n)
  in
  Test.make ~name:"to_string/of_string round trip" ~count:200 (make tree)
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> Json.to_string j = Json.to_string j'
      | Error _ -> false)

(* The float contract the reports rely on: a finite float reads back
   within a relative 1e-5, an integral one below 1e15 exactly, and nan
   and the infinities print as null. *)
let prop_json_float_contract =
  let open QCheck in
  let gen =
    Gen.oneof
      [
        Gen.float;
        Gen.map Float.round (Gen.float_range (-1e15) 1e15);
        Gen.map (fun f -> Float.round (f *. 100.) /. 100.) (Gen.float_range 0. 1e4);
        Gen.oneofl [ nan; infinity; neg_infinity; 0.; -0.; 1e15; 0.1 ];
      ]
  in
  Test.make ~name:"float print/parse contract" ~count:1000 (make ~print:string_of_float gen)
    (fun f ->
      let text = Json.to_string (Json.Float f) in
      if not (Float.is_finite f) then text = "null"
      else
        match Option.bind (Result.to_option (Json.of_string text)) Json.number with
        | None -> false
        | Some g ->
          if Float.is_integer f && Float.abs f < 1e15 then g = f
          else Float.abs (g -. f) <= 1e-5 *. Float.abs f)

let () =
  Alcotest.run "service"
    [
      ( "keys",
        [
          Alcotest.test_case "catalogue renaming invariance" `Quick
            test_key_rename_invariant;
          Alcotest.test_case "init presentation invariance" `Quick
            test_key_init_presentation;
          Alcotest.test_case "catalogue keys distinct" `Quick
            test_key_catalogue_distinct;
          QCheck_alcotest.to_alcotest prop_fuzz_keys;
          Alcotest.test_case "run coordinates keyed" `Quick test_job_key_coordinates;
        ] );
      ( "cache",
        [ Alcotest.test_case "LRU eviction and recency" `Quick test_cache_lru ] );
      ( "engine",
        [
          Alcotest.test_case "coalescing then hit" `Quick test_coalescing;
          Alcotest.test_case "no-cache disables memo and coalescing" `Quick
            test_no_cache_disables_both;
          Alcotest.test_case "load shedding" `Quick test_shedding;
          Alcotest.test_case "priority order" `Quick test_priority_order;
          Alcotest.test_case "fair share across clients" `Quick test_fair_share;
          Alcotest.test_case "invalid spec errors" `Quick test_error_reply;
          Alcotest.test_case "lane churn bounded, drained lanes retire" `Quick
            test_lane_churn;
          Alcotest.test_case "hot-key coalescing order at scale" `Quick
            test_coalesce_order_large;
          Alcotest.test_case "clock clamps backwards steps" `Quick
            test_clock_monotonic;
          Alcotest.test_case "wall_us non-negative under clock rollback" `Quick
            test_engine_wall_us_nonnegative;
          Alcotest.test_case "batch response-count conservation" `Quick
            test_batch_conservation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "golden workloads cold and warm" `Quick
            test_golden_cold_and_warm;
          Alcotest.test_case "compare_cold identical" `Quick
            test_compare_cold_identical;
        ] );
      ( "codec",
        [
          Alcotest.test_case "request round trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "request errors" `Quick test_codec_errors;
          Alcotest.test_case "response line parses" `Quick test_response_line_parses;
          Alcotest.test_case "json parser" `Quick test_json_parser;
          Alcotest.test_case "json number grammar" `Quick test_json_number_grammar;
          Alcotest.test_case "json surrogate pairs" `Quick test_json_surrogate_pairs;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_float_contract;
          Alcotest.test_case "run_config kv round trip" `Quick test_run_config_kv;
        ] );
    ]
