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

(* A litmus job with the wire's defaults. *)
let litmus ?(cfg = P.kunpeng916) ?(seed = 42) ?(trials = 40) ?(fault = 0.0) test =
  Job.Litmus { test; cfg; seed; trials; fault }

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

(* A catalogue test's text comes from the table built when [Key] is
   initialised; a physically distinct copy is canonicalised afresh, and
   both write the reference keying's bytes. *)
let test_key_catalogue_table () =
  List.iter
    (fun (t : Lang.test) ->
      let copy = { t with Lang.name = t.Lang.name } in
      check Alcotest.bool (t.Lang.name ^ ": the copy is another value") false (copy == t);
      let want = Key_reference.canonical_test t in
      check Alcotest.string (t.Lang.name ^ ": the table's text") want (Key.canonical_test t);
      check Alcotest.string (t.Lang.name ^ ": a copy's text") want (Key.canonical_test copy))
    Cat.all

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

(* The one-pass keying writes the same bytes as the reference keying
   it replaced (key_reference.ml) on the catalogue, on every test and
   program a soak stream carries, on fuzzed tests with and without ISB
   and their renamed variants, and on fuzzed CFG programs; every job of
   the stream, and jobs with awkward float coordinates, get the same
   [Job.key]. *)
let test_key_reference () =
  let same_test what (t : Lang.test) =
    let want = Key_reference.canonical_test t in
    if Key.canonical_test t <> want then
      Alcotest.failf "%s %s: canonical_test differs from the reference:\n%s" what t.Lang.name
        want
  in
  let same_program what (p : Armb_litmus.Cfg.program) =
    let want = Key_reference.canonical_program p in
    if Key.canonical_program p <> want then
      Alcotest.failf "%s %s: canonical_program differs from the reference:\n%s" what
        p.Armb_litmus.Cfg.name want
  in
  List.iter (same_test "catalogue") Cat.all;
  (* shapes no generator draws: no threads, a fence-only thread,
     repeated and init-only bindings tied on value, extreme constants,
     a register read before its load, a load that waits on itself (no
     final state) *)
  let edge name init threads =
    { (List.hd Cat.all) with Lang.name; init; threads; interesting = (fun _ -> false) }
  in
  List.iter (same_test "edge")
    [
      edge "empty" [] [];
      edge "fences" [ ("x", 1L) ] [ [ Lang.fence Lang.F_dsb ]; [] ];
      edge "init-only" [ ("b", 2L); ("a", 2L); ("c", -1L); ("a", 5L) ] [ [ Lang.st "y" 1L ] ];
      edge "extremes" [ ("x", Int64.min_int) ]
        [ [ Lang.st "x" Int64.max_int; Lang.ld "x" "r" ]; [ Lang.st "y" (-4611686018427387905L) ] ];
      edge "read before load" [] [ [ Lang.st_reg "x" "r"; Lang.ld "x" "r" ] ];
      edge "self-dependent" [] [ [ Lang.ld ~addr_dep:"r" "x" "r" ] ];
    ];
  let streamed = ref 0 in
  List.iter
    (fun (j : Gen.job) ->
      match Codec.request_of_line j.Gen.line with
      | Error _ -> ()
      | Ok req -> (
        incr streamed;
        check Alcotest.string (j.Gen.id ^ " job key")
          (Key_reference.job_key req.Engine.job)
          (Job.key req.Engine.job);
        match req.Engine.job with
        | Job.Litmus { test = t; _ }
        | Job.Check { test = t; _ }
        | Job.Fix { test = t; _ }
        | Job.Perturb { test = t; _ } ->
          same_test "stream" t
        | Job.Opt { program; _ } -> same_program "stream" program
        | Job.Model _ | Job.Ring _ | Job.Fuzz _ -> ()))
    (Gen.stream ~pool:54 ~requests:2000 ~seed:5 ());
  check Alcotest.int "stream requests decoded" 2000 !streamed;
  List.iter
    (fun with_isb ->
      let rng = Rng.create (if with_isb then 77 else 76) in
      for _ = 1 to 1000 do
        let t = Fuzz.generate ~with_isb rng in
        same_test "fuzz" t;
        same_test "renamed" (rename_test t)
      done)
    [ false; true ];
  List.iter
    (fun with_loop ->
      let rng = Rng.create (if with_loop then 79 else 78) in
      for _ = 1 to 100 do
        same_program "fuzz cfg" (Fuzz.generate_cfg ~with_loop rng)
      done)
    [ false; true ];
  let floats = [ 0.0; -0.0; 1.0 /. 128.0; 0.1; 0.0000005; 1e-7; 0.999_999_5; 1.0; 3e9 ] in
  let same what (job : Job.t) =
    check Alcotest.string what (Key_reference.job_key job) (Job.key job)
  in
  List.iter
    (fun fault -> same (Printf.sprintf "litmus at fault %h" fault) (litmus ~fault Cat.mp))
    floats;
  (* a perturb job keys no fault; its floats reach the key as intensities *)
  same "perturb intensities"
    (Job.Perturb
       {
         test = Cat.sb;
         intensities = floats;
         plan_seeds = [ 3; -1; 0 ];
         cfg = P.kunpeng916;
         seed = 7;
         trials = 40;
       })

let test_job_key_coordinates () =
  let t = List.hd Cat.all in
  let key = Job.key (litmus t) in
  let distinct name j =
    check Alcotest.bool (name ^ " changes the key") false (Job.key j = key)
  in
  distinct "kind"
    (Job.Check { test = t; cfg = P.kunpeng916; seed = 42; trials = 40; fault = 0.0 });
  distinct "seed" (litmus ~seed:43 t);
  distinct "trials" (litmus ~trials:41 t);
  distinct "fault plan" (litmus ~fault:0.5 t);
  distinct "platform" (litmus ~cfg:P.kirin970 t);
  (* ...but a renamed test is the same job *)
  check Alcotest.string "renamed test, same key" key (Job.key (litmus (rename_test t)))

(* Per kind: a request that changes one run setting to another valid
   value keys as the base request exactly when the kind's record lacks
   that setting, and then runs to the same text.  Model and opt jobs
   keep a seed they do not read (Job.mli). *)
let test_key_per_kind () =
  let variants =
    [
      ("platform", {|"kirin960"|});
      ("cores", "[1,2]");
      ("seed", "5");
      ("trials", "3");
      ("fault", "0.5");
    ]
  in
  let job params settings =
    let line =
      "{"
      ^ String.concat "," (params :: List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) settings)
      ^ "}"
    in
    match Codec.request_of_line line with
    | Ok r -> (line, r.Engine.job)
    | Error e -> Alcotest.failf "%s: %s" line e
  in
  List.iter
    (fun (params, kept) ->
      let base_settings = [ ("trials", "2") ] in
      let _, base = job params base_settings in
      let base_text = lazy (Job.run base).Job.text in
      List.iter
        (fun (setting, value) ->
          let line, j = job params ((setting, value) :: List.remove_assoc setting base_settings) in
          let same = String.equal (Job.key j) (Job.key base) in
          if same = List.mem setting kept then
            Alcotest.failf "%s: the key %s" line
              (if same then "ignores a setting the job keeps" else "holds a setting the job lacks");
          if same then
            check Alcotest.string (line ^ " runs as the base") (Lazy.force base_text)
              (Job.run j).Job.text)
        variants)
    [
      ({|"kind":"litmus","test":"MP"|}, [ "platform"; "seed"; "trials"; "fault" ]);
      ({|"kind":"check","test":"MP"|}, [ "platform"; "seed"; "trials"; "fault" ]);
      ({|"kind":"fuzz","tests":2|}, [ "platform"; "seed"; "trials"; "fault" ]);
      ({|"kind":"perturb","test":"SB"|}, [ "platform"; "seed"; "trials" ]);
      ({|"kind":"fix","test":"SB","max_edits":2,"budget":300|}, [ "seed"; "trials" ]);
      ( {|"kind":"ring","combo":"DMB full - DMB full","messages":50|},
        [ "platform"; "cores"; "seed"; "fault" ] );
      ( {|"kind":"model","mem_ops":"st-st","approach":"dmb","nops":10,"iters":50|},
        [ "platform"; "cores"; "seed" ] );
      ({|"kind":"opt","program":"MP+overfenced"|}, [ "seed" ]);
    ]

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

let job_of_test ?(trials = 6) (t : Lang.test) = litmus ~trials t

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

(* An inline test with MP's body is keyed by what it computes, not by
   name: with MP's own predicate it gets the catalogue test's key and
   coalesces onto it; with another predicate it gets another key. *)
let test_inline_catalogue_copy () =
  let decode line =
    match Codec.request_of_line line with
    | Ok r -> r
    | Error m -> Alcotest.failf "%s does not decode: %s" line m
  in
  let inline ~id conds =
    decode
      (Printf.sprintf {|{"id":"%s","kind":"litmus","trials":6,"test_inline":%s}|} id
         (Json.to_string
            (Codec.test_inline_to_json ~interesting_when:conds { Cat.mp with Lang.name = "my-MP" })))
  in
  let named = decode {|{"id":"named","kind":"litmus","trials":6,"test":"MP"}|} in
  let same = inline ~id:"same" [ ("1:r1", 1L); ("1:r2", 0L) ] in
  let other = inline ~id:"other" [ ("1:r1", 1L); ("1:r2", 23L) ] in
  let key (r : Engine.request) = Job.key r.Engine.job in
  check Alcotest.string "MP's own predicate: MP's key" (key named) (key same);
  check Alcotest.bool "another predicate: another key" false (key named = key other);
  let e = Engine.create () in
  List.iter
    (fun r ->
      match Engine.submit e r with
      | None -> ()
      | Some _ -> Alcotest.failf "%s should queue" r.Engine.id)
    [ named; same; other ];
  check
    Alcotest.(list (pair string bool))
    "the inline copy coalesces, the other predicate computes"
    [ ("named", false); ("same", true); ("other", false) ]
    (List.map (fun (id, o) -> (id, o = Engine.Coalesced)) (origins (Engine.drain e)))

(* The codec accepts several spellings of each opt algorithm; they all
   name one computation, so they share one key and one cold run. *)
let test_opt_algorithm_spellings () =
  let spellings = [ "linear-scan"; "linear"; "LINEAR_SCAN" ] in
  let line a =
    Printf.sprintf {|{"id":"%s","kind":"opt","program":"MP+overfenced","algorithm":"%s"}|} a a
  in
  let key a =
    match Codec.request_of_line (line a) with
    | Ok r -> Job.key r.Engine.job
    | Error m -> Alcotest.failf "%s does not decode: %s" a m
  in
  List.iter
    (fun a -> check Alcotest.string (a ^ "'s key") (key "linear-scan") (key a))
    spellings;
  let e = Engine.create () in
  let b = Serve.run_batch e ~lines:(List.map line spellings) in
  check
    Alcotest.(list (pair string bool))
    "one cold computation, the others coalesce onto it"
    [ ("linear-scan", true); ("linear", false); ("LINEAR_SCAN", false) ]
    (List.map (fun (id, o) -> (id, o = Engine.Cold)) (origins b.Serve.responses));
  check Alcotest.int "one miss" 1 (Metrics.get (Engine.metrics e) "misses")

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
  let bad =
    Job.Ring
      {
        combo = "no such combo";
        messages = 10;
        cfg = P.kunpeng916;
        cores = RC.default_cores P.kunpeng916;
        seed = 42;
        fault = 0.0;
      }
  in
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
  (* a fix job's search limits, a model job's counts and combination,
     a ring job's message count and a fuzz job's test count are checked
     when the job is keyed *)
  let decode line =
    match Codec.request_of_line line with
    | Ok r -> r.Engine.job
    | Error msg -> Alcotest.failf "%s does not decode: %s" line msg
  in
  let five_threads =
    Json.to_string
      (Codec.test_inline_to_json ~interesting_when:[]
         {
           Cat.mp with
           Lang.name = "five";
           threads = Cat.mp.Lang.threads @ List.init 3 (fun _ -> [ Lang.ld "data" "r1" ]);
         })
  in
  (* four threads fit raspberrypi4, so IRIW keys there, fix included *)
  List.iter
    (fun kind ->
      ignore
        (Job.key
           (decode
              (Printf.sprintf {|{"kind":"%s","test":"IRIW+addrs","platform":"raspberrypi4"}|}
                 kind))))
    [ "litmus"; "check"; "perturb"; "fix" ];
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
        ("17", {|{"kind":"fuzz","tests":-5}|}, "Job: tests must be at least 0 (got -5)");
      ]
    (* a test with more threads than the platform has cores: the
       request's platform, or for fix every platform it is costed on *)
    @ List.map
        (fun (id, kind, platform, says) ->
          ( id,
            decode
              (Printf.sprintf {|{"kind":"%s","platform":"%s","trials":5,"test_inline":%s}|} kind
                 platform five_threads),
            says ))
        [
          ("13", "litmus", "raspberrypi4", "the test has 5 threads but raspberrypi4 has 4 cores");
          ("14", "check", "raspberrypi4", "the test has 5 threads but raspberrypi4 has 4 cores");
          ("15", "perturb", "raspberrypi4", "the test has 5 threads but raspberrypi4 has 4 cores");
          ( "16",
            "fix",
            "kunpeng916",
            "the test has 5 threads but raspberrypi4 has 4 cores (a fix is costed on every \
             platform)" );
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
    Job.Check { test; cfg = P.kunpeng916; seed = 42; trials = 40; fault = 0.0 }
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
  check Alcotest.int "failures counted" 17 (Metrics.get (Engine.metrics e) "failed")

(* ---------- warm-vs-cold bit-identity on the golden workloads ---------- *)

(* One job per golden workload family, with the result text computed
   directly against the underlying engines — the same renderings the
   golden-digest suite pins. *)
let golden_jobs () =
  let t = List.find (fun (t : Lang.test) -> t.Lang.name = "MP") Cat.all in
  let cfg = P.kunpeng916 and cores = RC.default_cores P.kunpeng916 in
  let litmus_direct =
    let r = Sim.run ~trials:40 ~seed:42 t in
    Printf.sprintf "%s witnessed=%b\n" t.Lang.name r.Sim.interesting_witnessed
    ^ String.concat ""
        (List.map (fun (o, k) -> Printf.sprintf "  %d %s\n" k o) r.Sim.outcomes)
  in
  let check_direct =
    let base, stripped = Sim.check_test ~cfg ~trials:12 t in
    Format.asprintf "%a\n" Sim.pp_check_row (Sim.check_row_of t ~base ~stripped)
  in
  let ring_direct =
    let spec =
      {
        (Armb_sync.Spsc_ring.default_spec cfg ~cores) with
        Armb_sync.Spsc_ring.messages = 200;
        barriers = Armb_sync.Spsc_ring.combo "DMB ld - DMB st";
      }
    in
    let r = Armb_sync.Spsc_ring.verified_run spec in
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
        (AM.default_spec cfg) with
        AM.cores;
        mem_ops = AM.Store_store;
        approach = Ordering.Bar (Barrier.Dmb Full);
        location = AM.Loc1;
        nops = 100;
        iters = 300;
      }
    in
    Printf.sprintf "st-st DMB full (%d,%d) nops=100 cycles=%d\n"
      (fst cores) (snd cores) (fst (AM.run_stats spec))
  in
  [
    ( "model",
      Job.Model
        {
          mem_ops = AM.Store_store;
          approach = Ordering.Bar (Barrier.Dmb Full);
          location = AM.Loc1;
          nops = 100;
          iters = 300;
          cfg;
          cores;
          seed = 42;
        },
      model_direct );
    ("litmus", litmus t, litmus_direct);
    ( "check",
      Job.Check { test = t; cfg; seed = 42; trials = 12; fault = 0.0 },
      check_direct );
    ( "ring",
      Job.Ring
        { combo = "DMB ld - DMB st"; messages = 200; cfg; cores; seed = 42; fault = 0.0 },
      ring_direct );
    ("fuzz", Job.Fuzz { tests = 5; cfg; seed = 42; trials = 40; fault = 0.0 }, fuzz_direct);
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

(* A fuzz job runs its trials on the request's platform: its text is
   the direct fuzz round on that platform, not the default one's. *)
let test_fuzz_job_platform () =
  let line = {|{"kind":"fuzz","tests":8,"seed":1234,"platform":"kirin960"}|} in
  match Codec.request_of_line line with
  | Error e -> Alcotest.fail e
  | Ok req ->
    let direct cfg =
      Format.asprintf "%a@." Fuzz.pp_report
        (Fuzz.run ~cfg ~tests:8 ~trials_per_test:40 ~seed:1234 ())
    in
    let text = (Job.run req.Engine.job).Job.text in
    check Alcotest.string "kirin960 fuzz round" (direct P.kirin960) text;
    check Alcotest.bool "differs from kunpeng916's" false
      (String.equal (direct P.kunpeng916) text)

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
    match r.Engine.job with
    | Job.Litmus { test; cfg; seed; trials; fault } ->
      check Alcotest.string "case-insensitive test lookup" "SB" test.Lang.name;
      check Alcotest.int "trials" 9 trials;
      check Alcotest.int "seed" 3 seed;
      check Alcotest.string "platform" "kirin970" cfg.Armb_cpu.Config.name;
      check (Alcotest.float 1e-9) "fault" 0.25 fault
    | _ -> Alcotest.fail "wrong kind"

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
      ~mentions:(Printf.sprintf {|"cores" is not [A,B] or "A,B" (got %s)|} v)
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
  bad "not json" {|{"kind":|};
  (* an inline input the engines would read one way and its key another *)
  let twice = {|"x" more than once|} in
  let test_init init =
    Printf.sprintf
      {|{"kind":"litmus","test_inline":{"name":"t","init":%s,"threads":[[{"op":"st","var":"y","const":1}],[{"op":"ld","var":"x","reg":"r1"}]]}}|}
      init
  in
  let program_init init =
    Printf.sprintf
      {|{"kind":"opt","program":{"name":"p","init":%s,"threads":[{"entry":"a","blocks":[{"label":"a","body":[{"op":"ld","var":"x","reg":"r1"}]}]}]}}|}
      init
  in
  bad ~mentions:twice "test init x 0 then 5" (test_init {|[["x",0],["x",5]]|});
  bad ~mentions:twice "test init x 5 then 0" (test_init {|[["x",5],["x",0]]|});
  bad ~mentions:twice "program init x 0 then 5" (program_init {|[["x",0],["x",5]]|});
  bad ~mentions:twice "program init x 5 then 0" (program_init {|[["x",5],["x",0]]|});
  (* a condition on a name the test never binds would read 0 *)
  let sb_when conds =
    Printf.sprintf
      {|{"kind":"fix","test_inline":{"name":"sb","threads":[[{"op":"st","var":"x","const":1},{"op":"ld","var":"y","reg":"r1"}],[{"op":"st","var":"y","const":1},{"op":"ld","var":"x","reg":"r1"}]],"interesting_when":%s}}|}
      conds
  in
  let binds = "it binds 0:r1, 1:r1, mem:x, mem:y" in
  bad
    ~mentions:({|"interesting_when" names "0:r9", which the test does not bind; |} ^ binds)
    "unknown register" (sb_when {|[["0:r9",0]]|});
  bad
    ~mentions:({|"interesting_when" names "mem:zz", which the test does not bind; |} ^ binds)
    "unknown variable" (sb_when {|[["0:r1",0],["mem:zz",5]]|});
  bad ~mentions:{|"interesting_when" names "2:r1"|} "unknown thread" (sb_when {|[["2:r1",0]]|})

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

(* The bytes of a line's "result" value: everything after its key up to
   the closing brace.  An escaped string holds no bare quote, so the key
   cannot match inside the id, client or key before it. *)
let result_bytes line =
  let key = {|,"result":|} in
  let n = String.length key in
  let rec find i =
    if i + n > String.length line then Alcotest.fail ("no result in " ^ line)
    else if String.sub line i n = key then i + n
    else find (i + 1)
  in
  let start = find 0 in
  String.sub line start (String.length line - start - 1)

(* One job's cold reply, a waiter coalesced onto it and its hits all
   carry the result text escaped once: the same bytes, equal to the
   reference printer's, shared by every reply of one computation and by
   every hit on one cache entry.  That holds again once the entry has
   been evicted and the job recomputed. *)
let test_escaped_once () =
  let e = Engine.create ~cache_cap:1 () in
  let job = job_of_test Cat.mp and other = job_of_test Cat.sb in
  let want = Json.to_string (Json.Str (Job.run job).Job.text) in
  check Alcotest.bool "the text has bytes to escape" true (String.contains want '\\');
  let escaped what (r : Engine.response) =
    check Alcotest.string "the reply answers its request" what r.Engine.id;
    match r.Engine.reply with
    | Engine.Result { escaped; _ } ->
      check Alcotest.string (what ^ ": escaped text") want escaped;
      check Alcotest.string (what ^ ": line's result bytes") want
        (result_bytes (Codec.response_to_line r));
      escaped
    | _ -> Alcotest.fail (what ^ ": expected an ok reply")
  in
  let hit id =
    match Engine.submit e (req ~id job) with
    | Some ({ Engine.reply = Engine.Result { origin = Engine.Hit; _ }; _ } as r) ->
      escaped id r
    | _ -> Alcotest.fail (id ^ ": expected a hit")
  in
  let computed ids =
    List.iter (fun id -> ignore (Engine.submit e (req ~id job) : Engine.response option)) ids;
    List.map2 escaped ids (Engine.drain e)
  in
  (match computed [ "cold"; "waiter" ] with
  | [ cold; waiter ] ->
    check Alcotest.bool "one escape per computation" true (cold == waiter)
  | _ -> Alcotest.fail "expected two replies");
  let h1 = hit "hit-1" in
  check Alcotest.bool "one escape per cache entry" true (h1 == hit "hit-2");
  (* a second job evicts the first from the one-entry cache *)
  ignore (Engine.submit e (req ~id:"other" other) : Engine.response option);
  ignore (Engine.drain e : Engine.response list);
  ignore (computed [ "recomputed" ] : string list);
  let h2 = hit "hit-after-eviction" in
  check Alcotest.bool "the new entry escapes again" true (h2 == hit "hit-after-eviction-2")

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

(* Every field the codec reads, given a value of the wrong type, is an
   error naming that field, never read as absent.  The three 1e300
   values are integral floats outside the int range. *)
let test_codec_wrong_types () =
  let litmus = {|"kind":"litmus","test":"SB"|} in
  let inline fields = Printf.sprintf {|"kind":"litmus","test_inline":{%s}|} fields in
  let thread = {|"threads":[[{"op":"st","var":"x","const":1}]]|} in
  let instr i = inline (Printf.sprintf {|"name":"t","threads":[[%s]]|} i) in
  let program fields = Printf.sprintf {|"kind":"opt","program":{%s}|} fields in
  let entry blocks = Printf.sprintf {|"name":"p","threads":[{"entry":"a","blocks":%s}]|} blocks in
  let block b = program (entry (Printf.sprintf "[%s]" b)) in
  let cases =
    [
      ("id", litmus ^ {|,"id":true|});
      ("client", litmus ^ {|,"client":7|});
      ("priority", litmus ^ {|,"priority":1|});
      ("kind", {|"kind":5|});
      ("platform", litmus ^ {|,"platform":3|});
      ("cores", litmus ^ {|,"cores":true|});
      ("seed", litmus ^ {|,"seed":"seven"|});
      ("seed", litmus ^ {|,"seed":1e300|});
      ("trials", litmus ^ {|,"trials":"5"|});
      ("trials", litmus ^ {|,"trials":5.5|});
      ("fault", litmus ^ {|,"fault":"x"|});
      ("test", {|"kind":"check","test":5|});
      ("test_inline", {|"kind":"litmus","test_inline":"MP"|});
      ("max_edits", {|"kind":"fix","test":"MP","max_edits":"3"|});
      ("budget", {|"kind":"fix","test":"MP","budget":1.5|});
      ("mem_ops", {|"kind":"model","mem_ops":5,"approach":"dmb"|});
      ("approach", {|"kind":"model","mem_ops":"st-st","approach":5|});
      ("location", {|"kind":"model","mem_ops":"st-st","approach":"dmb","location":"1"|});
      ("nops", {|"kind":"model","mem_ops":"st-st","approach":"dmb","nops":"x"|});
      ("iters", {|"kind":"model","mem_ops":"st-st","approach":"dmb","iters":true|});
      ("combo", {|"kind":"ring","combo":5|});
      ("messages", {|"kind":"ring","combo":"DMB ld - DMB st","messages":"5"|});
      ("tests", {|"kind":"fuzz","tests":"x"|});
      ("tests", {|"kind":"fuzz","tests":1e300|});
      ("intensities", {|"kind":"perturb","test":"SB","intensities":3|});
      ("plan_seeds", {|"kind":"perturb","test":"SB","plan_seeds":[1.5]|});
      ("plan_seeds", {|"kind":"perturb","test":"SB","plan_seeds":[1e300]|});
      ("program", {|"kind":"opt","program":5|});
      ("algorithm", {|"kind":"opt","program":"MP","algorithm":5|});
      ("unroll", {|"kind":"opt","program":"MP","unroll":"2"|});
      ("name", inline ({|"name":5,|} ^ thread));
      ("description", inline ({|"name":"t","description":5,|} ^ thread));
      ("init", inline ({|"name":"t","init":[["x","a"]],|} ^ thread));
      ("threads", inline {|"name":"t","threads":5|});
      ("interesting_when", inline ({|"name":"t","interesting_when":"x",|} ^ thread));
      ("expect_tso", inline ({|"name":"t","expect_tso":"yes",|} ^ thread));
      ("expect_wmm", inline ({|"name":"t","expect_wmm":0,|} ^ thread));
      ("op", instr {|{"op":5}|});
      ("var", instr {|{"op":"ld","var":5,"reg":"r1"}|});
      ("reg", instr {|{"op":"ld","var":"x","reg":5}|});
      ("acquire", instr {|{"op":"ld","var":"x","reg":"r1","acquire":1}|});
      ("addr_dep", instr {|{"op":"ld","var":"x","reg":"r1","addr_dep":5}|});
      ("const", instr {|{"op":"st","var":"x","const":"1"}|});
      ("from_reg", instr {|{"op":"st","var":"x","from_reg":5}|});
      ("release", instr {|{"op":"st","var":"x","const":1,"release":"y"}|});
      ("addr_dep", instr {|{"op":"st","var":"x","const":1,"addr_dep":5}|});
      ("fence", instr {|{"op":"fence","fence":5}|});
      ("description", program (entry {|[{"label":"a","body":[]}]|} ^ {|,"description":5|}));
      ("entry", program {|"name":"p","threads":[{"entry":5,"blocks":[]}]|});
      ("blocks", program (entry "5"));
      ("label", block {|{"label":5,"body":[]}|});
      ("body", block {|{"label":"a","body":5}|});
      ("term", block {|{"label":"a","body":[],"term":5}|});
    ]
  in
  List.iter
    (fun (k, fields) ->
      let line = "{" ^ fields ^ "}" in
      match Codec.request_of_line line with
      | Ok _ -> Alcotest.failf "%s: accepted" line
      | Error m ->
        if not (contains m (Printf.sprintf "%S" k)) then
          Alcotest.failf "%s: error %S does not name %S" line m k)
    cases

(* A platform given without cores runs on that platform's default pair;
   explicit cores, in either spelling, are kept.  A model job keeps its
   platform, cores and seed; a litmus job its trials. *)
let test_platform_cores () =
  let decode line =
    match Codec.request_of_line line with
    | Ok r -> r.Engine.job
    | Error e -> Alcotest.failf "%s: %s" line e
  in
  let model fields =
    match decode ({|{"kind":"model","mem_ops":"st-st","approach":"dmb"|} ^ fields ^ "}") with
    | Job.Model { cfg; cores; seed; _ } -> (cfg, cores, seed)
    | _ -> Alcotest.fail "not a model job"
  in
  let cores fields =
    let _, cores, _ = model fields in
    cores
  in
  let pair = Alcotest.(pair int int) in
  let cfg, wire_cores, seed = model "" in
  check Alcotest.string "wire platform" "kunpeng916" cfg.Armb_cpu.Config.name;
  check Alcotest.int "wire seed" 42 seed;
  (match decode {|{"kind":"litmus","test":"SB"}|} with
  | Job.Litmus { trials; _ } -> check Alcotest.int "wire trials" 40 trials
  | _ -> Alcotest.fail "not a litmus job");
  check pair "wire cores" (RC.default_cores P.kunpeng916) wire_cores;
  check pair "platform without cores" (RC.default_cores P.raspberrypi4)
    (cores {|,"platform":"raspberrypi4"|});
  check pair "explicit cores kept" (1, 5) (cores {|,"platform":"kirin960","cores":[1,5]|});
  check pair "string cores kept" (1, 5) (cores {|,"platform":"kirin960","cores":" 1, 5"|})

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

(* Latency percentiles against the exact nearest-rank order statistics
   of a known sample: ~200 us computations with a tail past 4 ms.  Each
   must read at or at most 1/16 above the exact value. *)
let test_latency_percentiles () =
  let m = Metrics.create () in
  let rng = Rng.create 11 in
  let sample =
    Array.init 1000 (fun i ->
        if i mod 20 = 0 then 4_000 + Rng.int rng 8_000 else 150 + Rng.int rng 110)
  in
  Array.iter (Metrics.record_latency_us m) sample;
  let sorted = Array.copy sample in
  Array.sort Int.compare sorted;
  let exact q = sorted.(int_of_float (ceil (q *. 1000.)) - 1) in
  let p50, p99 = Metrics.latency_us m in
  List.iter
    (fun (name, q, got) ->
      let want = exact q in
      if got < want || got - want > want / 16 then
        Alcotest.failf "%s read %d us, exact %d us" name got want)
    [ ("p50", 0.50, p50); ("p99", 0.99, p99) ];
  check Alcotest.bool "p99 is in the tail" true (p99 > 4_000)

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

(* Strings of any bytes: control bytes, quotes, backslashes and bytes
   >= 0x80 must all reach the escaper and the parser. *)
let any_string = QCheck.Gen.(string_size ~gen:char (int_bound 24))

(* Round-trip property over random JSON trees (floats excluded: their
   %.6g rendering is lossy by design; the float property below pins how
   lossy). *)
let prop_json_roundtrip =
  let open QCheck in
  let leaf =
    Gen.oneof
      [
        Gen.return Json.Null;
        Gen.map (fun b -> Json.Bool b) Gen.bool;
        Gen.map (fun i -> Json.Int i) Gen.int;
        Gen.map (fun s -> Json.Str s) any_string;
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
                    (Gen.list_size (Gen.int_bound 4) (Gen.pair any_string (self (n / 2))));
                ])
          n)
  in
  Test.make ~name:"to_string/of_string round trip" ~count:500
    (make ~print:Json.to_string tree) (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> j' = j && Json.to_string j = Json.to_string j'
      | Error _ -> false)

(* The escaper as it was before it copied runs: one case per byte. *)
let reference_escape s =
  let b = Buffer.create 16 in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let prop_json_escape_reference =
  QCheck.Test.make ~name:"escaper vs reference" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") any_string) (fun s ->
      let e = reference_escape s in
      Json.to_string (Json.Str s) = e
      && Json.to_string (Json.Obj [ (s, Json.List [ Json.Str s ]) ])
         = "{" ^ e ^ ":[" ^ e ^ "]}")

(* The line writer writes a head itself and splices in the engine's
   escaped text: every reply kind, at every origin, must print what the
   reference printer prints, whatever bytes the strings hold.  Result
   texts run past 2 KB, where a line is allocated on the major heap. *)
let prop_response_line =
  let open QCheck in
  let text = Gen.(string_size ~gen:char (oneof [ int_bound 24; int_bound 4096 ])) in
  let gen =
    Gen.(pair (quad any_string any_string any_string text) (quad int int int any_string))
  in
  let print ((id, client, key, text), (n, events, cycles, message)) =
    Printf.sprintf "id %S client %S key %S text %S n %d events %d cycles %d message %S" id
      client key text n events cycles message
  in
  Test.make ~name:"response line = reference rendering, every reply" ~count:500
    (make ~print gen) (fun ((id, client, key, text), (n, events, cycles, message)) ->
      let result = { Job.text; events; cycles } and escaped = Json.quote text in
      let ok origin = Engine.Result { origin; key; wall_us = n; result; escaped } in
      List.for_all
        (fun reply ->
          let r = { Engine.id; client; reply } in
          String.equal (Codec.response_to_line r) (Json.to_string (Codec.response_to_json r)))
        [
          ok Engine.Cold;
          ok Engine.Hit;
          ok Engine.Coalesced;
          Engine.Shed { retry_after_ms = n };
          Engine.Error message;
        ])

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

(* [Json.int] takes a float only when it is that integer exactly: an
   integral float past the int range is no integer. *)
let prop_json_int_exact =
  let near_bound =
    QCheck.Gen.(
      map3
        (fun neg e d ->
          let f = ldexp 1.0 e +. float_of_int d in
          if neg then -.f else f)
        bool (int_range 52 66) (int_range (-4096) 4096))
  in
  let gen =
    QCheck.Gen.(
      oneof
        [
          float;
          map float_of_int int;
          near_bound;
          oneofl [ 0x1p62; -0x1p62; 0x1p63; -0x1p63; 1e300; -1e300; infinity; nan ];
        ])
  in
  QCheck.Test.make ~count:2000 ~name:"json int takes exact floats only"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      match Json.int (Json.Float f) with
      | Some n -> float_of_int n = f
      | None -> (not (Float.is_integer f)) || Float.abs f >= 0x1p62)

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
          Alcotest.test_case "catalogue text equals a copy's" `Quick
            test_key_catalogue_table;
          QCheck_alcotest.to_alcotest prop_fuzz_keys;
          Alcotest.test_case "run coordinates keyed" `Quick test_job_key_coordinates;
          Alcotest.test_case "each kind keys exactly what it runs" `Quick test_key_per_kind;
          Alcotest.test_case "same bytes as the reference" `Quick test_key_reference;
        ] );
      ( "cache",
        [ Alcotest.test_case "LRU eviction and recency" `Quick test_cache_lru ] );
      ( "engine",
        [
          Alcotest.test_case "coalescing then hit" `Quick test_coalescing;
          Alcotest.test_case "inline copy of a catalogue test" `Quick
            test_inline_catalogue_copy;
          Alcotest.test_case "opt algorithm spellings share a key" `Quick
            test_opt_algorithm_spellings;
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
          Alcotest.test_case "latency percentiles near exact" `Quick
            test_latency_percentiles;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "golden workloads cold and warm" `Quick
            test_golden_cold_and_warm;
          Alcotest.test_case "compare_cold identical" `Quick
            test_compare_cold_identical;
          Alcotest.test_case "fuzz job runs on its platform" `Quick test_fuzz_job_platform;
        ] );
      ( "codec",
        [
          Alcotest.test_case "request round trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "request errors" `Quick test_codec_errors;
          Alcotest.test_case "response line parses" `Quick test_response_line_parses;
          QCheck_alcotest.to_alcotest prop_response_line;
          Alcotest.test_case "a result is escaped once per computation and entry" `Quick
            test_escaped_once;
          Alcotest.test_case "json parser" `Quick test_json_parser;
          Alcotest.test_case "json number grammar" `Quick test_json_number_grammar;
          Alcotest.test_case "json surrogate pairs" `Quick test_json_surrogate_pairs;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_escape_reference;
          QCheck_alcotest.to_alcotest prop_json_float_contract;
          QCheck_alcotest.to_alcotest prop_json_int_exact;
          Alcotest.test_case "wrongly typed fields are errors" `Quick test_codec_wrong_types;
          Alcotest.test_case "platform picks its default cores" `Quick test_platform_cores;
        ] );
    ]
