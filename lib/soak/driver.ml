(* The long-lived bounded soak driver.

   Waves of generated requests are pushed through the real service
   stack — the memoizing engine, unchanged — and every response is
   invariant-checked on the exact bytes a client would see.  A shed
   response is resubmitted once, after its wave has drained: the engine
   is idle then, so the resubmission runs, and a request's terminal
   state is completed or a violation (bundled).  Violations persist as
   self-contained repro bundles — seed, the verbatim request NDJSON
   line, the response — and a rolling `armb-soak-metrics-v2` snapshot
   merges the engine's own metrics with the farm's counters, rewritten
   atomically so a tailing reader never sees a torn artifact. *)

module Engine = Armb_service.Engine
module Serve = Armb_service.Serve
module Metrics = Armb_service.Metrics
module Codec = Armb_service.Codec
module Clock = Armb_service.Clock
module Json = Armb_json.Json
module Out = Armb_service.Out

type config = {
  seed : int;
  requests : int;  (** stop after this many submissions; 0 = no count bound *)
  duration_s : float option;  (** stop after this much wall clock *)
  wave : int;  (** requests per wave (one run_batch round trip) *)
  pool : int;
  alpha : float;
  queue_bound : int;
  cache_cap : int;
  snapshot_every : int;  (** waves between rolling snapshots *)
  metrics_out : string option;
  bundle_dir : string option;
}

let default_config ~seed =
  {
    seed;
    requests = 500;
    duration_s = None;
    wave = 32;
    pool = Gen.default_pool;
    alpha = 1.1;
    queue_bound = 24;
    cache_cap = 512;
    snapshot_every = 4;
    metrics_out = None;
    bundle_dir = None;
  }

type violation = {
  index : int;  (** 1-based submission index *)
  job : Gen.job;
  response : Engine.response;
  reason : string;
  bundle : string option;  (** repro bundle path, when a dir was given *)
}

type report = {
  submitted : int;
  completed : int;
  cold : int;
  hits : int;
  coalesced : int;
  shed_seen : int;  (** shed responses, each resubmitted once *)
  errors : int;
  by_kind : (string * int) list;  (** submissions per job kind, sorted *)
  drift_total : float;
  violations : violation list;
  snapshots : int;
  wall_s : float;
  metrics : Metrics.t;
  ok : bool;  (** zero violations *)
}

let run_lines engine lines = (Serve.run_batch engine ~lines).Serve.responses

(* one-request round trip, for resubmitting a shed request *)
let run_one engine (job : Gen.job) =
  match run_lines engine [ job.Gen.line ] with
  | r :: _ -> r
  | [] ->
    {
      Engine.id = job.Gen.id;
      client = "soak";
      reply = Engine.Error "resubmission produced no response";
    }

let violation_bundle_json ~seed ~index (job : Gen.job) (resp : Engine.response) reason =
  Json.Obj
    [
      ("schema", Json.Str "armb-soak-violation-v1");
      ("seed", Json.Int seed);
      ("index", Json.Int index);
      ("kind", Json.Str job.Gen.kind);
      ("expect", Json.Str (Invariant.expect_to_string job.Gen.expect));
      ("reason", Json.Str reason);
      (* the verbatim NDJSON line: `echo <request> | armb serve` replays it *)
      ("request", Json.Str job.Gen.line);
      ("response", Codec.response_to_json resp);
    ]

let snapshot_json ~cfg ~wall_s ~counters ~by_kind ~violations ~snapshots metrics =
  let c name = List.assoc name counters in
  Json.Obj
    [
      ("schema", Json.Str "armb-soak-metrics-v2");
      ("seed", Json.Int cfg.seed);
      ("pool", Json.Int cfg.pool);
      ("wall_s", Json.Float wall_s);
      ("submitted", Json.Int (c "submitted"));
      ("completed", Json.Int (c "completed"));
      ("cold", Json.Int (c "cold"));
      ("hits", Json.Int (c "hits"));
      ("coalesced", Json.Int (c "coalesced"));
      ("shed_seen", Json.Int (c "shed_seen"));
      ("errors", Json.Int (c "errors"));
      ("violations", Json.Int violations);
      ("drift_total", Json.Float (List.assoc "drift" counters |> float_of_int |> fun x -> x /. 1000.0));
      ( "jobs_by_kind",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) by_kind) );
      ("snapshots", Json.Int snapshots);
      ("engine", Metrics.to_json metrics);
    ]

let run ?jobs ?(progress = fun _ -> ()) cfg =
  if cfg.wave < 1 then invalid_arg "Driver.run: wave must be >= 1";
  if cfg.requests <= 0 && cfg.duration_s = None && jobs = None then
    invalid_arg "Driver.run: unbounded soak (no requests, duration or job list)";
  let clock = Clock.create () in
  let t0 = Clock.now_us clock in
  let wall_s () = float_of_int (Clock.elapsed_us clock ~since:t0) /. 1e6 in
  let engine = Engine.create ~cache_cap:cfg.cache_cap ~queue_bound:cfg.queue_bound () in
  let gen = Gen.create ~pool:cfg.pool ~alpha:cfg.alpha ~seed:cfg.seed () in
  (* injected job list (tests, fixtures) replaces the generator stream *)
  let injected = ref jobs in
  let submitted = ref 0 and completed = ref 0 in
  let cold = ref 0 and hits = ref 0 and coalesced = ref 0 in
  let shed_seen = ref 0 in
  let errors = ref 0 in
  let drift_milli = ref 0 in
  let by_kind : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let violations = ref [] in
  let nviol = ref 0 in
  let snapshots = ref 0 in
  let bundle (job : Gen.job) resp reason =
    incr nviol;
    let path =
      match cfg.bundle_dir with
      | None -> None
      | Some dir ->
        let p = Filename.concat dir (Printf.sprintf "violation-%03d.json" !nviol) in
        (match
           Out.write ~path:p
             (Json.to_string
                (violation_bundle_json ~seed:cfg.seed ~index:!submitted job resp reason)
             ^ "\n")
         with
        | Ok () -> Some p
        | Error m ->
          progress (Printf.sprintf "bundle write failed: %s" m);
          None)
    in
    violations :=
      { index = !submitted; job; response = resp; reason; bundle = path } :: !violations
  in
  let counters () =
    [
      ("submitted", !submitted);
      ("completed", !completed);
      ("cold", !cold);
      ("hits", !hits);
      ("coalesced", !coalesced);
      ("shed_seen", !shed_seen);
      ("errors", !errors);
      ("drift", !drift_milli);
    ]
  in
  let kind_counts () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_kind [] |> List.sort compare
  in
  let snapshot () =
    match cfg.metrics_out with
    | None -> ()
    | Some path ->
      incr snapshots;
      let j =
        snapshot_json ~cfg ~wall_s:(wall_s ()) ~counters:(counters ())
          ~by_kind:(kind_counts ()) ~violations:!nviol ~snapshots:!snapshots
          (Engine.metrics engine)
      in
      (match Out.write ~path (Json.to_string j ^ "\n") with
      | Ok () -> ()
      | Error m -> progress (Printf.sprintf "snapshot write failed: %s" m))
  in
  (* terminal (non-shed) response: account + invariant-check *)
  let settle (job : Gen.job) (resp : Engine.response) =
    (match resp.Engine.reply with
    | Engine.Result { origin; _ } ->
      incr completed;
      (match origin with
      | Engine.Cold -> incr cold
      | Engine.Hit -> incr hits
      | Engine.Coalesced -> incr coalesced)
    | Engine.Error _ -> incr errors
    | Engine.Shed _ -> ());
    let v = Invariant.check job.Gen.expect resp in
    drift_milli := !drift_milli + int_of_float (v.Invariant.drift *. 1000.0);
    match v.Invariant.reason with
    | None -> ()
    | Some reason -> bundle job resp reason
  in
  (* Called once the wave's batch has drained, so the engine is idle
     and the lone resubmission cannot be shed; if it ever were,
     [Invariant.check] reports the shed as a driver bug. *)
  let handle (job : Gen.job) (resp : Engine.response) =
    match resp.Engine.reply with
    | Engine.Shed _ ->
      incr shed_seen;
      settle job (run_one engine job)
    | _ -> settle job resp
  in
  let hit_request_bound () = cfg.requests > 0 && !submitted >= cfg.requests in
  let hit_time_bound () =
    match cfg.duration_s with Some d -> wall_s () >= d | None -> false
  in
  let next_wave () =
    match !injected with
    | Some js ->
      let wave_js = List.filteri (fun i _ -> i < cfg.wave) js in
      let rest = List.filteri (fun i _ -> i >= cfg.wave) js in
      injected := Some rest;
      wave_js
    | None ->
      let budget =
        if cfg.requests > 0 then min cfg.wave (cfg.requests - !submitted)
        else cfg.wave
      in
      Gen.take_jobs gen budget
  in
  let waves = ref 0 in
  let finished = ref false in
  while not !finished do
    let wave_jobs = next_wave () in
    if wave_jobs = [] then finished := true
    else begin
      let lines = List.map (fun (j : Gen.job) -> j.Gen.line) wave_jobs in
      let responses = run_lines engine lines in
      let n = List.length wave_jobs in
      List.iteri
        (fun i (resp : Engine.response) ->
          if i < n then begin
            let job = List.nth wave_jobs i in
            submitted := !submitted + 1;
            Hashtbl.replace by_kind job.Gen.kind
              (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind job.Gen.kind));
            handle job resp
          end
          else
            (* conservation overflow: an orphan row means the engine
               answered something this wave never asked — a violation *)
            bundle
              { Gen.id = resp.Engine.id; kind = "?"; expect = Invariant.Status_ok; line = "" }
              resp "orphan response (conservation breach)")
        responses;
      incr waves;
      if cfg.snapshot_every > 0 && !waves mod cfg.snapshot_every = 0 then snapshot ();
      if hit_request_bound () || hit_time_bound () then finished := true
    end
  done;
  snapshot ();
  {
    submitted = !submitted;
    completed = !completed;
    cold = !cold;
    hits = !hits;
    coalesced = !coalesced;
    shed_seen = !shed_seen;
    errors = !errors;
    by_kind = kind_counts ();
    drift_total = float_of_int !drift_milli /. 1000.0;
    violations = List.rev !violations;
    snapshots = !snapshots;
    wall_s = wall_s ();
    metrics = Engine.metrics engine;
    ok = !violations = [];
  }

let pp_report ppf r =
  let p50, p99 = Metrics.latency_us r.metrics in
  Format.fprintf ppf
    "@[<v>soak: %d submitted, %d completed (%d cold, %d hits, %d coalesced) in %.2f s@,\
     shed %d seen and resubmitted; %d errors@,\
     drift total %.3f; hit rate %.3f; latency p50=%dus p99=%dus@,\
     jobs by kind: %s@,\
     violations: %d => %s@]"
    r.submitted r.completed r.cold r.hits r.coalesced r.wall_s r.shed_seen
    r.errors r.drift_total
    (Metrics.hit_rate r.metrics)
    p50 p99
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.by_kind))
    (List.length r.violations)
    (if r.ok then "OK" else "VIOLATIONS");
  List.iter
    (fun v ->
      Format.fprintf ppf "@.  #%d %s (%s): %s%s" v.index v.job.Gen.id v.job.Gen.kind
        v.reason
        (match v.bundle with Some p -> " [" ^ p ^ "]" | None -> ""))
    r.violations
