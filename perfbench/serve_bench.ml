(* The serve workloads: generated NDJSON lines through Codec ->
   Engine.submit/drain -> Codec, as `armb serve` runs them, in one
   process on one domain.

   Loop: closed, one client, waves of 16 requests (armb serve's default
   drain interval).  The client sends a wave, every immediate answer is
   encoded as it comes, the engine drains the queued rest, and the next
   wave goes out only when every response of this one is encoded.  A
   request's latency runs from the start of its decode to the end of its
   response's encode.  Output checks run between waves, off the clock.

   serve-hot: setup warms the memo cache with every pool job, so every
   timed request is a hit and decode, keying, lookup and encode are the
   whole cost.  serve-cold: every request carries its own seed, so no
   two share a key; the cache takes inserts and evictions, never hits. *)

module Codec = Armb_service.Codec
module Engine = Armb_service.Engine
module Job = Armb_service.Job
module Serve = Armb_service.Serve
module Gen = Armb_soak.Gen
module Invariant = Armb_soak.Invariant
module T = Tracer

let wave = 16

(* Engine's default capacity, passed explicitly because cache.evictions
   is derived from it. *)
let cache_cap = 512

type account = {
  mutable requests : int;
  mutable failed : int;
  mutable busy_ns : int;  (* summed wave times: the service's busy time *)
  latencies : T.Samples.t;  (* ms, this block's *)
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable queue_depth_max : int;
  mutable oracle_calls : int;  (* fix results' events *)
  mutable fix_us : int;
  job_us : (string, int * int) Hashtbl.t;  (* kind -> (wall_us sum, cold results) *)
  mutable errors : string list;
}

let account () =
  {
    requests = 0;
    failed = 0;
    busy_ns = 0;
    latencies = T.Samples.create ();
    hits = 0;
    misses = 0;
    coalesced = 0;
    queue_depth_max = 0;
    oracle_calls = 0;
    fix_us = 0;
    job_us = Hashtbl.create 8;
    errors = [];
  }

let error acct msg = if List.length acct.errors < 10 then acct.errors <- msg :: acct.errors

let decode (r : Load.request) = Codec.request_of_line r.Load.line

(* Serve one wave; the timed part.  [base] numbers the wave's requests
   in the run, for the spans' request ids. *)
let serve_wave acct ?tracer engine ~base (reqs : Load.request array) =
  let n = Array.length reqs in
  let responses = Array.make n None in
  let starts = Array.make n 0 in
  let ids = Array.make n (-1) in
  let pending = Hashtbl.create wave in
  let fresh () = match tracer with Some t -> T.fresh_id t | None -> -1 in
  let wave_id = fresh () in
  let w0 = T.now_ns () in
  let finish i resp =
    let line =
      T.span tracer ~name:"codec.encode" ~parent:ids.(i) ~req:(base + i) (fun () ->
          Codec.response_to_line resp)
    in
    let t1 = T.now_ns () in
    if String.length line = 0 then error acct "empty response line";
    T.Samples.add acct.latencies (float_of_int (t1 - starts.(i)) /. 1e6);
    Option.iter
      (fun t ->
        T.record t ~id:ids.(i) ~name:"request" ~parent:wave_id ~req:(base + i)
          ~start_ns:starts.(i) ~end_ns:t1)
      tracer;
    responses.(i) <- Some resp
  in
  Array.iteri
    (fun i r ->
      starts.(i) <- T.now_ns ();
      ids.(i) <- fresh ();
      let span name f = T.span tracer ~name ~parent:ids.(i) ~req:(base + i) f in
      match span "codec.decode" (fun () -> decode r) with
      | Error msg ->
        finish i { Engine.id = string_of_int (base + i); client = "anon"; reply = Engine.Error msg }
      | Ok req -> (
        (* the traced run keys each request itself, so the key's cost
           can be told apart from the rest of submit *)
        if tracer <> None then
          ignore (span "key" (fun () -> try Job.key req.Engine.job with _ -> "") : string);
        let answer = span "engine.submit" (fun () -> Engine.submit engine req) in
        acct.queue_depth_max <- max acct.queue_depth_max (Engine.pending engine);
        match answer with
        | Some resp -> finish i resp
        | None -> Hashtbl.add pending req.Engine.id i))
    reqs;
  if Hashtbl.length pending > 0 then begin
    let drained =
      T.span tracer ~name:"engine.drain" ~parent:wave_id ~req:(-1) (fun () -> Engine.drain engine)
    in
    List.iter
      (fun (resp : Engine.response) ->
        match Hashtbl.find_opt pending resp.Engine.id with
        | Some i ->
          Hashtbl.remove pending resp.Engine.id;
          finish i resp
        | None -> error acct ("orphan response " ^ resp.Engine.id))
      drained
  end;
  let w1 = T.now_ns () in
  Option.iter
    (fun t -> T.record t ~id:wave_id ~name:"wave" ~parent:(-1) ~req:(-1) ~start_ns:w0 ~end_ns:w1)
    tracer;
  acct.busy_ns <- acct.busy_ns + (w1 - w0);
  responses

(* Off the clock: count and check one served wave. *)
let settle acct ~check (reqs : Load.request array) responses =
  Array.iteri
    (fun i (r : Load.request) ->
      acct.requests <- acct.requests + 1;
      match responses.(i) with
      | None ->
        acct.failed <- acct.failed + 1;
        error acct (Printf.sprintf "request %S got no response" r.Load.line)
      | Some (resp : Engine.response) ->
        (match resp.Engine.reply with
        | Engine.Result { origin; wall_us; result; _ } -> (
          match origin with
          | Engine.Hit -> acct.hits <- acct.hits + 1
          | Engine.Coalesced -> acct.coalesced <- acct.coalesced + 1
          | Engine.Cold ->
            acct.misses <- acct.misses + 1;
            let us, c = Option.value ~default:(0, 0) (Hashtbl.find_opt acct.job_us r.Load.kind) in
            Hashtbl.replace acct.job_us r.Load.kind (us + wall_us, c + 1);
            if r.Load.kind = "fix" then begin
              acct.oracle_calls <- acct.oracle_calls + result.Job.events;
              acct.fix_us <- acct.fix_us + wall_us
            end)
        | Engine.Shed _ | Engine.Error _ -> acct.failed <- acct.failed + 1);
        Option.iter (error acct) (check r resp))
    reqs

(* Serve [reqs] in waves of 16, settling each wave before the next. *)
let serve_block acct ?tracer engine ~check (reqs : Load.request array) =
  let n = Array.length reqs in
  let rec go from =
    if from < n then begin
      let wave_reqs = Array.sub reqs from (min wave (n - from)) in
      let responses = serve_wave acct ?tracer engine ~base:acct.requests wave_reqs in
      settle acct ~check wave_reqs responses;
      go (from + wave)
    end
  in
  go 0

let setup_reps = 5

(* A timed run serves blocks of identical work until --seconds have
   passed and reports medians over blocks, so a burst of host
   interference moves a few blocks, not the figure.  A block is long
   enough to hold the kind mix and, on serve-cold, more distinct keys
   than the cache holds. *)
let block_len ~cold = if cold then 512 else 4096

(* ---------- serve-hot ---------- *)

type hot = {
  pool : Load.request array;
  reference : (string * string) array;  (* signature per pool job *)
  block : Load.request array;
}

(* Responses must match Job.run called directly on the pool job,
   bypassing Engine, Cache and the response codec. *)
let hot_check h (r : Load.request) resp =
  let got = Serve.signature resp in
  if got = h.reference.(r.Load.pool_index) then None
  else Some (Printf.sprintf "%s: %s response differs from the direct Job.run" r.Load.line (fst got))

(* Reference results, then an engine whose memo cache holds every pool
   job (served through the engine and checked on the way in). *)
let setup_hot ~seed =
  let pool, block = Load.hot ~seed (block_len ~cold:false) in
  let reference =
    Array.map
      (fun r ->
        match decode r with
        | Ok req -> ("ok", (Job.run req.Engine.job).Job.text)
        | Error msg -> failwith ("serve-hot: pool job does not decode: " ^ msg))
      pool
  in
  let h = { pool; reference; block } in
  let engine = Engine.create ~cache_cap () in
  let acct = account () in
  serve_block acct engine ~check:(hot_check h) pool;
  if acct.errors <> [] || acct.failed > 0 then
    failwith ("serve-hot: warming the cache failed: " ^ String.concat "; " acct.errors);
  (h, engine)

(* ---------- serve-cold ---------- *)

let cold_check (r : Load.request) resp =
  let v = Invariant.check r.Load.expect resp in
  if v.Invariant.ok then None
  else Some (Printf.sprintf "%s: %s" r.Load.line (Option.value ~default:"" v.Invariant.reason))

let setup_cold () = (Load.sequence (block_len ~cold:true), Engine.create ~cache_cap ())

(* A seeded sample of served requests, re-run directly with Job.run off
   the clock: the response must match. *)
let sample_size = 16

let sampler ~seed =
  let rng = Armb_sim.Rng.create (seed + 1) in
  let kept = ref [] in
  let n = ref 0 in
  let check (r : Load.request) resp =
    (* keep a request with probability 1/64 until the sample is full *)
    if !n < sample_size && Armb_sim.Rng.int rng 64 = 0 then begin
      incr n;
      kept := (r, Serve.signature resp) :: !kept
    end;
    cold_check r resp
  in
  let verify acct =
    List.iter
      (fun ((r : Load.request), got) ->
        match decode r with
        | Error msg -> error acct ("sample does not decode: " ^ msg)
        | Ok req ->
          if ("ok", (Job.run req.Engine.job).Job.text) <> got then
            error acct (r.Load.line ^ ": response differs from the direct Job.run"))
      !kept
  in
  (check, verify)

(* ---------- timed run (--trace 0) ---------- *)

let outcome acct metrics =
  { Report.attempted = acct.requests; failed = acct.failed; errors = List.rev acct.errors; metrics }

(* Serve [block k] for k = 0, 1, ... until [seconds] have passed; the
   end-to-end metrics.  Blocks are built between blocks, off the clock. *)
let timed acct engine ~check ~block ~seconds ~setup_s =
  let deadline = T.now_ns () + int_of_float (seconds *. 1e9) in
  let blocks = ref [] in
  let k = ref 0 in
  while T.now_ns () < deadline do
    let reqs = block !k in
    let scale = Report.host_scale () in
    let b0 = acct.busy_ns in
    serve_block acct engine ~check reqs;
    blocks := Report.block ~scale acct.latencies ~busy_ns:(acct.busy_ns - b0) :: !blocks;
    incr k
  done;
  Report.end_to_end !blocks ~setup_s

let timed_hot ~seed ~seconds =
  let (h, engine), setup_s = Report.repeat_setup setup_reps (fun () -> setup_hot ~seed) in
  let acct = account () in
  let metrics =
    timed acct engine ~check:(hot_check h) ~block:(fun _ -> h.block) ~seconds ~setup_s
  in
  outcome acct metrics

let timed_cold ~seed ~seconds =
  let (jobs, engine), setup_s = Report.repeat_setup setup_reps setup_cold in
  let acct = account () in
  let check, verify = sampler ~seed in
  let metrics =
    timed acct engine ~check ~block:(fun block -> Load.cold_block ~seed ~block jobs) ~seconds ~setup_s
  in
  verify acct;
  outcome acct metrics

(* ---------- traced run (--trace 1) ---------- *)

(* Layer microbenchmarks the serve path leans on: one WMM enumeration
   per catalogue test (keying and the fix/opt oracles), and the fix
   job's per-platform cost simulation. *)
let enumerate_us () =
  let tests = Armb_litmus.Catalogue.all in
  Report.ns_per_op ~rounds:20 (fun () ->
      let t0 = T.now_ns () in
      List.iter
        (fun t -> ignore (Armb_litmus.Enumerate.enumerate Armb_litmus.Enumerate.Wmm t))
        tests;
      (T.now_ns () - t0, List.length tests))
  /. 1e3

let cost_measure_ms () =
  Report.ns_per_op ~rounds:5 (fun () ->
      let t0 = T.now_ns () in
      ignore (Armb_synth.Cost.measure Armb_litmus.Catalogue.mp_dmb);
      (T.now_ns () - t0, 1))
  /. 1e6

let layer_metrics ~untraced:u ~traced:t tr ~resident =
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let submit_ns = T.total_ns tr "engine.submit" - T.total_ns tr "key" in
  [
    ("failed_ratio", ratio t.failed t.requests);
    ( "trace.overhead_pct",
      100.0 *. float_of_int (t.busy_ns - u.busy_ns) /. float_of_int (max 1 u.busy_ns) );
    ("key.us", T.mean_us tr "key");
    ("key.calls", float_of_int (T.calls tr "key"));
    ("codec.decode_us", T.mean_us tr "codec.decode");
    ("codec.encode_us", T.mean_us tr "codec.encode");
    (* submit keys the request again inside; what is left is the
       engine's own admission work, clamped at 0 because on a hit it is
       smaller than the spread between two key calls *)
    ( "engine.submit_self_us",
      Float.max 0.0 (ratio submit_ns (T.calls tr "engine.submit") /. 1e3) );
    ("engine.drain_ms", T.mean_us tr "engine.drain" /. 1e3);
    ("engine.queue_depth_max", float_of_int t.queue_depth_max);
    ("cache.hits", float_of_int t.hits);
    ("cache.misses", float_of_int t.misses);
    (* every cold result is put into the LRU cache; with distinct keys,
       each put past capacity evicts one entry *)
    ("cache.evictions", float_of_int (max 0 (resident + t.misses - cache_cap)));
    ("cache.hit_ratio", ratio t.hits (t.hits + t.misses + t.coalesced));
    ("synth.oracle_calls", float_of_int t.oracle_calls);
    ("synth.us_per_oracle_call", ratio t.fix_us t.oracle_calls);
    ("enumerate.us", enumerate_us ());
    ("cost.measure_ms", cost_measure_ms ());
  ]
  @ List.concat_map
      (fun kind ->
        let us, c = Option.value ~default:(0, 0) (Hashtbl.find_opt t.job_us kind) in
        [
          (Printf.sprintf "job.%s.ms" kind, ratio us c /. 1e3);
          (Printf.sprintf "job.%s.count" kind, float_of_int c);
        ])
      Registry.job_kinds

(* The traced run serves the same blocks twice, untraced and traced,
   each pass on its own engine, alternating block by block so a slow
   spell of the host hits both: the difference is the tracing overhead,
   and every exact count must repeat bit for bit. *)
let traced ~blocks ~engine ~check ~resident =
  let u = account () and t = account () in
  let eu = engine () and et = engine () in
  let tr = T.create () in
  List.iter
    (fun reqs ->
      serve_block u eu ~check reqs;
      serve_block t ~tracer:tr et ~check reqs)
    blocks;
  let counts a = (a.requests, a.failed, a.hits, a.misses, a.coalesced, a.oracle_calls) in
  if counts u <> counts t then
    error t "exact counts differ between the untraced and the traced pass over the same requests";
  (outcome t (layer_metrics ~untraced:u ~traced:t tr ~resident), tr)

(* Blocks per traced pass for --seconds [s]: both passes together take
   about half of [s] on a 2-CPU Xeon host. *)
let traced_blocks ~cold s = max 1 (int_of_float (Float.ceil (s /. if cold then 4.0 else 2.0)))

let traced_hot ~seed ~seconds =
  let h, engine = setup_hot ~seed in
  traced
    ~blocks:(List.init (traced_blocks ~cold:false seconds) (fun _ -> h.block))
    ~engine:(fun () -> engine)
    ~check:(hot_check h) ~resident:(Array.length h.pool)

let traced_cold ~seed ~seconds =
  let jobs, _ = setup_cold () in
  traced
    ~blocks:(List.init (traced_blocks ~cold:true seconds) (fun block -> Load.cold_block ~seed ~block jobs))
    ~engine:(fun () -> Engine.create ~cache_cap ())
    ~check:cold_check ~resident:0
