module Rng = Armb_sim.Rng

type t = {
  spec : Plan.spec;
  rng : Rng.t;
  mutable digest : int64;
  mutable queries : int;
  mutable faults : int;
  mutable barrier_nacks : int;
  mutable snoop_delays : int;
  mutable dram_jitters : int;
  mutable stalls : int;
  mutable delay_cycles : int;
}

let create spec =
  Plan.validate spec;
  {
    spec;
    rng = Rng.create (spec.Plan.seed lxor 0x0FA17);
    digest = 0L;
    queries = 0;
    faults = 0;
    barrier_nacks = 0;
    snoop_delays = 0;
    dram_jitters = 0;
    stalls = 0;
    delay_cycles = 0;
  }

(* SplitMix64 finalizer, same mixing constants as Rng: good avalanche,
   so the digest distinguishes single-query differences. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let record t ~site value =
  t.queries <- t.queries + 1;
  if value > 0 then t.faults <- t.faults + 1;
  t.digest <-
    mix (Int64.logxor t.digest (Int64.of_int ((site lsl 32) lxor (value lsl 3) lxor site)))

(* One Bernoulli draw followed by a magnitude draw on success.  The
   draw count depends only on the plan and the outcome of the plan's
   own stream, never on simulator state, so replays stay aligned. *)
let fire t prob = prob > 0. && Rng.float t.rng 1.0 < prob

let magnitude t cap = if cap <= 0 then 0 else 1 + Rng.int t.rng cap

let dram_jitter t =
  let s = t.spec in
  let d =
    if fire t s.Plan.dram_jitter_prob then magnitude t s.Plan.dram_jitter_cycles else 0
  in
  record t ~site:1 d;
  if d > 0 then begin
    t.dram_jitters <- t.dram_jitters + 1;
    t.delay_cycles <- t.delay_cycles + d
  end;
  d

let snoop_delay t ~rank =
  let s = t.spec in
  let rank = if rank < 1 then 1 else if rank > 3 then 3 else rank in
  let d =
    if fire t s.Plan.snoop_delay_prob then rank * magnitude t s.Plan.snoop_delay_cycles
    else 0
  in
  record t ~site:2 d;
  if d > 0 then begin
    t.snoop_delays <- t.snoop_delays + 1;
    t.delay_cycles <- t.delay_cycles + d
  end;
  d

(* NACK rounds before the fabric accepts a barrier transaction (0 = clean
   first try), capped by the plan. *)
let barrier_retries t =
  let s = t.spec in
  if s.Plan.barrier_nack_prob <= 0. || s.Plan.barrier_max_retries <= 0 then begin
    record t ~site:3 0;
    0
  end
  else begin
    (* Each retry round is NACKed again with the same probability, up
       to the plan's cap — geometric with a ceiling, like a fabric that
       must eventually sink the transaction (no livelock). *)
    let n = ref 0 in
    while !n < s.Plan.barrier_max_retries && fire t s.Plan.barrier_nack_prob do
      incr n
    done;
    record t ~site:3 !n;
    t.barrier_nacks <- t.barrier_nacks + !n;
    !n
  end

let backoff_total (b : Plan.backoff) retries =
  let total = ref 0 and step = ref b.Plan.base in
  for _ = 1 to retries do
    total := !total + Int.min !step b.Plan.cap;
    step := !step * b.Plan.multiplier
  done;
  !total

let barrier_delay t =
  let retries = barrier_retries t in
  if retries = 0 then 0
  else begin
    let d = backoff_total t.spec.Plan.barrier_backoff retries in
    t.delay_cycles <- t.delay_cycles + d;
    d
  end

let stall t =
  let s = t.spec in
  let d = if fire t s.Plan.stall_prob then magnitude t s.Plan.stall_cycles else 0 in
  record t ~site:4 d;
  if d > 0 then begin
    t.stalls <- t.stalls + 1;
    t.delay_cycles <- t.delay_cycles + d
  end;
  d

let digest t = t.digest
let combine acc d = mix (Int64.logxor (Int64.add (Int64.mul acc 3L) 1L) d)

type counters = {
  queries : int;
  faults : int;
  barrier_nacks : int;
  snoop_delays : int;
  dram_jitters : int;
  stalls : int;
  delay_cycles : int;
}

let counters (t : t) =
  {
    queries = t.queries;
    faults = t.faults;
    barrier_nacks = t.barrier_nacks;
    snoop_delays = t.snoop_delays;
    dram_jitters = t.dram_jitters;
    stalls = t.stalls;
    delay_cycles = t.delay_cycles;
  }
