type backoff = { base : int; multiplier : int; cap : int }

type spec = {
  seed : int;
  barrier_nack_prob : float;
  barrier_max_retries : int;
  barrier_backoff : backoff;
  snoop_delay_prob : float;
  snoop_delay_cycles : int;
  dram_jitter_prob : float;
  dram_jitter_cycles : int;
  stall_prob : float;
  stall_cycles : int;
}

let default_backoff = { base = 8; multiplier = 2; cap = 256 }

let none =
  {
    seed = 0;
    barrier_nack_prob = 0.;
    barrier_max_retries = 0;
    barrier_backoff = default_backoff;
    snoop_delay_prob = 0.;
    snoop_delay_cycles = 0;
    dram_jitter_prob = 0.;
    dram_jitter_cycles = 0;
    stall_prob = 0.;
    stall_cycles = 0;
  }

let is_null s =
  s.barrier_nack_prob <= 0. && s.snoop_delay_prob <= 0. && s.dram_jitter_prob <= 0.
  && s.stall_prob <= 0.

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

let of_intensity ?(seed = 1) x =
  let x = clamp01 x in
  if x = 0. then { none with seed }
  else
    {
      seed;
      (* Probabilities ramp linearly; magnitudes ramp with intensity so a
         full-strength storm both fires often and hits hard. *)
      barrier_nack_prob = 0.5 *. x;
      barrier_max_retries = 4;
      barrier_backoff = default_backoff;
      snoop_delay_prob = 0.4 *. x;
      snoop_delay_cycles = 1 + int_of_float (60. *. x);
      dram_jitter_prob = 0.5 *. x;
      dram_jitter_cycles = 1 + int_of_float (120. *. x);
      stall_prob = 0.25 *. x;
      stall_cycles = 1 + int_of_float (30. *. x);
    }

let scale s f =
  {
    s with
    barrier_nack_prob = clamp01 (s.barrier_nack_prob *. f);
    snoop_delay_prob = clamp01 (s.snoop_delay_prob *. f);
    dram_jitter_prob = clamp01 (s.dram_jitter_prob *. f);
    stall_prob = clamp01 (s.stall_prob *. f);
  }

let with_seed s seed = { s with seed }

let validate s =
  let prob what p =
    if p < 0. || p > 1. then invalid_arg (Printf.sprintf "Fault.Plan: %s out of [0,1]" what)
  in
  let mag what n =
    if n < 0 then invalid_arg (Printf.sprintf "Fault.Plan: negative %s" what)
  in
  prob "barrier_nack_prob" s.barrier_nack_prob;
  prob "snoop_delay_prob" s.snoop_delay_prob;
  prob "dram_jitter_prob" s.dram_jitter_prob;
  prob "stall_prob" s.stall_prob;
  mag "barrier_max_retries" s.barrier_max_retries;
  mag "snoop_delay_cycles" s.snoop_delay_cycles;
  mag "dram_jitter_cycles" s.dram_jitter_cycles;
  mag "stall_cycles" s.stall_cycles;
  if s.barrier_backoff.base <= 0 || s.barrier_backoff.multiplier < 1
     || s.barrier_backoff.cap < s.barrier_backoff.base
  then invalid_arg "Fault.Plan: bad backoff"
