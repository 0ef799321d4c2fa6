type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let mean t = t.mean

let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let summary t =
  {
    n = t.n;
    mean = t.mean;
    stddev = stddev t;
    min = (if t.n = 0 then 0.0 else t.min);
    max = (if t.n = 0 then 0.0 else t.max);
  }

module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let get t = t.v
  let reset t = t.v <- 0
end

module Histogram = struct
  (* Log-linear buckets: each value below [sub] has a bucket of its own;
     above, every power of two [2^e, 2^(e+1)) splits into [sub] buckets
     of width [2^e / sub], so a bucket is at most 1/[sub] of its lower
     edge wide.  Index [i >= sub] holds mantissa [sub + i mod sub] at
     shift [i / sub - 1]. *)
  let sub_bits = 4
  let sub = 1 lsl sub_bits

  (* floor (log2 v) for v > 0 *)
  let msb v =
    let rec go v e k =
      if k = 0 then e else if v lsr k <> 0 then go (v lsr k) (e + k) (k / 2) else go v e (k / 2)
    in
    go v 0 32

  let bucket v =
    if v < sub then Int.max v 0
    else
      let shift = msb v - sub_bits in
      ((shift + 1) * sub) + ((v lsr shift) - sub)

  let slots = bucket max_int + 1

  type t = {
    counts : int array;
    mutable total : int;
    mutable min_sample : int;
    mutable max_sample : int;
    mutable min_bucket : int; (* smallest non-empty bucket *)
  }

  let create () =
    { counts = Array.make slots 0; total = 0; min_sample = 0; max_sample = 0; min_bucket = slots }

  (* the smallest and the largest value of bucket [i] *)
  let lower i = if i < sub then i else (sub + (i mod sub)) lsl ((i / sub) - 1)
  let upper i = if i < sub then i else lower i + (1 lsl ((i / sub) - 1)) - 1

  let add t v =
    let v = Int.max v 0 in
    let b = bucket v in
    Array.unsafe_set t.counts b (Array.unsafe_get t.counts b + 1);
    if t.total = 0 || v < t.min_sample then t.min_sample <- v;
    if v > t.max_sample then t.max_sample <- v;
    if b < t.min_bucket then t.min_bucket <- b;
    t.total <- t.total + 1

  let total t = t.total

  let count_at t v = t.counts.(bucket v)

  let percentile t q =
    if t.total = 0 then 0
    else if q <= 0.0 then t.min_sample
    else begin
      let rank = int_of_float (ceil (q *. float_of_int t.total)) in
      let target = Int.min t.total (Int.max 1 rank) in
      (* buckets below [min_bucket] are empty; skip them *)
      let rec scan i acc =
        let acc = acc + t.counts.(i) in
        if acc >= target then Int.min (upper i) t.max_sample else scan (i + 1) acc
      in
      scan t.min_bucket 0
    end
end

let throughput_per_sec ~ops ~cycles ~freq_ghz =
  if cycles <= 0 then 0.0
  else float_of_int ops /. (float_of_int cycles /. (freq_ghz *. 1e9))
