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

let count t = t.n

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

let pp_summary ppf (s : summary) =
  Format.fprintf ppf "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" s.n s.mean s.stddev s.min s.max

module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let get t = t.v
  let reset t = t.v <- 0
end

module Histogram = struct
  type t = {
    width : int;
    shift : int; (* log2 width when width is a power of two, else -1 *)
    last : int; (* index of the overflow slot *)
    counts : int array; (* last slot is overflow *)
    mutable total : int;
    mutable max_sample : int; (* largest raw value, for the overflow slot *)
    mutable min_bucket : int; (* smallest non-empty bucket *)
  }

  let create ~bucket_width ~buckets =
    assert (bucket_width > 0 && buckets > 0);
    let shift =
      if bucket_width land (bucket_width - 1) = 0 then
        let rec lg i = if 1 lsl i = bucket_width then i else lg (i + 1) in
        lg 0
      else -1
    in
    {
      width = bucket_width;
      shift;
      last = buckets;
      counts = Array.make (buckets + 1) 0;
      total = 0;
      max_sample = 0;
      min_bucket = max_int;
    }

  let add t v =
    (* [asr] floors where [/] truncates toward zero, but negative inputs
       clamp to bucket 0 either way, so the shift path is equivalent *)
    let b = if t.shift >= 0 then v asr t.shift else v / t.width in
    let b = if b < 0 then 0 else if b > t.last then t.last else b in
    Array.unsafe_set t.counts b (Array.unsafe_get t.counts b + 1);
    t.total <- t.total + 1;
    if b < t.min_bucket then t.min_bucket <- b;
    if v > t.max_sample then t.max_sample <- v

  let total t = t.total

  let bucket_count t i = t.counts.(i)

  let percentile t q =
    if t.total = 0 then 0
    else if q <= 0.0 then
      (* the tracked minimum non-empty bucket answers q = 0 directly *)
      if t.min_bucket >= t.last then t.max_sample else t.min_bucket * t.width
    else begin
      let n = Array.length t.counts in
      let target = Int.max 1 (int_of_float (ceil (q *. float_of_int t.total))) in
      let rec scan i acc =
        if i = n - 1 then
          (* the overflow slot has no finite upper bound; report the
             largest sample seen instead of a fictitious edge *)
          t.max_sample
        else
          let acc = acc + t.counts.(i) in
          if acc >= target then (i + 1) * t.width else scan (i + 1) acc
      in
      (* buckets below [min_bucket] are empty; skip them *)
      scan t.min_bucket 0
    end

  let pp ppf t =
    Format.fprintf ppf "@[<v>";
    let n = Array.length t.counts in
    Array.iteri
      (fun i c ->
        if c > 0 then
          if i = n - 1 then
            Format.fprintf ppf "[%6d..  +inf): %d (max %d)@," (i * t.width) c t.max_sample
          else
            Format.fprintf ppf "[%6d..%6d): %d@," (i * t.width) ((i + 1) * t.width) c)
      t.counts;
    Format.fprintf ppf "@]"
end

let throughput_per_sec ~ops ~cycles ~freq_ghz =
  if cycles <= 0 then 0.0
  else float_of_int ops /. (float_of_int cycles /. (freq_ghz *. 1e9))
