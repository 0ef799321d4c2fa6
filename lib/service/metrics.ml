module Stats = Armb_sim.Stats

type t = {
  submitted : Stats.Counter.t;
  hits : Stats.Counter.t;
  misses : Stats.Counter.t;
  coalesced : Stats.Counter.t;
  shed : Stats.Counter.t;
  failed : Stats.Counter.t;
  completed : Stats.Counter.t;
  events : Stats.Counter.t;
  mutable queue_depth_peak : int;
  (* log-linear buckets: p50 and p99 within 6.25% of the exact order
     statistic, from a few microseconds to multi-second synthesis jobs *)
  latency : Stats.Histogram.t;
  mutable latency_n : int;
}

let create () =
  {
    submitted = Stats.Counter.create ();
    hits = Stats.Counter.create ();
    misses = Stats.Counter.create ();
    coalesced = Stats.Counter.create ();
    shed = Stats.Counter.create ();
    failed = Stats.Counter.create ();
    completed = Stats.Counter.create ();
    events = Stats.Counter.create ();
    queue_depth_peak = 0;
    latency = Stats.Histogram.create ();
    latency_n = 0;
  }

let submitted t = Stats.Counter.incr t.submitted
let hit t = Stats.Counter.incr t.hits
let miss t = Stats.Counter.incr t.misses
let coalesced t = Stats.Counter.incr t.coalesced
let shed t = Stats.Counter.incr t.shed
let failed t = Stats.Counter.incr t.failed
let completed t n = Stats.Counter.add t.completed n

let record_latency_us t us =
  Stats.Histogram.add t.latency (max 0 us);
  t.latency_n <- t.latency_n + 1

let observe_queue_depth t d = if d > t.queue_depth_peak then t.queue_depth_peak <- d

let add_events t n = Stats.Counter.add t.events n

let counts t =
  [
    ("submitted", Stats.Counter.get t.submitted);
    ("hits", Stats.Counter.get t.hits);
    ("misses", Stats.Counter.get t.misses);
    ("coalesced", Stats.Counter.get t.coalesced);
    ("shed", Stats.Counter.get t.shed);
    ("failed", Stats.Counter.get t.failed);
    ("completed", Stats.Counter.get t.completed);
    ("queue_depth_peak", t.queue_depth_peak);
    ("events", Stats.Counter.get t.events);
  ]

let get t name = match List.assoc_opt name (counts t) with Some n -> n | None -> 0

let latency_us t =
  if t.latency_n = 0 then (0, 0)
  else
    ( Stats.Histogram.percentile t.latency 0.50,
      Stats.Histogram.percentile t.latency 0.99 )

let hit_rate t =
  let h = float_of_int (Stats.Counter.get t.hits) in
  let denom =
    h
    +. float_of_int (Stats.Counter.get t.misses)
    +. float_of_int (Stats.Counter.get t.coalesced)
  in
  if denom <= 0. then 0. else h /. denom

let to_json t =
  let p50, p99 = latency_us t in
  Json.Obj
    ([ ("schema", Json.Str "armb-serve-metrics-v1") ]
    @ List.map (fun (k, v) -> (k, Json.Int v)) (counts t)
    @ [
        ("latency_p50_us", Json.Int p50);
        ("latency_p99_us", Json.Int p99);
        ("hit_rate", Json.Float (hit_rate t));
      ])

let pp ppf t =
  let p50, p99 = latency_us t in
  Format.fprintf ppf "@[<v>service metrics:@,";
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-18s %d@," k v) (counts t);
  Format.fprintf ppf "  %-18s %.3f@," "hit_rate" (hit_rate t);
  Format.fprintf ppf "  %-18s p50=%dus p99=%dus@]" "latency" p50 p99
