type priority = High | Normal | Low

let priority_of_string s =
  match String.lowercase_ascii s with
  | "high" -> Some High
  | "normal" -> Some Normal
  | "low" -> Some Low
  | _ -> None

let priority_index = function High -> 0 | Normal -> 1 | Low -> 2

type request = { id : string; client : string; priority : priority; job : Job.t }

type origin = Cold | Hit | Coalesced

type reply =
  | Result of {
      origin : origin;
      key : string;
      wall_us : int;
      result : Job.result;
      escaped : string;
    }
  | Shed of { retry_after_ms : int }
  | Error of string

type response = { id : string; client : string; reply : reply }

(* One queued computation and everyone waiting on it.  [waiters] is in
   arrival order; the front is the request that created the computation
   (its response is [Cold]), the rest coalesced onto it.  A FIFO keeps
   absorbing a duplicate O(1); the old [waiters @ [req]] list append
   was quadratic on exactly the hot keys skewed traffic coalesces. *)
type computation = { key : string; job : Job.t; waiters : request Queue.t }

(* Per-(priority, client) FIFO lane.  [lanes] indexes every lane with
   queued work by client in O(1); [rotation] is the round-robin ring —
   a lane is enqueued when it gains its first computation and retired
   (dropped from both structures) once drained, so client churn cannot
   grow either structure past the number of clients with work in
   flight.  The old list-append registration ([lanes <- lanes @ [l]])
   was O(clients^2) and never freed a drained lane. *)
type lane = { client : string; jobs : computation Queue.t; mutable enqueued : bool }

type level = { lanes : (string, lane) Hashtbl.t; rotation : lane Queue.t }

(* A cached result and its text escaped as a JSON string.  The escape
   waits for the entry's first hit: an entry that is never hit, as on
   traffic that never repeats, holds one copy of its text, not two.  The
   engine runs on one domain (DESIGN §4f), so nothing forces a [Lazy]
   from two domains at once. *)
type entry = { result : Job.result; escaped : string Lazy.t }

type t = {
  cache : entry Cache.t option;
  queue_bound : int;
  coalesce : bool;
  by_key : (string, computation) Hashtbl.t;
  levels : level array;  (* indexed by priority_index *)
  mutable queued : int;  (* distinct queued computations *)
  metrics : Metrics.t;
  clock : Clock.t;
  mutable wall_us_total : int;  (* completed computation time, for retry hints *)
  mutable computations_done : int;
}

let create ?(cache_cap = 512) ?(queue_bound = 256) ?(no_cache = false) ?clock () =
  if queue_bound < 1 then invalid_arg "Engine.create: queue_bound must be >= 1";
  {
    cache = (if no_cache then None else Some (Cache.create ~cap:cache_cap));
    queue_bound;
    coalesce = not no_cache;
    by_key = Hashtbl.create 64;
    levels =
      Array.init 3 (fun _ -> { lanes = Hashtbl.create 64; rotation = Queue.create () });
    queued = 0;
    metrics = Metrics.create ();
    clock = (match clock with Some c -> c | None -> Clock.create ());
    wall_us_total = 0;
    computations_done = 0;
  }

let pending t = t.queued
let metrics t = t.metrics

let retry_after_ms t =
  (* expected time to drain the current queue, from the mean completed
     computation cost; 50ms until we have measured anything *)
  if t.computations_done = 0 then 50
  else max 1 (t.queued * t.wall_us_total / t.computations_done / 1000)

let lane_for level client =
  match Hashtbl.find_opt level.lanes client with
  | Some l -> l
  | None ->
    let l = { client; jobs = Queue.create (); enqueued = false } in
    Hashtbl.replace level.lanes client l;
    l

let live_lanes t =
  Array.fold_left (fun acc level -> acc + Hashtbl.length level.lanes) 0 t.levels

(* A library's own message is the answer; other exceptions are named. *)
let error_text = function Invalid_argument m | Failure m -> m | e -> Printexc.to_string e

let submit t (req : request) =
  Metrics.submitted t.metrics;
  match Job.key req.job with
  | exception e ->
    Metrics.failed t.metrics;
    Some { id = req.id; client = req.client; reply = Error (error_text e) }
  | key -> (
    match Option.bind t.cache (fun c -> Cache.find c key) with
    | Some { result; escaped } ->
      Metrics.hit t.metrics;
      Some
        {
          id = req.id;
          client = req.client;
          reply =
            Result { origin = Hit; key; wall_us = 0; result; escaped = Lazy.force escaped };
        }
    | None -> (
      match (if t.coalesce then Hashtbl.find_opt t.by_key key else None) with
      | Some comp ->
        Metrics.coalesced t.metrics;
        Queue.push req comp.waiters;
        None
      | None ->
        if t.queued >= t.queue_bound then begin
          Metrics.shed t.metrics;
          Some
            {
              id = req.id;
              client = req.client;
              reply = Shed { retry_after_ms = retry_after_ms t };
            }
        end
        else begin
          Metrics.miss t.metrics;
          let comp = { key; job = req.job; waiters = Queue.create () } in
          Queue.push req comp.waiters;
          if t.coalesce then Hashtbl.replace t.by_key key comp;
          let level = t.levels.(priority_index req.priority) in
          let lane = lane_for level req.client in
          Queue.push comp lane.jobs;
          if not lane.enqueued then begin
            lane.enqueued <- true;
            Queue.push lane level.rotation
          end;
          t.queued <- t.queued + 1;
          Metrics.observe_queue_depth t.metrics t.queued;
          None
        end))

(* Pick the next computation: highest non-empty priority level, then
   round-robin over that level's lanes.  The rotation queue *is* the
   cursor: the served lane goes to the back (or retires when drained),
   so the next pick starts after the last lane served. *)
let next_computation t =
  let rec from_level li =
    if li >= Array.length t.levels then None
    else begin
      let level = t.levels.(li) in
      let rec scan () =
        match Queue.take_opt level.rotation with
        | None -> from_level (li + 1)
        | Some lane -> (
          match Queue.take_opt lane.jobs with
          | None ->
            (* drained while waiting its turn: retire, keep scanning *)
            lane.enqueued <- false;
            Hashtbl.remove level.lanes lane.client;
            scan ()
          | Some comp ->
            if Queue.is_empty lane.jobs then begin
              lane.enqueued <- false;
              Hashtbl.remove level.lanes lane.client
            end
            else Queue.push lane level.rotation;
            Some comp)
      in
      scan ()
    end
  in
  from_level 0

let execute t (comp : computation) =
  let t0 = Clock.now_us t.clock in
  let outcome = try Ok (Job.run comp.job) with e -> Result.Error e in
  let wall_us = Clock.elapsed_us t.clock ~since:t0 in
  if t.coalesce then Hashtbl.remove t.by_key comp.key;
  t.queued <- t.queued - 1;
  (* materialize the waiter FIFO once, in arrival order *)
  let waiters = List.of_seq (Queue.to_seq comp.waiters) in
  match outcome with
  | Ok result ->
    let text = result.Job.text in
    Option.iter
      (fun c -> Cache.put c comp.key { result; escaped = lazy (Json.quote text) })
      t.cache;
    (* one escape for every waiter; the entry makes its own on a hit *)
    let escaped = Json.quote text in
    Metrics.record_latency_us t.metrics wall_us;
    Metrics.completed t.metrics (List.length waiters);
    Metrics.add_events t.metrics result.Job.events;
    t.wall_us_total <- t.wall_us_total + wall_us;
    t.computations_done <- t.computations_done + 1;
    List.mapi
      (fun i (req : request) ->
        let origin = if i = 0 then Cold else Coalesced in
        {
          id = req.id;
          client = req.client;
          reply = Result { origin; key = comp.key; wall_us; result; escaped };
        })
      waiters
  | Error e ->
    Metrics.failed t.metrics;
    let msg = error_text e in
    List.map
      (fun (req : request) -> { id = req.id; client = req.client; reply = Error msg })
      waiters

let drain t =
  let rec go acc =
    match next_computation t with
    | None -> List.rev acc
    | Some comp -> go (List.rev_append (execute t comp) acc)
  in
  go []
