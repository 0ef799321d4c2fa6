module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Ordering = Armb_core.Ordering
module Pilot = Armb_core.Pilot

type barriers =
  | Fenced of { avail : Ordering.t; publish : Ordering.t; consumer_guard : bool }
  | Pilot

let combos =
  let fenced avail publish consumer_guard = Fenced { avail; publish; consumer_guard } in
  let dmb kind = Ordering.Bar (Barrier.Dmb kind) in
  [
    ("DMB full - DMB full", fenced (dmb Full) (dmb Full) true);
    ("DMB full - DMB st", fenced (dmb Full) (dmb St) true);
    ("DMB ld - DMB st", fenced (dmb Ld) (dmb St) true);
    ("LDAR - DMB st", fenced Ordering.Ldar_acquire (dmb St) true);
    ("DMB full - STLR", fenced (dmb Full) Ordering.Stlr_release true);
    ("DMB ld - No Barrier", fenced (dmb Ld) Ordering.No_barrier false);
    ("Ideal", fenced Ordering.No_barrier Ordering.No_barrier false);
  ]

let combo_names = List.map fst combos

let combo name =
  match List.find_opt (fun (n, _) -> String.equal n name) combos with
  | Some (_, barriers) -> barriers
  | None -> invalid_arg ("Spsc_ring.combo: unknown combination " ^ name)

(* Removing the publish barrier is unsound by design: such a ring is a
   performance reference only, and its payloads are not checked. *)
let sound = function
  | Fenced { publish = Ordering.No_barrier; _ } -> false
  | Fenced _ | Pilot -> true

type spec = {
  cfg : Armb_cpu.Config.t;
  producer_core : int;
  consumer_core : int;
  slots : int;
  messages : int;
  produce_nops : int;
  consume_nops : int;
  barriers : barriers;
  fault : Armb_fault.Plan.spec option;
}

let default_spec cfg ~cores =
  let p, c = cores in
  {
    cfg;
    producer_core = p;
    consumer_core = c;
    slots = 32;
    messages = 4000;
    produce_nops = 20;
    consume_nops = 2;
    barriers = combo "DMB ld - DMB st";
    fault = None;
  }

type result = {
  throughput : float;
  cycles : int;
  fallbacks : int;
  lines_touched : Armb_mem.Memsys.counters;
}

(* Payload of message [i]: a Knuth hash of the index, truncated so it
   survives the Pilot shuffle round trip in both word widths. *)
let payload i = Int64.of_int ((i * 2654435761) land 0x3FFFFFFF)

(* ---------- the channel ---------- *)

type chan = {
  barriers : barriers;
  slots : int;
  words : int;  (* lanes per message, one cache line each *)
  prod_cnt : int;  (* fenced only *)
  cons_cnt : int;
  buf : int;
  lines : Pilot.line array;  (* Pilot only: one channel per lane *)
  mutable sent : int;
  mutable received : int;
  mutable fallbacks : int;
}

(* Lane [w] of [slot] is line [slot * words + w] of the buffer. *)
let lane ch ~slot w = (slot * ch.words) + w

let lane_addr ch ~slot w = ch.buf + (lane ch ~slot w * 64)

(* Fenced: [prodCnt], [consCnt], then the lanes.  Pilot has no
   [prodCnt]: [consCnt], then the lanes, each its own Pilot channel
   drawing on one pool seeded [seed]. *)
let make m barriers ~slots ~words ~seed =
  let prod_cnt = match barriers with Fenced _ -> Machine.alloc_line m | Pilot -> -1 in
  let cons_cnt = Machine.alloc_line m in
  let buf = Machine.alloc_lines m (slots * words) in
  let lines =
    match barriers with
    | Fenced _ -> [||]
    | Pilot ->
      let pool = Pilot.make_pool ~seed () in
      Array.init (slots * words) (fun lane -> Pilot.line pool ~data:(buf + (lane * 64)))
  in
  { barriers; slots; words; prod_cnt; cons_cnt; buf; lines; sent = 0; received = 0; fallbacks = 0 }

let chan m barriers ~slots ~seed = make m barriers ~slots ~words:1 ~seed

(* Algorithm 2 lines 1-3: wait for a free slot, then order that load
   before the fill.  Pilot keeps the line-3 DMB ld (§4.4). *)
let reserve ch (c : Core.t) =
  let i = ch.sent in
  let avail v = Int64.to_int v > i - ch.slots in
  if not (avail (Core.await c (Core.load c ch.cons_cnt))) then
    ignore (Core.spin_until c ch.cons_cnt avail);
  match ch.barriers with
  | Pilot -> Core.barrier c (Barrier.Dmb Ld)
  | Fenced { avail = Ordering.No_barrier; _ } -> ()
  | Fenced { avail = Ordering.Bar b; _ } -> Core.barrier c b
  | Fenced { avail = Ordering.Ldar_acquire; _ } ->
    (* re-read the counter with acquire semantics (hits in L1) *)
    ignore (Core.await c (Core.ldar c ch.cons_cnt))
  | Fenced { avail; _ } ->
    invalid_arg ("Spsc_ring: unsupported availability approach " ^ Ordering.to_string avail)

(* Algorithm 2 lines 4-6: lane [w] carries [v + w]; a fenced ring then
   bumps [prodCnt] under the publish ordering (line 5 is the fatal
   barrier strictly following the remote fill), Pilot sends each lane
   on its own line and needs no counter. *)
let publish ch (c : Core.t) v =
  let i = ch.sent in
  let slot = i mod ch.slots in
  (match ch.barriers with
  | Pilot ->
    for w = 0 to ch.words - 1 do
      if Pilot.send c ch.lines.(lane ch ~slot w) (Int64.add v (Int64.of_int w)) then
        ch.fallbacks <- ch.fallbacks + 1
    done
  | Fenced { publish; _ } -> (
    for w = 0 to ch.words - 1 do
      Core.store c (lane_addr ch ~slot w) (Int64.add v (Int64.of_int w))
    done;
    let count = Int64.of_int (i + 1) in
    match publish with
    | Ordering.Stlr_release -> Core.stlr c ch.prod_cnt count
    | Ordering.No_barrier -> Core.store c ch.prod_cnt count
    | Ordering.Bar b ->
      Core.barrier c b;
      Core.store c ch.prod_cnt count
    | other ->
      invalid_arg ("Spsc_ring: unsupported publish approach " ^ Ordering.to_string other)));
  ch.sent <- i + 1

let send ch c v =
  reserve ch c;
  publish ch c v

(* The one-message-at-a-time consumer: wait for the next message, hand
   each lane's value to [f], spend [nops], then free the slot. *)
let take ch (c : Core.t) ~nops f =
  let i = ch.received in
  let slot = i mod ch.slots in
  (match ch.barriers with
  | Fenced { consumer_guard; _ } ->
    ignore (Core.spin_until c ch.prod_cnt (fun v -> Int64.to_int v > i));
    if consumer_guard then Core.barrier c (Barrier.Dmb Ld);
    (* issue every lane's load, then await them in order: the misses
       pipeline, as in the windowed Pilot consumer *)
    let toks = Array.init ch.words (fun w -> Core.load c (lane_addr ch ~slot w)) in
    Array.iteri (fun w tok -> f w (Core.await c tok)) toks
  | Pilot ->
    for w = 0 to ch.words - 1 do
      f w (Pilot.recv c ch.lines.(lane ch ~slot w))
    done);
  Core.compute c nops;
  Core.store c ch.cons_cnt (Int64.of_int (i + 1));
  ch.received <- i + 1

let recv ch c =
  let v = ref 0L in
  take ch c ~nops:0 (fun _ x -> v := x);
  !v

(* ---------- the ring's consumers ---------- *)

let verify ~check i w v =
  if check then begin
    let want = Int64.add (payload i) (Int64.of_int w) in
    if not (Int64.equal v want) then
      failwith
        (Printf.sprintf "Spsc_ring: message %d word %d corrupted: got %Ld, expected %Ld" i w v
           want)
  end

(* Figure 6(a): the consumer drains every available message per
   counter observation (one guard barrier covers the batch, slot loads
   pipeline), so the producer is the bottleneck — the regime the
   paper's §4.1 sets up. *)
let drain (spec : spec) ch ~consumer_guard ~check (c : Core.t) =
  let consumed = ref 0 in
  while !consumed < spec.messages do
    let i = !consumed in
    let avail =
      Int64.to_int (Core.spin_until c ch.prod_cnt (fun v -> Int64.to_int v > i))
    in
    if consumer_guard then Core.barrier c (Barrier.Dmb Ld);
    let last = Int.min avail spec.messages in
    (* issue all slot loads of the batch, then await them in order *)
    let toks =
      List.init (last - i) (fun k ->
          (i + k, Core.load c (lane_addr ch ~slot:((i + k) mod spec.slots) 0)))
    in
    List.iter
      (fun (j, tok) ->
        verify ~check j 0 (Core.await c tok);
        Core.compute c spec.consume_nops)
      toks;
    consumed := last;
    Core.store c ch.cons_cnt (Int64.of_int last)
  done

(* Figures 6(b) and 6(c): Pilot's change detection makes speculative
   reads safe — a load issued before the producer writes the slot just
   observes the old value and decodes to "nothing new".  The consumer
   therefore keeps a small pipelined window of slot loads in flight, so
   back-to-back deliveries do not serialize on one miss latency per
   message. *)
let window (spec : spec) ch ~check (c : Core.t) =
  let words = ch.words in
  let window = Int.min spec.slots 4 in
  let toks : (Core.token * Core.token) Queue.t = Queue.create () in
  let next_issue = ref 0 in
  let issue_up_to target =
    while !next_issue < target && !next_issue < spec.messages * words do
      let k = !next_issue in
      let l = ch.lines.(lane ch ~slot:(k / words mod spec.slots) (k mod words)) in
      Queue.push (Core.load c l.Pilot.data, Core.load c (l.Pilot.data + 8)) toks;
      incr next_issue
    done
  in
  issue_up_to (window * words);
  for i = 0 to spec.messages - 1 do
    let slot = i mod spec.slots in
    for w = 0 to words - 1 do
      let l = ch.lines.(lane ch ~slot w) in
      let d_tok, f_tok = Queue.pop toks in
      let d = Core.await c d_tok and f = Core.await c f_tok in
      let v =
        match Pilot.decode l ~data:d ~flag:f with
        | Some v -> v
        | None ->
          (* not arrived yet: fall back to watching the slot line *)
          Pilot.recv c l
      in
      verify ~check i w v
    done;
    Core.compute c spec.consume_nops;
    Core.store c ch.cons_cnt (Int64.of_int (i + 1));
    issue_up_to (((i + 1) * words) + (window * words))
  done

(* ---------- runs ---------- *)

(* [batched] selects Figure 6(c)'s consumers: a fenced ring then takes
   one whole message at a time. *)
let run_gen ?observer ~words ~batched (spec : spec) =
  if spec.slots <= 0 || spec.messages <= 0 then invalid_arg "Spsc_ring: bad spec";
  if words <= 0 || words > 8 then invalid_arg "Spsc_ring: words must be in 1..8";
  let check = sound spec.barriers in
  let m = Machine.create ?observer ?fault:spec.fault spec.cfg in
  let ch = make m spec.barriers ~slots:spec.slots ~words ~seed:7 in
  let producer (c : Core.t) =
    for i = 0 to spec.messages - 1 do
      reserve ch c;
      (* line 4: produce the message into the shared slot (usually an RMR) *)
      Core.compute c spec.produce_nops;
      publish ch c (payload i);
      Core.compute c 3
    done
  in
  let consumer =
    match spec.barriers with
    | Pilot -> window spec ch ~check
    | Fenced { consumer_guard; _ } when not batched -> drain spec ch ~consumer_guard ~check
    | Fenced _ ->
      fun c ->
        for i = 0 to spec.messages - 1 do
          take ch c ~nops:spec.consume_nops (verify ~check i)
        done
  in
  Machine.spawn m ~core:spec.producer_core producer;
  Machine.spawn m ~core:spec.consumer_core consumer;
  Machine.run_exn m;
  {
    throughput = Machine.throughput m ~ops:spec.messages;
    cycles = Machine.elapsed m;
    fallbacks = ch.fallbacks;
    lines_touched = Armb_mem.Memsys.counters (Machine.mem m);
  }

let verified_run ?observer spec = run_gen ?observer ~words:1 ~batched:false spec

let run_batched ~words spec = run_gen ~words ~batched:true spec
