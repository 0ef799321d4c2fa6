module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Pilot = Armb_core.Pilot

type spec = {
  cfg : Armb_cpu.Config.t;
  producer_core : int;
  consumer_core : int;
  slots : int;
  messages : int;
  produce_nops : int;
  consume_nops : int;
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
    fault = None;
  }

type result = {
  throughput : float;
  cycles : int;
  fallbacks : int;
  lines_touched : Armb_mem.Memsys.counters;
}

let payload = Armb_primitives.Message.payload

(* The producer still guards buffer reuse with the availability barrier
   (Algorithm 2 line 3 survives Pilot, §4.4). *)
let wait_free (c : Core.t) ~cons_cnt ~slots i =
  let avail v = Int64.to_int v > i - slots in
  let v = Core.await c (Core.load c cons_cnt) in
  if not (avail v) then ignore (Core.spin_until c cons_cnt avail);
  Core.barrier c (Barrier.Dmb Ld)

let producer spec ~cons_cnt ~lines ~fallbacks ~words ~msg_of (c : Core.t) =
  for i = 0 to spec.messages - 1 do
    wait_free c ~cons_cnt ~slots:spec.slots i;
    Core.compute c spec.produce_nops;
    let slot = i mod spec.slots in
    for w = 0 to words - 1 do
      (* one Pilot channel per 8-byte slice of the slot *)
      if Pilot.send c lines.((slot * words) + w) (msg_of i w) then incr fallbacks
    done;
    Core.compute c 3
  done

(* Pilot's change detection makes speculative reads safe: a load issued
   before the producer writes the slot just observes the old value and
   decodes to "nothing new".  The consumer therefore keeps a small
   pipelined window of slot loads in flight, so back-to-back deliveries
   do not serialize on one miss latency per message. *)
let consumer spec ~cons_cnt ~lines ~words ~msg_of ~check (c : Core.t) =
  let window = Int.min spec.slots 4 in
  let toks : (Core.token * Core.token) Queue.t = Queue.create () in
  let next_issue = ref 0 in
  let issue_up_to target =
    while !next_issue < target && !next_issue < spec.messages * words do
      let chan_of k = (k / words mod spec.slots * words) + (k mod words) in
      let l = lines.(chan_of !next_issue) in
      Queue.push (Core.load c l.Pilot.data, Core.load c (l.Pilot.data + 8)) toks;
      incr next_issue
    done
  in
  issue_up_to (window * words);
  for i = 0 to spec.messages - 1 do
    let slot = i mod spec.slots in
    for w = 0 to words - 1 do
      let l = lines.((slot * words) + w) in
      let d_tok, f_tok = Queue.pop toks in
      let d = Core.await c d_tok and f = Core.await c f_tok in
      let v =
        match Pilot.decode l ~data:d ~flag:f with
        | Some v -> v
        | None ->
          (* not arrived yet: fall back to watching the slot line *)
          Pilot.recv c l
      in
      if check && not (Int64.equal v (msg_of i w)) then
        failwith
          (Printf.sprintf "Pilot_ring: message %d word %d corrupted: got %Ld, expected %Ld"
             i w v (msg_of i w))
    done;
    Core.compute c spec.consume_nops;
    Core.store c cons_cnt (Int64.of_int (i + 1));
    issue_up_to (((i + 1) * words) + (window * words))
  done

let run_words ?(seed = 7) ?(check = true) ~words spec =
  if words <= 0 || words > 8 then invalid_arg "Pilot_ring: words must be in 1..8";
  if spec.slots <= 0 || spec.messages <= 0 then invalid_arg "Pilot_ring: bad spec";
  let m = Machine.create ?fault:spec.fault spec.cfg in
  let cons_cnt = Machine.alloc_line m in
  (* one line per slice so each Pilot channel has its own line *)
  let buf = Machine.alloc_lines m (spec.slots * words) in
  let pool = Pilot.make_pool ~seed () in
  let lines =
    Array.init (spec.slots * words) (fun chan ->
        Pilot.line pool ~data:(Armb_primitives.Message.lane_addr ~buf chan))
  in
  let fallbacks = ref 0 in
  let msg_of i w = Int64.add (payload i) (Int64.of_int w) in
  Machine.spawn m ~core:spec.producer_core
    (producer spec ~cons_cnt ~lines ~fallbacks ~words ~msg_of);
  Machine.spawn m ~core:spec.consumer_core (consumer spec ~cons_cnt ~lines ~words ~msg_of ~check);
  Machine.run_exn m;
  {
    throughput = Machine.throughput m ~ops:spec.messages;
    cycles = Machine.elapsed m;
    fallbacks = !fallbacks;
    lines_touched = Armb_mem.Memsys.counters (Machine.mem m);
  }

let run ?seed ?check spec = run_words ?seed ?check ~words:1 spec

let run_batched ?seed ?check ~words spec = run_words ?seed ?check ~words spec

let run_batched_baseline ?(check = true) ~words spec =
  if words <= 0 || words > 8 then invalid_arg "Pilot_ring: words must be in 1..8";
  let m = Machine.create ?fault:spec.fault spec.cfg in
  let prod_cnt = Machine.alloc_line m in
  let cons_cnt = Machine.alloc_line m in
  let buf = Machine.alloc_lines m (spec.slots * words) in
  let msg_of i w = Int64.add (payload i) (Int64.of_int w) in
  let producer (c : Core.t) =
    for i = 0 to spec.messages - 1 do
      wait_free c ~cons_cnt ~slots:spec.slots i;
      Core.compute c spec.produce_nops;
      let slot = i mod spec.slots in
      for w = 0 to words - 1 do
        Core.store c (buf + (((slot * words) + w) * 64)) (msg_of i w)
      done;
      Core.barrier c (Barrier.Dmb St);
      Core.store c prod_cnt (Int64.of_int (i + 1));
      Core.compute c 3
    done
  in
  let consumer (c : Core.t) =
    for i = 0 to spec.messages - 1 do
      ignore (Core.spin_until c prod_cnt (fun v -> Int64.to_int v > i));
      Core.barrier c (Barrier.Dmb Ld);
      let slot = i mod spec.slots in
      (* issue all word loads, then await: misses pipeline, as in the
         Pilot consumer, so the comparison isolates the barriers *)
      let toks =
        List.init words (fun w -> (w, Core.load c (buf + (((slot * words) + w) * 64))))
      in
      List.iter
        (fun (w, tok) ->
          let v = Core.await c tok in
          if check && not (Int64.equal v (msg_of i w)) then
            failwith (Printf.sprintf "baseline ring: message %d word %d corrupted" i w))
        toks;
      Core.compute c spec.consume_nops;
      Core.store c cons_cnt (Int64.of_int (i + 1))
    done
  in
  Machine.spawn m ~core:spec.producer_core producer;
  Machine.spawn m ~core:spec.consumer_core consumer;
  Machine.run_exn m;
  {
    throughput = Machine.throughput m ~ops:spec.messages;
    cycles = Machine.elapsed m;
    fallbacks = 0;
    lines_touched = Armb_mem.Memsys.counters (Machine.mem m);
  }
