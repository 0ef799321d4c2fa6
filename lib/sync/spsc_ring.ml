module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Ordering = Armb_core.Ordering

type barriers = { avail : Ordering.t; publish : Ordering.t; consumer_guard : bool }

let combo = function
  | "DMB full - DMB full" ->
    {
      avail = Ordering.Bar (Barrier.Dmb Full);
      publish = Ordering.Bar (Barrier.Dmb Full);
      consumer_guard = true;
    }
  | "DMB full - DMB st" ->
    {
      avail = Ordering.Bar (Barrier.Dmb Full);
      publish = Ordering.Bar (Barrier.Dmb St);
      consumer_guard = true;
    }
  | "DMB ld - DMB st" ->
    {
      avail = Ordering.Bar (Barrier.Dmb Ld);
      publish = Ordering.Bar (Barrier.Dmb St);
      consumer_guard = true;
    }
  | "LDAR - DMB st" ->
    {
      avail = Ordering.Ldar_acquire;
      publish = Ordering.Bar (Barrier.Dmb St);
      consumer_guard = true;
    }
  | "DMB full - STLR" ->
    {
      avail = Ordering.Bar (Barrier.Dmb Full);
      publish = Ordering.Stlr_release;
      consumer_guard = true;
    }
  | "DMB ld - No Barrier" ->
    {
      avail = Ordering.Bar (Barrier.Dmb Ld);
      publish = Ordering.No_barrier;
      consumer_guard = false;
    }
  | "Ideal" ->
    { avail = Ordering.No_barrier; publish = Ordering.No_barrier; consumer_guard = false }
  | s -> invalid_arg ("Spsc_ring.combo: unknown combination " ^ s)

let combo_names =
  [
    "DMB full - DMB full";
    "DMB full - DMB st";
    "DMB ld - DMB st";
    "LDAR - DMB st";
    "DMB full - STLR";
    "DMB ld - No Barrier";
    "Ideal";
  ]

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
  lines_touched : Armb_mem.Memsys.counters;
}

let payload = Armb_primitives.Message.payload

(* Apply the line-3 ordering right after the availability load. *)
let apply_avail (c : Core.t) approach ~cons_cnt =
  match approach with
  | Ordering.No_barrier -> ()
  | Ordering.Bar b -> Core.barrier c b
  | Ordering.Ldar_acquire ->
    (* Re-read the counter with acquire semantics (hits in L1). *)
    ignore (Core.await c (Core.ldar c cons_cnt))
  | other ->
    invalid_arg ("Spsc_ring: unsupported availability approach " ^ Ordering.to_string other)

let producer spec ~prod_cnt ~cons_cnt ~buf (c : Core.t) =
  for i = 0 to spec.messages - 1 do
    (* Algorithm 2 line 1-2: wait for a free slot. *)
    let avail v = Int64.to_int v > i - spec.slots in
    let ctok = Core.load c cons_cnt in
    let cval = Core.await c ctok in
    if not (avail cval) then ignore (Core.spin_until c cons_cnt avail);
    apply_avail c spec.barriers.avail ~cons_cnt;
    (* line 4: produce the message into the shared slot (usually an RMR). *)
    Core.compute c spec.produce_nops;
    let slot = Armb_primitives.Message.slot_addr ~buf ~slots:spec.slots i in
    (match spec.barriers.publish with
    | Ordering.Stlr_release ->
      Core.store c slot (payload i);
      (* inform the consumer with a store-release of the counter *)
      Core.stlr c prod_cnt (Int64.of_int (i + 1))
    | Ordering.No_barrier ->
      Core.store c slot (payload i);
      Core.store c prod_cnt (Int64.of_int (i + 1))
    | Ordering.Bar b ->
      Core.store c slot (payload i);
      Core.barrier c b;
      Core.store c prod_cnt (Int64.of_int (i + 1))
    | other ->
      invalid_arg ("Spsc_ring: unsupported publish approach " ^ Ordering.to_string other));
    Core.compute c 3
  done

(* The consumer drains every available message per counter observation
   (one guard barrier covers the batch, slot loads pipeline), so the
   producer is the bottleneck — the regime the paper's §4.1 sets up. *)
let consumer spec ~prod_cnt ~cons_cnt ~buf ~check (c : Core.t) =
  let consumed = ref 0 in
  while !consumed < spec.messages do
    let i = !consumed in
    let avail =
      Int64.to_int (Core.spin_until c prod_cnt (fun v -> Int64.to_int v > i))
    in
    if spec.barriers.consumer_guard then Core.barrier c (Barrier.Dmb Ld);
    let last = Int.min avail spec.messages in
    (* issue all slot loads of the batch, then await them in order *)
    let toks =
      List.init (last - i) (fun k ->
          (i + k, Core.load c (Armb_primitives.Message.slot_addr ~buf ~slots:spec.slots (i + k))))
    in
    List.iter
      (fun (j, tok) ->
        let v = Core.await c tok in
        if check && not (Int64.equal v (payload j)) then
          failwith
            (Printf.sprintf "Spsc_ring: message %d corrupted: got %Ld, expected %Ld" j v
               (payload j));
        Core.compute c spec.consume_nops)
      toks;
    consumed := last;
    Core.store c cons_cnt (Int64.of_int last)
  done

let run_gen ?observer spec ~check =
  if spec.slots <= 0 || spec.messages <= 0 then invalid_arg "Spsc_ring: bad spec";
  let m = Machine.create ?observer ?fault:spec.fault spec.cfg in
  let prod_cnt = Machine.alloc_line m in
  let cons_cnt = Machine.alloc_line m in
  let buf = Machine.alloc_lines m spec.slots in
  Machine.spawn m ~core:spec.producer_core (producer spec ~prod_cnt ~cons_cnt ~buf);
  Machine.spawn m ~core:spec.consumer_core (consumer spec ~prod_cnt ~cons_cnt ~buf ~check);
  Machine.run_exn m;
  {
    throughput = Machine.throughput m ~ops:spec.messages;
    cycles = Machine.elapsed m;
    lines_touched = Armb_mem.Memsys.counters (Machine.mem m);
  }

let run ?observer spec = run_gen ?observer spec ~check:false

let verified_run spec =
  let sound = spec.barriers.publish <> Ordering.No_barrier in
  run_gen spec ~check:sound
