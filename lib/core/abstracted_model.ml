module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine

type mem_ops = No_mem | Store_store | Load_store | Load_load

type location = Loc1 | Loc2

type spec = {
  cfg : Armb_cpu.Config.t;
  cores : int * int;
  mem_ops : mem_ops;
  approach : Ordering.t;
  location : location;
  nops : int;
  iters : int;
  buffer_lines : int;
}

let default_spec cfg =
  {
    cfg;
    cores = (0, 1);
    mem_ops = Store_store;
    approach = Ordering.No_barrier;
    location = Loc1;
    nops = 100;
    iters = 2000;
    buffer_lines = 64;
  }

let label spec =
  let base = Ordering.to_string spec.approach in
  match spec.approach with
  | Ordering.Bar _ -> base ^ (match spec.location with Loc1 -> "-1" | Loc2 -> "-2")
  | _ -> base

let first_is_load spec =
  match spec.mem_ops with Load_store | Load_load -> true | No_mem | Store_store -> false

let second_is_store spec =
  match spec.mem_ops with Store_store | Load_store -> true | No_mem | Load_load -> false

let valid spec =
  spec.nops >= 0 && spec.iters > 0 && spec.buffer_lines > 0
  &&
  match spec.mem_ops with
  | No_mem -> ( match spec.approach with Ordering.No_barrier | Ordering.Bar _ -> true | _ -> false)
  | _ ->
    (not (Ordering.requires_leading_load spec.approach && not (first_is_load spec)))
    && not (Ordering.requires_trailing_store spec.approach && not (second_is_store spec))

(* The barrier at X-1, the NOPs, the barrier at X-2. *)
let between c ~barrier1 ~nops ~barrier2 =
  (match barrier1 with Some b -> Core.barrier c b | None -> ());
  Core.compute c nops;
  match barrier2 with Some b -> Core.barrier c b | None -> ()

(* One thread's loop body, Algorithm 1 step by step.  Both threads walk
   the same two line streams half a buffer apart, so each line a thread
   touches was last written by the other thread — every access around
   the barrier is a remote memory reference, as in the paper's harness,
   without the two threads colliding on the same line at the same
   instant.  Everything the loop reads is decided before it starts, so
   an iteration builds no closure, option or boxed value (beyond the
   DATA store's value). *)
let thread_body spec ~buf_a ~buf_b ~phase (c : Core.t) =
  let loop_overhead = 3 in
  (* add x0 / add x1 / add-cmp-branch of Algorithm 1 *)
  let lines = spec.buffer_lines and nops = spec.nops in
  let offset = if phase = 0 then 0 else lines / 2 in
  let load_first = first_is_load spec and store_second = second_is_store spec in
  let store_first = spec.mem_ops = Store_store and load_second = spec.mem_ops = Load_load in
  let barrier1, barrier2 =
    match (spec.approach, spec.location) with
    | Ordering.Bar b, Loc1 -> (Some b, None)
    | Ordering.Bar b, Loc2 -> (None, Some b)
    | _ -> (None, None)
  in
  let approach = spec.approach in
  let acquire = approach = Ordering.Ldar_acquire and release = approach = Ordering.Stlr_release in
  let data = approach = Ordering.Data_dep and addr = approach = Ordering.Addr_dep in
  let isb = approach = Ordering.Ctrl_isb in
  let bogus = data || addr || isb || approach = Ordering.Ctrl_dep in
  for i = 0 to spec.iters - 1 do
    let slot = (i + offset) mod lines in
    let addr_a = buf_a + (slot * 64) and addr_b = buf_b + (slot * 64) in
    (* First access.  A bogus dependency awaits a first load after the
       NOPs (which overlap its miss), spends one ALU op and xors the
       value with itself: a zero the core cannot predict. *)
    let zero =
      if load_first then begin
        let tok = if acquire then Core.ldar c addr_a else Core.load c addr_a in
        between c ~barrier1 ~nops ~barrier2;
        if bogus then begin
          let v = Core.await c tok in
          Core.compute c 1;
          Int64.to_int (Int64.logxor v v)
        end
        else 0
      end
      else begin
        if store_first then Core.store c addr_a 1L;
        between c ~barrier1 ~nops ~barrier2;
        0
      end
    in
    (* Second access: DATA folds the zero into the stored value, ADDR
       into the address; CTRL branches on it (always taken), CTRL+ISB
       adds an ISB behind the branch. *)
    if zero = 0 then begin
      if isb then Core.barrier c Barrier.Isb;
      let addr_b = if addr then addr_b + zero else addr_b in
      if store_second then
        if release then Core.stlr c addr_b 2L
        else Core.store c addr_b (if data then Int64.of_int (2 + zero) else 2L)
      else if load_second then ignore (Core.load c addr_b)
    end;
    Core.compute c loop_overhead
  done

let run_stats spec =
  if not (valid spec) then
    invalid_arg
      (Printf.sprintf "Abstracted_model: invalid combination (%s)" (label spec));
  let m = Machine.create spec.cfg in
  let buf_a = Machine.alloc_lines m spec.buffer_lines in
  let buf_b = Machine.alloc_lines m spec.buffer_lines in
  let c0, c1 = spec.cores in
  Machine.spawn m ~core:c0 (thread_body spec ~buf_a ~buf_b ~phase:0);
  Machine.spawn m ~core:c1 (thread_body spec ~buf_a ~buf_b ~phase:1);
  Machine.run_exn m;
  (Machine.elapsed m, Armb_sim.Event_queue.processed (Machine.queue m))

(* Per-thread loop throughput, as reported in the paper's figures. *)
let run spec =
  Armb_sim.Stats.throughput_per_sec ~ops:spec.iters ~cycles:(fst (run_stats spec))
    ~freq_ghz:spec.cfg.freq_ghz
