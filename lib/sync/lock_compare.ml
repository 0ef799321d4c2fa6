module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Memsys = Armb_mem.Memsys

type lock_kind = Spin | Ticket | Mcs | Cohort

let lock_name = function
  | Spin -> "Spinlock"
  | Ticket -> "Ticket"
  | Mcs -> "MCS"
  | Cohort -> "Cohort"

let all_locks = [ Spin; Ticket; Mcs; Cohort ]

type spec = {
  cfg : Armb_cpu.Config.t;
  lock : lock_kind;
  cores : int list;
  acquisitions : int;
  cs_lines : int;
  interval_nops : int;
}

let default_spec cfg ~lock ~cores =
  { cfg; lock; cores; acquisitions = 150; cs_lines = 1; interval_nops = 300 }

type result = { throughput : float; cycles : int; cross_node_per_cs : float }

type ops = { acq : Core.t -> slot:int -> unit; rel : Core.t -> slot:int -> unit }

let make_ops spec m =
  match spec.lock with
  | Spin ->
    let l = Spin_lock.create m in
    { acq = (fun c ~slot:_ -> Spin_lock.acquire l c); rel = (fun c ~slot:_ -> Spin_lock.release l c) }
  | Ticket ->
    let l = Ticket_lock.create m in
    {
      acq = (fun c ~slot:_ -> Ticket_lock.acquire l c);
      rel = (fun c ~slot:_ -> Ticket_lock.release l c);
    }
  | Mcs ->
    let l = Mcs_lock.create m ~slots:(List.length spec.cores) in
    { acq = (fun c ~slot -> Mcs_lock.acquire l c ~slot); rel = (fun c ~slot -> Mcs_lock.release l c ~slot) }
  | Cohort ->
    let l = Cohort_lock.create m () in
    { acq = (fun c ~slot:_ -> Cohort_lock.acquire l c); rel = (fun c ~slot:_ -> Cohort_lock.release l c) }

let run spec =
  if spec.cores = [] then invalid_arg "Lock_compare.run: no cores";
  let m = Machine.create spec.cfg in
  let ops = make_ops spec m in
  let shared = Machine.alloc_lines m (Int.max 1 spec.cs_lines) in
  let total = List.length spec.cores * spec.acquisitions in
  let owner = ref None in
  let body slot (c : Core.t) =
    for _ = 1 to spec.acquisitions do
      ops.acq c ~slot;
      (match !owner with
      | Some o ->
        failwith
          (Printf.sprintf "%s: mutual exclusion violated (%d and %d inside)"
             (lock_name spec.lock) o (Core.id c))
      | None -> owner := Some (Core.id c));
      for k = 0 to spec.cs_lines - 1 do
        let a = shared + (k * 64) in
        let v = Core.await c (Core.load c a) in
        Core.store c a (Int64.add v 1L)
      done;
      Core.compute c 2;
      owner := None;
      ops.rel c ~slot;
      Core.compute c spec.interval_nops
    done
  in
  List.iteri (fun slot core -> Machine.spawn m ~core (body slot)) spec.cores;
  Memsys.reset_counters (Machine.mem m);
  Machine.run_exn m;
  (* the first CS line absorbed one increment per critical section *)
  let count = Memsys.load_value (Machine.mem m) ~addr:shared in
  if spec.cs_lines > 0 && Int64.to_int count <> total then
    failwith
      (Printf.sprintf "%s: counter %Ld, expected %d" (lock_name spec.lock) count total);
  let ctr = Memsys.counters (Machine.mem m) in
  {
    throughput = Machine.throughput m ~ops:total;
    cycles = Machine.elapsed m;
    cross_node_per_cs = float_of_int ctr.Memsys.cross_node_transfers /. float_of_int total;
  }
