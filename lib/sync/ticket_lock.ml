module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Ordering = Armb_core.Ordering

(* next-ticket and now-serving words share the lock's cache line, as in
   compact kernel ticket locks. *)
type t = { next_addr : int; serving_addr : int }

(* Simulator instance of the shared ticket-lock protocol body
   (Armb_primitives.Ticket_proto): the ticket comes from an acquire RMW,
   a waiter parks on the serving word's watch list, the successful spin
   read gets acquire semantics from DMB ld, and the release-side
   ordering is chosen per call — the lock's experiment axis. *)
module Substrate = struct
  type ctx = { core : Core.t; release_barrier : Ordering.t }
  type lock = t
  type value = int64

  let succ = Int64.add 1L
  let equal = Int64.equal
  let take_ticket ctx l = Core.await ctx.core (Core.fetch_add ~acq:true ctx.core l.next_addr 1L)
  let read_serving ctx l = Core.await ctx.core (Core.load ctx.core l.serving_addr)
  let wait_serving ctx l my = ignore (Core.spin_until ctx.core l.serving_addr (Int64.equal my))

  (* Acquire semantics for the successful spin read. *)
  let acquired_fence ctx = Core.barrier ctx.core (Barrier.Dmb Ld)

  let publish_serving ctx l v =
    match ctx.release_barrier with
    | Ordering.No_barrier -> Core.store ctx.core l.serving_addr v
    | Ordering.Stlr_release -> Core.stlr ctx.core l.serving_addr v
    | Ordering.Bar b ->
      Core.barrier ctx.core b;
      Core.store ctx.core l.serving_addr v
    | other ->
      invalid_arg ("Ticket_lock.release: unsupported barrier " ^ Ordering.to_string other)
end

module Proto = Armb_primitives.Ticket_proto.Make (Substrate)

let create m =
  let base = Machine.alloc_line m in
  { next_addr = base; serving_addr = base + 8 }

let acquire t (c : Core.t) =
  Proto.acquire { core = c; release_barrier = Ordering.No_barrier } t

let release ?(barrier = Ordering.Bar (Barrier.Dmb Full)) t (c : Core.t) =
  Proto.release { core = c; release_barrier = barrier } t

let has_waiters t (c : Core.t) =
  let next = Core.await c (Core.load c t.next_addr) in
  let serving = Core.await c (Core.load c t.serving_addr) in
  Int64.compare next (Int64.add serving 1L) > 0

type spec = {
  cfg : Armb_cpu.Config.t;
  cores : int list;
  acquisitions : int;
  cs_lines : int;
  interval_nops : int;
  release_barrier : Ordering.t;
}

let default_spec cfg ~cores =
  {
    cfg;
    cores;
    acquisitions = 300;
    cs_lines = 1;
    interval_nops = 300;
    release_barrier = Ordering.Bar (Barrier.Dmb Full);
  }

type result = { throughput : float; cycles : int }

let run spec =
  if spec.cores = [] then invalid_arg "Ticket_lock.run: no cores";
  let m = Machine.create spec.cfg in
  let lock = create m in
  let shared = Machine.alloc_lines m (Int.max 1 spec.cs_lines) in
  (* Host-side mutual-exclusion oracle. *)
  let owner = ref None in
  let total = List.length spec.cores * spec.acquisitions in
  let body (c : Core.t) =
    for _ = 1 to spec.acquisitions do
      acquire lock c;
      (match !owner with
      | Some o ->
        failwith
          (Printf.sprintf "Ticket_lock: mutual exclusion violated (%d and %d inside)" o
             (Core.id c))
      | None -> owner := Some (Core.id c));
      (* Read-modify a configurable number of global lines. *)
      for k = 0 to spec.cs_lines - 1 do
        let a = shared + (k * 64) in
        let v = Core.await c (Core.load c a) in
        Core.store c a (Int64.add v 1L)
      done;
      Core.compute c 2;
      owner := None;
      release ~barrier:spec.release_barrier lock c;
      Core.compute c spec.interval_nops
    done
  in
  List.iter (fun core -> Machine.spawn m ~core body) spec.cores;
  Machine.run_exn m;
  { throughput = Machine.throughput m ~ops:total; cycles = Machine.elapsed m }
