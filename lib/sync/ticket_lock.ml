module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Ordering = Armb_core.Ordering

(* next-ticket and now-serving words share the lock's cache line, as in
   compact kernel ticket locks. *)
type t = { next_addr : int; serving_addr : int }

let create m =
  let base = Machine.alloc_line m in
  { next_addr = base; serving_addr = base + 8 }

(* Take a ticket with an acquire RMW, read now-serving once, park on its
   line's watch list unless it is already ours, and give the successful
   read acquire semantics with DMB ld. *)
let acquire t (c : Core.t) =
  let my = Core.await c (Core.fetch_add ~acq:true c t.next_addr 1L) in
  let serving = Core.await c (Core.load c t.serving_addr) in
  if not (Int64.equal serving my) then
    ignore (Core.spin_until c t.serving_addr (Int64.equal my));
  Core.barrier c (Barrier.Dmb Ld)

(* Publish the bumped now-serving word with the ordering the caller
   chose: the lock's experiment axis. *)
let release ?(barrier = Ordering.Bar (Barrier.Dmb Full)) t (c : Core.t) =
  let next = Int64.add (Core.await c (Core.load c t.serving_addr)) 1L in
  match barrier with
  | Ordering.No_barrier -> Core.store c t.serving_addr next
  | Ordering.Stlr_release -> Core.stlr c t.serving_addr next
  | Ordering.Bar b ->
    Core.barrier c b;
    Core.store c t.serving_addr next
  | other -> invalid_arg ("Ticket_lock.release: unsupported barrier " ^ Ordering.to_string other)

let has_waiters t (c : Core.t) =
  let next = Core.await c (Core.load c t.next_addr) in
  let serving = Core.await c (Core.load c t.serving_addr) in
  Int64.compare next (Int64.add serving 1L) > 0
