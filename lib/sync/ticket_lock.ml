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
