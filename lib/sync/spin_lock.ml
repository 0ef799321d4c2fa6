module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Ordering = Armb_core.Ordering

type t = { addr : int }

let create m = { addr = Machine.alloc_line m }

let try_acquire t (c : Core.t) =
  let old = Core.await c (Core.cas ~acq:true c t.addr ~expected:0L ~desired:1L) in
  Int64.equal old 0L

let acquire ?(use_ldar = true) t (c : Core.t) =
  let rec attempt backoff =
    (* Test-and-test-and-set: spin read-only until the lock looks free,
       then try the atomic — keeps the line in shared state while
       waiting instead of hammering it with exclusive requests. *)
    let v = Core.await c (Core.load c t.addr) in
    let v = if Int64.equal v 0L then v else Core.spin_until c t.addr (Int64.equal 0L) in
    ignore v;
    let old =
      if use_ldar then Core.await c (Core.cas ~acq:true c t.addr ~expected:0L ~desired:1L)
      else Core.await c (Core.cas c t.addr ~expected:0L ~desired:1L)
    in
    if Int64.equal old 0L then begin
      if not use_ldar then Core.barrier c (Barrier.Dmb Ld)
    end
    else begin
      Core.compute c backoff;
      attempt (Int.min (backoff * 2) 512)
    end
  in
  attempt 4

let release ?(barrier = Ordering.Bar (Barrier.Dmb Full)) t (c : Core.t) =
  match barrier with
  | Ordering.No_barrier -> Core.store c t.addr 0L
  | Ordering.Stlr_release -> Core.stlr c t.addr 0L
  | Ordering.Bar b ->
    Core.barrier c b;
    Core.store c t.addr 0L
  | other ->
    invalid_arg ("Spin_lock.release: unsupported barrier " ^ Ordering.to_string other)
