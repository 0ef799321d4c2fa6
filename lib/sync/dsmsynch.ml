module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Pilot = Armb_core.Pilot

type critical = Core.t -> client:int -> int64 -> int64

(* Node layout (one cache line each):
     +0   release word.  Normal mode: 0 while waiting, 1 when released.
          Pilot mode: the Pilot channel word carrying the packed
          payload below.
     +8   pilot fallback flag word
     +16  request argument
     +24  next-node address (0 = not yet linked)
     +32  return value (normal mode)
     +40  completed flag (normal mode; 0 = combiner handoff)
   A node's request is valid once its next pointer is non-zero: the
   announcer writes req, a DMB st, then next.

   Release payloads use the shared delegation encoding
   (Armb_primitives.Delegation): (ret << 2) | (completed ? 3 : 1). *)

module Delegation = Armb_primitives.Delegation.Over_int64

let pack = Delegation.pack

let unpack = Delegation.unpack

type t = {
  parties : int;
  pilot : bool;
  combine_bound : int;
  critical : critical;
  tail : int;
  base : int; (* node i is the line at base + 64 * i; the boot node is last *)
  lines : Pilot.line array; (* node i's release word and fallback flag *)
  spare : int array; (* per party: node to donate next *)
  mutable combine_count : int;
}

let create m ~parties ?(pilot = false) ?(combine_bound = 64) ~critical () =
  if parties <= 0 then invalid_arg "Dsmsynch.create: no parties";
  if combine_bound < 1 then invalid_arg "Dsmsynch.create: combine_bound < 1";
  let tail = Machine.alloc_line m in
  let base = Machine.alloc_lines m (parties + 1) in
  let boot = base + (parties * 64) in
  let pool = Pilot.make_pool ~seed:13 () in
  let lines = Array.init (parties + 1) (fun i -> Pilot.line pool ~data:(base + (i * 64))) in
  let mem = Machine.mem m in
  (* Seed: tail -> boot, already released as "you are the combiner". *)
  Armb_mem.Memsys.commit_store mem ~addr:tail (Int64.of_int boot);
  (if pilot then
     match Pilot.encode lines.(parties).tx (pack ~ret:0L ~completed:false) with
     | Pilot.Write_data v -> Armb_mem.Memsys.commit_store mem ~addr:boot v
     | Pilot.Toggle_flag -> assert false
   else
     (* released as combiner handoff: wait=1, completed word stays 0 *)
     Armb_mem.Memsys.commit_store mem ~addr:boot 1L);
  {
    parties;
    pilot;
    combine_bound;
    critical;
    tail;
    base;
    lines;
    spare = Array.init parties (fun i -> base + (i * 64));
    combine_count = 0;
  }

let combines t = t.combine_count

let line t node = t.lines.((node - t.base) / 64)

let release_node t (c : Core.t) node ~ret ~completed =
  if t.pilot then
    (* Algorithm 6: one single-copy-atomic store carries both the
       return value and the completed/handoff bit — no barrier after
       the RMR. *)
    ignore (Pilot.send c (line t node) (pack ~ret ~completed))
  else begin
    (* Real DSM-Synch: store the return value into the waiter's node
       (a remote memory reference), then a barrier strictly after it,
       then flip the wait word — the paper's fatal pattern. *)
    Core.store c (node + 32) ret;
    Core.store c (node + 40) (if completed then 1L else 0L);
    Core.barrier c (Barrier.Dmb St);
    Core.store c node 1L
  end

let await_release t (c : Core.t) node =
  if t.pilot then unpack (Pilot.recv c (line t node))
  else begin
    ignore (Core.spin_until c node (fun v -> Int64.equal v 1L));
    Core.barrier c (Barrier.Dmb Ld);
    let ret = Core.await c (Core.load c (node + 32)) in
    let completed = Core.await c (Core.load c (node + 40)) in
    (ret, Int64.equal completed 1L)
  end

let exec t (c : Core.t) ~me arg =
  if me < 0 || me >= t.parties then invalid_arg "Dsmsynch.exec: bad party index";
  let fresh = t.spare.(me) in
  (* Reset the donated node.  The release word is only reset in normal
     mode: the Pilot codec detects changes, not values. *)
  Core.store c (fresh + 24) 0L;
  if not t.pilot then Core.store c fresh 0L;
  Core.barrier c (Barrier.Dmb St);
  let cur =
    Int64.to_int
      (Core.await c (Core.rmw ~acq:true ~rel:true c t.tail (fun _ -> Int64.of_int fresh)))
  in
  (* Announce: request, barrier, then link (next != 0 validates req). *)
  Core.store c (cur + 16) arg;
  Core.barrier c (Barrier.Dmb St);
  Core.store c (cur + 24) (Int64.of_int fresh);
  let ret0, completed = await_release t c cur in
  let ret =
    if completed then ret0
    else begin
      (* Combiner: serve the chain starting at our own node; a node may
         be served only once its next pointer is linked. *)
      let my_ret = ref 0L in
      let tmp = ref cur and budget = ref t.combine_bound and looping = ref true in
      while !looping do
        let nxt = Int64.to_int (Core.await c (Core.load c (!tmp + 24))) in
        if nxt = 0 || !budget = 0 then begin
          (* Hand the combiner role to this node's (future) owner. *)
          release_node t c !tmp ~ret:0L ~completed:false;
          looping := false
        end
        else begin
          let a = Core.await c (Core.load c (!tmp + 16)) in
          let r = t.critical c ~client:me a in
          decr budget;
          if !tmp = cur then my_ret := r
          else begin
            t.combine_count <- t.combine_count + 1;
            release_node t c !tmp ~ret:r ~completed:true
          end;
          tmp := nxt
        end
      done;
      !my_ret
    end
  in
  t.spare.(me) <- cur;
  ret
