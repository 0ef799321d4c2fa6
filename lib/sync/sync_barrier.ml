module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Event_queue = Armb_sim.Event_queue

type kind = Central | Tree of int | Dissemination

let kind_name = function
  | Central -> "central"
  | Tree k -> Printf.sprintf "tree%d" k
  | Dissemination -> "dissemination"

type spec = {
  cfg : Armb_cpu.Config.t;
  kind : kind;
  cores : int list;
  episodes : int;
  work : int;
}

type result = {
  cycles : int;
  episodes : int;
  cycles_per_episode : float;
  events : int;
  counters : Armb_mem.Memsys.counters;
}

(* All three primitives are sense-reversing in the monotone-counter
   style: arrival counters only ever increase and the release word
   carries the episode number, so no counter is ever reset — the reset
   store of the textbook central barrier races the next episode's
   arrivals, and monotone counts sidestep that entirely (the 1024-core
   RISC-V cluster paper does the same).  Episode [ep] is complete at a
   counter when it reaches [ep * width].

   Synchronization is validated host-side, not through simulated loads:
   every core records its arrival in [progress] before joining, and
   checks all peers' recorded arrivals right after its release.  Event
   processing order respects simulated time, and a release observation
   strictly follows every arrival in simulated time, so the check is
   exact and costs no simulated traffic. *)

let check_progress ~kind ~progress ~self ~ep =
  Array.iteri
    (fun j arrived ->
      if arrived < ep then
        raise
          (Machine.Simulation_error
             (Printf.sprintf
                "%s barrier: core slot %d released from episode %d before slot %d arrived \
                 (at %d)"
                (kind_name kind) self ep j arrived)))
    progress

(* Combining tree: groups of [arity] cores share a leaf counter; the
   last arriver at each node climbs to the parent; whoever completes
   the root publishes the episode on the (single, machine-wide) sense
   line.  Arrival traffic is spread over ~n/arity lines; the release is
   one store whose invalidation fans out to every spinning sharer —
   which is exactly the wide-sharer-set path the directory must walk in
   word steps, not per-core.  The central barrier is the tree whose one
   node has all n cores as its width. *)
type tree_node = { addr : int; width : int; parent : int (* -1 at root *) }

let build_tree m ~arity ~leaves =
  let group count = (count + arity - 1) / arity in
  let nodes = ref [] and total = ref 0 in
  (* level widths: leaves is the number of participants *)
  let rec level ~count =
    let n_nodes = group count in
    let base = !total in
    total := !total + n_nodes;
    let widths =
      List.init n_nodes (fun i ->
          let lo = i * arity in
          Int.min arity (count - lo))
    in
    nodes := (base, widths) :: !nodes;
    if n_nodes > 1 then level ~count:n_nodes
  in
  level ~count:leaves;
  let levels = List.rev !nodes in
  let arr = Array.make !total { addr = 0; width = 0; parent = -1 } in
  List.iteri
    (fun li (base, widths) ->
      let parent_base =
        match List.nth_opt levels (li + 1) with Some (b, _) -> b | None -> -1
      in
      List.iteri
        (fun i width ->
          let parent = if parent_base < 0 then -1 else parent_base + (i / arity) in
          arr.(base + i) <- { addr = Machine.alloc_line m; width; parent })
        widths)
    levels;
  arr

let spawn_tree m ~kind ~arity ~cores ~episodes ~work ~progress =
  if arity < 2 then invalid_arg "Sync_barrier: tree arity must be >= 2";
  let n = List.length cores in
  let nodes = build_tree m ~arity ~leaves:n in
  let sense = Machine.alloc_line m in
  List.iteri
    (fun idx core ->
      Machine.spawn m ~core (fun c ->
          let rec climb ep node =
            let prev = Core.await c (Core.fetch_add c nodes.(node).addr 1L) in
            if Int64.to_int prev = (ep * nodes.(node).width) - 1 then
              if nodes.(node).parent >= 0 then climb ep nodes.(node).parent
              else begin
                Core.barrier c (Barrier.Dmb St);
                Core.store c sense (Int64.of_int ep);
                true
              end
            else false
          in
          for ep = 1 to episodes do
            Core.compute c work;
            progress.(idx) <- ep;
            if not (climb ep (idx / arity)) then begin
              ignore (Core.spin_until c sense (fun v -> Int64.to_int v >= ep));
              Core.barrier c (Barrier.Dmb Ld)
            end;
            check_progress ~kind ~progress ~self:idx ~ep
          done))
    cores

(* Dissemination: ceil(log2 n) rounds; in round r, slot i signals slot
   (i + 2^r) mod n on a dedicated flag line and waits for its own flag.
   No read-modify-writes and no hot line at all — O(n log n) stores per
   episode over distinct lines, each with a single-sharer invalidation.
   Signals carry the episode number, so flags are sense-free and
   monotone like the counters above. *)
let spawn_dissemination m ~cores ~episodes ~work ~progress =
  let n = List.length cores in
  let rounds =
    let r = ref 0 in
    while 1 lsl !r < n do
      incr r
    done;
    !r
  in
  let flags = Machine.alloc_lines m (Int.max 1 (rounds * n)) in
  let flag r i = flags + (((r * n) + i) * 64) in
  List.iteri
    (fun idx core ->
      Machine.spawn m ~core (fun c ->
          for ep = 1 to episodes do
            Core.compute c work;
            progress.(idx) <- ep;
            for r = 0 to rounds - 1 do
              let peer = (idx + (1 lsl r)) mod n in
              (* order prior work and the previous round before the signal *)
              Core.barrier c (Barrier.Dmb St);
              Core.store c (flag r peer) (Int64.of_int ep);
              ignore (Core.spin_until c (flag r idx) (fun v -> Int64.to_int v >= ep))
            done;
            Core.barrier c (Barrier.Dmb Ld);
            check_progress ~kind:Dissemination ~progress ~self:idx ~ep
          done))
    cores

let run spec =
  let n = List.length spec.cores in
  if n = 0 then invalid_arg "Sync_barrier.run: no cores";
  if spec.episodes <= 0 then invalid_arg "Sync_barrier.run: episodes must be positive";
  if spec.work < 0 then invalid_arg "Sync_barrier.run: negative work";
  let m = Machine.create spec.cfg in
  let progress = Array.make n 0 in
  let kind = spec.kind in
  (match kind with
  | Central ->
    spawn_tree m ~kind ~arity:(Int.max 2 n) ~cores:spec.cores ~episodes:spec.episodes
      ~work:spec.work ~progress
  | Tree arity ->
    spawn_tree m ~kind ~arity ~cores:spec.cores ~episodes:spec.episodes ~work:spec.work ~progress
  | Dissemination ->
    spawn_dissemination m ~cores:spec.cores ~episodes:spec.episodes ~work:spec.work ~progress);
  Machine.run_exn m;
  Array.iteri
    (fun j arrived ->
      if arrived <> spec.episodes then
        raise
          (Machine.Simulation_error
             (Printf.sprintf "%s barrier: slot %d finished %d of %d episodes"
                (kind_name spec.kind) j arrived spec.episodes)))
    progress;
  let cycles = Machine.elapsed m in
  {
    cycles;
    episodes = spec.episodes;
    cycles_per_episode = float_of_int cycles /. float_of_int spec.episodes;
    events = Event_queue.processed (Machine.queue m);
    counters = Armb_mem.Memsys.counters (Machine.mem m);
  }
