type access = { latency : int; cross_node : bool; hit : bool }

type line = {
  mutable owner : int; (* core holding the line exclusively, -1 if none *)
  sharers : Coreset.t; (* cores with a valid copy (multi-word set) *)
  mutable busy_until : int; (* serialization point for ownership changes *)
  mutable ready_at : int;
      (* completion time of the most recent fill/transfer: a subsequent
         hit cannot complete before the line has actually arrived
         (coherence of read-read) *)
  mutable pending_writer : int; (* core with an in-flight drain, -1 if none *)
  mutable pending_until : int; (* completion time of that drain *)
  mutable watchers : (unit -> unit) list;
}

type counters = {
  hits : int;
  transfers : int;
  cross_node_transfers : int;
  dram_fills : int;
  invalidations : int;
}

module Int_table = Armb_sim.Int_table
module Injector = Armb_fault.Injector

type t = {
  topo : Topology.t;
  lat : Latency.t;
  mutable inj : Injector.t option;
  lines : line Int_table.t;
  made : line list ref; (* every record in [lines] *)
  new_line : int -> line; (* built once: [line] runs on every access *)
  values : int64 Int_table.t;
  mutable c_hits : int;
  mutable c_transfers : int;
  mutable c_cross : int;
  mutable c_dram : int;
  mutable c_inval : int;
}

let new_line ~cores =
  {
    owner = -1;
    sharers = Coreset.create ~cores;
    busy_until = 0;
    ready_at = 0;
    pending_writer = -1;
    pending_until = 0;
    watchers = [];
  }

let create ?inj ~topo ~lat () =
  let cores = Topology.num_cores topo in
  (* A line's first access in the memory system's life makes its record
     and lists it in [made] for [reset]. *)
  let made = ref [] in
  let make _ =
    let l = new_line ~cores in
    made := l :: !made;
    l
  in
  {
    topo;
    lat;
    inj;
    lines = Int_table.create ~capacity:64 (new_line ~cores);
    made;
    new_line = make;
    values = Int_table.create ~capacity:64 0L;
    c_hits = 0;
    c_transfers = 0;
    c_cross = 0;
    c_dram = 0;
    c_inval = 0;
  }

let reset_counters t =
  t.c_hits <- 0;
  t.c_transfers <- 0;
  t.c_cross <- 0;
  t.c_dram <- 0;
  t.c_inval <- 0

(* The line records stay in [lines], each reset in place to exactly
   the state [new_line] builds: a line the next run touches is
   indistinguishable from a new one, and touching it allocates neither
   a record nor a sharer set. *)
let reset_line l =
  l.owner <- -1;
  Coreset.clear l.sharers;
  l.busy_until <- 0;
  l.ready_at <- 0;
  l.pending_writer <- -1;
  l.pending_until <- 0;
  l.watchers <- []

let reset ?inj t =
  t.inj <- inj;
  List.iter reset_line !(t.made);
  Int_table.clear t.values;
  reset_counters t

(* Fault-injection hooks: pure extra delay, zero when no injector is
   wired (the faults-off path must stay bit-identical to the seed
   kernel — the golden digests pin it). *)
let[@inline] jitter_dram t = match t.inj with None -> 0 | Some i -> Injector.dram_jitter i

let[@inline] delay_snoop t ~rank =
  match t.inj with None -> 0 | Some i -> Injector.snoop_delay i ~rank

let line_of addr = addr lsr 6

let line t addr = Int_table.find_or_add t.lines (line_of addr) t.new_line

(* The requester must wait for the farthest snoop response.  The
   "others" set of a write is the sharers minus the writer, plus the
   owner when one exists; it is classified against the topology's
   precomputed per-core membership sets with word-wise walks — no
   per-sharer loop, no materialized temporary set.  Only called when
   that set is non-empty (the caller established [has_others]); the
   owner, when present, is never the requesting core here. *)
let worst_rank t core l =
  let node = Topology.node_set t.topo core in
  if
    Coreset.outside_except l.sharers node ~except:core
    || (l.owner >= 0 && not (Coreset.mem node l.owner))
  then 3
  else
    let cluster = Topology.cluster_set t.topo core in
    if
      Coreset.outside_except l.sharers cluster ~except:core
      || (l.owner >= 0 && not (Coreset.mem cluster l.owner))
    then 2
    else 1

(* Serialize ownership-changing operations on a contended line. *)
let serialize l ~now lat_cycles =
  let start = Int.max now l.busy_until in
  l.busy_until <- start + lat_cycles;
  start - now + lat_cycles

let read t ~now ~core ~addr =
  let l = line t addr in
  if Coreset.mem l.sharers core then begin
    t.c_hits <- t.c_hits + 1;
    { latency = Int.max t.lat.l1_hit (l.ready_at - now); cross_node = false; hit = true }
  end
  else if l.owner >= 0 && l.owner <> core then begin
    let r = Topology.distance_rank t.topo core l.owner in
    let xfer = Latency.transfer t.lat (Topology.distance_of_rank r) + delay_snoop t ~rank:r in
    t.c_transfers <- t.c_transfers + 1;
    let cross = r = 3 in
    if cross then t.c_cross <- t.c_cross + 1;
    (* Owner downgrades to shared; reader gets a copy. *)
    Coreset.set_pair l.sharers l.owner core;
    l.owner <- -1;
    let latency = serialize l ~now xfer in
    (* An in-flight fill delays the transfer: the copy can't leave the
       owner before the line itself has arrived. *)
    let latency = Int.max latency (l.ready_at - now) in
    l.ready_at <- now + latency;
    { latency; cross_node = cross; hit = false }
  end
  else if not (Coreset.is_empty l.sharers) then begin
    (* Fetch from the nearest sharer: intersection with the requester's
       cluster/node sets classifies the best distance directly.  The
       requester itself is never a sharer here — the hit branch above
       caught that. *)
    let best =
      if Coreset.intersects l.sharers (Topology.cluster_set t.topo core) then 1
      else if Coreset.intersects l.sharers (Topology.node_set t.topo core) then 2
      else 3
    in
    let xfer =
      Latency.transfer t.lat (Topology.distance_of_rank best) + delay_snoop t ~rank:best
    in
    t.c_transfers <- t.c_transfers + 1;
    let cross = best = 3 in
    if cross then t.c_cross <- t.c_cross + 1;
    Coreset.add l.sharers core;
    (* If the sharer's own copy is still in flight, this reader waits
       for that fill too — the returned latency must match ready_at,
       or a racing read would complete before the line exists. *)
    let latency = Int.max xfer (l.ready_at - now) in
    l.ready_at <- now + latency;
    { latency; cross_node = cross; hit = false }
  end
  else begin
    t.c_dram <- t.c_dram + 1;
    Coreset.set_only l.sharers core;
    let latency = Int.max (t.lat.dram + jitter_dram t) (l.ready_at - now) in
    l.ready_at <- now + latency;
    { latency; cross_node = false; hit = false }
  end

let write_latency t ~core l =
  (* Returns (cycles, cross_node, hit) without serialization applied.
     "Others" — the copies a write must invalidate — is the sharer set
     minus the writer, plus the owner when one exists; it is never
     materialized, only tested and counted word-wise. *)
  if l.owner = core then (t.lat.l1_hit, false, true)
  else begin
    let has_others = l.owner >= 0 || Coreset.any_except l.sharers core in
    if not has_others then
      if Coreset.mem l.sharers core then
        (* Upgrade from shared-alone to exclusive: local. *)
        (t.lat.l1_hit, false, true)
      else begin
        t.c_dram <- t.c_dram + 1;
        (t.lat.dram + jitter_dram t, false, false)
      end
    else begin
      let r = worst_rank t core l in
      let cycles =
        Latency.transfer t.lat (Topology.distance_of_rank r) + delay_snoop t ~rank:r
      in
      t.c_transfers <- t.c_transfers + 1;
      let fanout =
        Coreset.cardinal_except l.sharers core
        + if l.owner >= 0 && not (Coreset.mem l.sharers l.owner) then 1 else 0
      in
      t.c_inval <- t.c_inval + fanout;
      let cross = r = 3 in
      if cross then t.c_cross <- t.c_cross + 1;
      (cycles, cross, false)
    end
  end

let write_begin t ~now ~core ~addr =
  let l = line t addr in
  if l.pending_writer = core && l.pending_until > now then begin
    (* Coalesce with our own in-flight drain to the same line. *)
    t.c_hits <- t.c_hits + 1;
    { latency = Int.max t.lat.l1_hit (l.pending_until - now); cross_node = false; hit = true }
  end
  else begin
    let cycles, cross, hit = write_latency t ~core l in
    if hit then t.c_hits <- t.c_hits + 1;
    let latency =
      if hit && l.owner = core then cycles else serialize l ~now cycles
    in
    l.pending_writer <- core;
    l.pending_until <- now + latency;
    { latency; cross_node = cross; hit }
  end

(* Ownership and invalidation take effect only when the drain completes:
   until then other cores keep reading their (old) copies, which is what
   lets the timing model exhibit store-buffer weak behaviours. *)
let write_finish t ~now ~core ~addr =
  let l = line t addr in
  l.owner <- core;
  Coreset.set_only l.sharers core;
  if now > l.ready_at then l.ready_at <- now;
  if l.pending_writer = core && l.pending_until <= now then l.pending_writer <- -1

let extend_pending t ~core ~addr ~until =
  let l = line t addr in
  if l.pending_writer = core && until > l.pending_until then l.pending_until <- until

let place t ~core ~addr =
  let l = line t addr in
  l.owner <- core;
  Coreset.set_only l.sharers core

let rmw t ~now ~core ~addr =
  (* Atomics claim the line for the whole operation. *)
  let l = line t addr in
  let cycles, cross, hit = write_latency t ~core l in
  if hit then t.c_hits <- t.c_hits + 1;
  let latency =
    (if hit && l.owner = core then cycles else serialize l ~now cycles) + t.lat.rmw_extra
  in
  l.owner <- core;
  Coreset.set_only l.sharers core;
  l.ready_at <- now + latency;
  { latency; cross_node = cross; hit = false }

let load_value t ~addr = Int_table.get t.values (addr lsr 3) ~default:0L

let commit_store t ~addr v =
  Int_table.set t.values (addr lsr 3) v;
  let l = line t addr in
  match l.watchers with
  | [] -> ()
  | ws ->
    l.watchers <- [];
    List.iter (fun f -> f ()) (List.rev ws)

let watch t ~addr f =
  let l = line t addr in
  l.watchers <- f :: l.watchers

let counters t =
  {
    hits = t.c_hits;
    transfers = t.c_transfers;
    cross_node_transfers = t.c_cross;
    dram_fills = t.c_dram;
    invalidations = t.c_inval;
  }

let pp_counters ppf c =
  Format.fprintf ppf "hits=%d transfers=%d cross-node=%d dram=%d inval=%d" c.hits c.transfers
    c.cross_node_transfers c.dram_fills c.invalidations
