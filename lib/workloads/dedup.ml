module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Rng = Armb_sim.Rng

type queue_kind = Locked_queue | Ring | Ring_pilot

let queue_name = function Locked_queue -> "Q" | Ring -> "RB" | Ring_pilot -> "RB-P"

let all_queues = [ Locked_queue; Ring; Ring_pilot ]

type workload = Small | Middle | Large

let workload_name = function Small -> "Small" | Middle -> "Middle" | Large -> "Large"

let all_workloads = [ Small; Middle; Large ]

type spec = {
  cfg : Armb_cpu.Config.t;
  queue : queue_kind;
  workload : workload;
  cores : int list;
  slots : int;
}

let default_spec cfg ~queue ~workload =
  { cfg; queue; workload; cores = [ 0; 8; 16; 24 ]; slots = 16 }

type result = { throughput : float; cycles : int; chunks : int }

let chunks_of = function Small -> 800 | Middle -> 1500 | Large -> 3000

(* ---------- composable channels ---------- *)

type chan = { send : Core.t -> int64 -> unit; recv : Core.t -> int64 }

(* dedup's original buffer: a ring whose both ends take a ticket lock. *)
let locked_chan m ~slots =
  let lock = Armb_sync.Ticket_lock.create m in
  let ctr = Machine.alloc_line m in
  (* head at +0, tail at +8 *)
  let buf = Machine.alloc_lines m slots in
  let rec send (c : Core.t) v =
    Armb_sync.Ticket_lock.acquire lock c;
    let tail = Int64.to_int (Core.await c (Core.load c (ctr + 8))) in
    let head = Int64.to_int (Core.await c (Core.load c ctr)) in
    if tail - head >= slots then begin
      Armb_sync.Ticket_lock.release lock c;
      Core.compute c 60;
      send c v
    end
    else begin
      Core.store c (buf + (tail mod slots * 64)) v;
      Core.store c (ctr + 8) (Int64.of_int (tail + 1));
      Armb_sync.Ticket_lock.release lock c
    end
  in
  let rec recv (c : Core.t) =
    Armb_sync.Ticket_lock.acquire lock c;
    let tail = Int64.to_int (Core.await c (Core.load c (ctr + 8))) in
    let head = Int64.to_int (Core.await c (Core.load c ctr)) in
    if tail = head then begin
      Armb_sync.Ticket_lock.release lock c;
      Core.compute c 60;
      recv c
    end
    else begin
      let v = Core.await c (Core.load c (buf + (head mod slots * 64))) in
      Core.store c ctr (Int64.of_int (head + 1));
      Armb_sync.Ticket_lock.release lock c;
      v
    end
  in
  { send; recv }

(* The two lock-free queues are the simulator's one SPSC ring
   ({!Armb_sync.Spsc_ring}), with the best legal barriers or Pilot. *)
let make_chan spec m ~seed =
  let module R = Armb_sync.Spsc_ring in
  let ring barriers =
    let ch = R.chan m barriers ~slots:spec.slots ~seed in
    { send = R.send ch; recv = R.recv ch }
  in
  match spec.queue with
  | Locked_queue -> locked_chan m ~slots:spec.slots
  | Ring -> ring (R.combo "DMB ld - DMB st")
  | Ring_pilot -> ring R.Pilot

(* ---------- the pipeline ---------- *)

(* Chunk descriptor: (id << 8) | size, size in 1..16 "blocks". *)
let desc ~id ~size = Int64.of_int ((id lsl 8) lor size)

let desc_id d = Int64.to_int (Int64.shift_right_logical d 8)

let desc_size d = Int64.to_int (Int64.logand d 0xFFL)

let run spec =
  (match spec.cores with
  | [ _; _; _; _ ] -> ()
  | _ -> invalid_arg "Dedup.run: need exactly four stage cores");
  let n = chunks_of spec.workload in
  let m = Machine.create spec.cfg in
  let c12 = make_chan spec m ~seed:101 in
  let c23 = make_chan spec m ~seed:102 in
  let c34 = make_chan spec m ~seed:103 in
  let rng = Rng.create 4242 in
  let sizes = Array.init n (fun _ -> 1 + Rng.int rng 16) in
  (* Stage work models dedup's compute per chunk (file I/O removed). *)
  let chunker (c : Core.t) =
    for id = 0 to n - 1 do
      let size = sizes.(id) in
      Core.compute c (90 + (10 * size));
      c12.send c (desc ~id ~size)
    done
  in
  let hasher (c : Core.t) =
    for _ = 0 to n - 1 do
      let d = c12.recv c in
      Core.compute c (130 + (14 * desc_size d));
      c23.send c d
    done
  in
  let compressor (c : Core.t) =
    for _ = 0 to n - 1 do
      let d = c23.recv c in
      Core.compute c (200 + (22 * desc_size d));
      c34.send c d
    done
  in
  let total_blocks = ref 0 in
  let gatherer (c : Core.t) =
    for expect = 0 to n - 1 do
      let d = c34.recv c in
      if desc_id d <> expect then
        failwith
          (Printf.sprintf "Dedup: chunk %d arrived out of order (got id %d)" expect
             (desc_id d));
      if desc_size d <> sizes.(expect) then
        failwith (Printf.sprintf "Dedup: chunk %d corrupted" expect);
      total_blocks := !total_blocks + desc_size d;
      Core.compute c 40
    done
  in
  (match spec.cores with
  | [ a; b; c; d ] ->
    Machine.spawn m ~core:a chunker;
    Machine.spawn m ~core:b hasher;
    Machine.spawn m ~core:c compressor;
    Machine.spawn m ~core:d gatherer
  | _ -> assert false);
  Machine.run_exn m;
  let expected_blocks = Array.fold_left ( + ) 0 sizes in
  if !total_blocks <> expected_blocks then
    failwith (Printf.sprintf "Dedup: gathered %d blocks, expected %d" !total_blocks expected_blocks);
  { throughput = Machine.throughput m ~ops:n; cycles = Machine.elapsed m; chunks = n }
