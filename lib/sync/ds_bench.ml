module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Topology = Armb_mem.Topology
module Rng = Armb_sim.Rng

type lock_kind = Ticket | Dsynch | Dsynch_pilot | Ffwd_lock | Ffwd_pilot

let lock_name = function
  | Ticket -> "Ticket"
  | Dsynch -> "DSynch"
  | Dsynch_pilot -> "DSynch-P"
  | Ffwd_lock -> "FFWD"
  | Ffwd_pilot -> "FFWD-P"

let all_locks = [ Ticket; Dsynch; Dsynch_pilot; Ffwd_lock; Ffwd_pilot ]

type spec = {
  cfg : Armb_cpu.Config.t;
  lock : lock_kind;
  workers : int;
  ops_per_worker : int;
  interval_nops : int;
}

let default_spec cfg ~lock =
  { cfg; lock; workers = 16; ops_per_worker = 120; interval_nops = 200 }

type result = { throughput : float; cycles : int; ops : int }

(* A lock instance paired with the dispatcher it protects. *)
type instance =
  | I_ticket of Ticket_lock.t * Ffwd.critical
  | I_dsynch of Dsmsynch.t
  | I_ffwd of Ffwd.t

let is_ffwd = function Ffwd_lock | Ffwd_pilot -> true | Ticket | Dsynch | Dsynch_pilot -> false

let is_pilot = function Ffwd_pilot | Dsynch_pilot -> true | Ticket | Dsynch | Ffwd_lock -> false

let make_instance spec m ~critical =
  match spec.lock with
  | Ticket -> I_ticket (Ticket_lock.create m, critical)
  | Dsynch | Dsynch_pilot ->
    I_dsynch
      (Dsmsynch.create m ~parties:spec.workers ~pilot:(is_pilot spec.lock) ~critical ())
  | Ffwd_lock | Ffwd_pilot ->
    I_ffwd
      (Ffwd.create m ~num_clients:spec.workers ~pilot:(is_pilot spec.lock) ~critical ())

let exec_op inst (c : Core.t) ~me arg =
  match inst with
  | I_ticket (l, critical) ->
    Ticket_lock.acquire l c;
    let r = critical c ~client:me arg in
    Ticket_lock.release l c;
    r
  | I_dsynch d -> Dsmsynch.exec d c ~me arg
  | I_ffwd f -> Ffwd.request f c ~client:me arg

(* Core layout: FFWD servers first, then workers. *)
let layout spec ~servers =
  let total = Topology.num_cores spec.cfg.Armb_cpu.Config.topo in
  let needed = servers + spec.workers in
  if needed > total then
    invalid_arg
      (Printf.sprintf "Ds_bench: %d cores needed but platform has %d" needed total);
  ( List.init servers (fun i -> i),
    List.init spec.workers (fun i -> servers + i) )

let finish m ~ops =
  Machine.run_exn m;
  { throughput = Machine.throughput m ~ops; cycles = Machine.elapsed m; ops }

(* ---------- Queue and Stack (global lock, array-backed) ---------- *)

(* arg encoding: op * 2^32 + operand; rets stay below 2^61. *)
let encode ~op ~v = Int64.add (Int64.shift_left (Int64.of_int op) 32) (Int64.of_int v)

let decode arg =
  (Int64.to_int (Int64.shift_right_logical arg 32), Int64.to_int (Int64.logand arg 0xFFFFFFFFL))

let run_fifo_like ~is_queue spec =
  let servers = if is_ffwd spec.lock then 1 else 0 in
  let server_cores, worker_cores = layout spec ~servers in
  let m = Machine.create spec.cfg in
  let cap = 4096 in
  let ctr = Machine.alloc_line m in
  (* head count at +0, tail/top count at +8 *)
  let buf = Machine.alloc_lines m 64 in
  let shadow : int Queue.t = Queue.create () in
  let shadow_stack : int list ref = ref [] in
  let critical (c : Core.t) ~client:_ arg =
    let op, v = decode arg in
    let tail = Int64.to_int (Core.await c (Core.load c (ctr + 8))) in
    let head = Int64.to_int (Core.await c (Core.load c ctr)) in
    match op with
    | 0 ->
      (* enqueue / push *)
      if tail - head >= cap then 0L
      else begin
        let slot = buf + (tail mod 64 * 64) in
        Core.store c slot (Int64.of_int v);
        Core.store c (ctr + 8) (Int64.of_int (tail + 1));
        if is_queue then Queue.push v shadow else shadow_stack := v :: !shadow_stack;
        1L
      end
    | _ ->
      (* dequeue / pop *)
      if tail = head then 0L
      else if is_queue then begin
        let slot = buf + (head mod 64 * 64) in
        let v' = Core.await c (Core.load c slot) in
        Core.store c ctr (Int64.of_int (head + 1));
        let expect = Queue.pop shadow in
        if Int64.to_int v' <> expect then
          failwith
            (Printf.sprintf "Ds_bench queue: dequeued %Ld, shadow says %d" v' expect);
        v'
      end
      else begin
        let slot = buf + ((tail - 1) mod 64 * 64) in
        let v' = Core.await c (Core.load c slot) in
        Core.store c (ctr + 8) (Int64.of_int (tail - 1));
        (match !shadow_stack with
        | e :: rest ->
          if Int64.to_int v' <> e then
            failwith (Printf.sprintf "Ds_bench stack: popped %Ld, shadow says %d" v' e);
          shadow_stack := rest
        | [] -> failwith "Ds_bench stack: shadow empty on pop");
        v'
      end
  in
  let inst = make_instance spec m ~critical in
  let worker me (c : Core.t) =
    for i = 0 to spec.ops_per_worker - 1 do
      let op = i land 1 in
      let v = ((me + 1) * 100000) + i in
      ignore (exec_op inst c ~me (encode ~op ~v));
      Core.compute c spec.interval_nops
    done;
    match inst with I_ffwd f -> Ffwd.client_done f ~client:me | _ -> ()
  in
  List.iteri (fun i core -> Machine.spawn m ~core (worker i)) worker_cores;
  (match inst with
  | I_ffwd f -> List.iter (fun core -> Machine.spawn m ~core (Ffwd.server_body [ f ])) server_cores
  | _ -> ());
  finish m ~ops:(spec.workers * spec.ops_per_worker)

let run_queue spec = run_fifo_like ~is_queue:true spec

let run_stack spec = run_fifo_like ~is_queue:false spec

(* ---------- Sorted linked list ---------- *)

(* Node: key at +0, next-node address at +8; 0 = end of list.  The head
   pointer lives in its own line.  A host-side shadow (sorted list of
   keys) validates every operation. *)
let list_ops m ~alloc ~head ~shadow =
  (* Traverse until the first node with key >= k; returns (prev, cur)
     addresses, prev = 0 when cur is the first node. *)
  let locate (c : Core.t) k =
    let rec go prev cur =
      if cur = 0 then (prev, 0)
      else
        let key = Int64.to_int (Core.await c (Core.load c cur)) in
        if key >= k then (prev, cur)
        else
          let nxt = Int64.to_int (Core.await c (Core.load c (cur + 8))) in
          go cur nxt
    in
    let first = Int64.to_int (Core.await c (Core.load c head)) in
    go 0 first
  in
  let key_at (c : Core.t) cur = Int64.to_int (Core.await c (Core.load c cur)) in
  let search c k =
    let _, cur = locate c k in
    let found = cur <> 0 && key_at c cur = k in
    let shadow_found = List.mem k !shadow in
    if found <> shadow_found then
      failwith (Printf.sprintf "Ds_bench list: search %d = %b, shadow %b" k found shadow_found);
    if found then 1L else 0L
  in
  let insert c k =
    let prev, cur = locate c k in
    if cur <> 0 && key_at c cur = k then 0L
    else begin
      let node = Sim_alloc.alloc alloc in
      Core.store c node (Int64.of_int k);
      Core.store c (node + 8) (Int64.of_int cur);
      if prev = 0 then Core.store c head (Int64.of_int node)
      else Core.store c (prev + 8) (Int64.of_int node);
      shadow := List.sort Int.compare (k :: !shadow);
      1L
    end
  in
  let remove c k =
    let prev, cur = locate c k in
    if cur = 0 || key_at c cur <> k then 0L
    else begin
      let nxt = Int64.to_int (Core.await c (Core.load c (cur + 8))) in
      if prev = 0 then Core.store c head (Int64.of_int nxt)
      else Core.store c (prev + 8) (Int64.of_int nxt);
      Sim_alloc.free alloc cur;
      shadow := List.filter (fun x -> x <> k) !shadow;
      1L
    end
  in
  ignore m;
  (search, insert, remove)

let preload_list m ~alloc ~head ~shadow keys =
  (* Host-side preload: build the chain directly in memory. *)
  let mem = Machine.mem m in
  let sorted = List.sort_uniq Int.compare keys in
  let nodes = List.map (fun k -> (k, Sim_alloc.alloc alloc)) sorted in
  let rec link = function
    | (k, a) :: ((_, b) :: _ as rest) ->
      Armb_mem.Memsys.commit_store mem ~addr:a (Int64.of_int k);
      Armb_mem.Memsys.commit_store mem ~addr:(a + 8) (Int64.of_int b);
      link rest
    | [ (k, a) ] ->
      Armb_mem.Memsys.commit_store mem ~addr:a (Int64.of_int k);
      Armb_mem.Memsys.commit_store mem ~addr:(a + 8) 0L
    | [] -> ()
  in
  link nodes;
  (match nodes with
  | (_, first) :: _ -> Armb_mem.Memsys.commit_store mem ~addr:head (Int64.of_int first)
  | [] -> ());
  shadow := sorted

(* 10 searches, then 1 insert and 1 remove (the paper's mix). *)
let list_op_of_step rng ~key_range step =
  let k = 1 + Rng.int rng key_range in
  if step mod 12 = 10 then (1, k) else if step mod 12 = 11 then (2, k) else (0, k)

let run_sorted_list ~preload spec =
  let servers = if is_ffwd spec.lock then 1 else 0 in
  let server_cores, worker_cores = layout spec ~servers in
  let m = Machine.create spec.cfg in
  let head = Machine.alloc_line m in
  let alloc = Sim_alloc.create m ~capacity:(preload + (2 * spec.workers) + 64) in
  let shadow = ref [] in
  let key_range = Int.max 2 (2 * preload) in
  let rng0 = Rng.create 2024 in
  preload_list m ~alloc ~head ~shadow
    (List.init preload (fun _ -> 1 + Rng.int rng0 key_range));
  let search, insert, remove = list_ops m ~alloc ~head ~shadow in
  let critical (c : Core.t) ~client:_ arg =
    let op, k = decode arg in
    match op with 0 -> search c k | 1 -> insert c k | _ -> remove c k
  in
  let inst = make_instance spec m ~critical in
  let worker me (c : Core.t) =
    let rng = Rng.create ((me * 7919) + 17) in
    for step = 0 to spec.ops_per_worker - 1 do
      let op, k = list_op_of_step rng ~key_range step in
      ignore (exec_op inst c ~me (encode ~op ~v:k));
      Core.compute c spec.interval_nops
    done;
    match inst with I_ffwd f -> Ffwd.client_done f ~client:me | _ -> ()
  in
  List.iteri (fun i core -> Machine.spawn m ~core (worker i)) worker_cores;
  (match inst with
  | I_ffwd f -> List.iter (fun core -> Machine.spawn m ~core (Ffwd.server_body [ f ])) server_cores
  | _ -> ());
  finish m ~ops:(spec.workers * spec.ops_per_worker)

(* ---------- Hash table: per-bucket sorted lists and locks ---------- *)

let run_hash_table ~buckets ~preload spec =
  if buckets <= 0 then invalid_arg "Ds_bench.run_hash_table: buckets";
  let servers = if is_ffwd spec.lock then Int.min buckets 8 else 0 in
  let server_cores, worker_cores = layout spec ~servers in
  let m = Machine.create spec.cfg in
  let key_range = Int.max 2 (2 * preload) in
  let heads = Array.init buckets (fun _ -> Machine.alloc_line m) in
  let allocs =
    Array.init buckets (fun _ ->
        Sim_alloc.create m ~capacity:((preload / buckets) + (2 * spec.workers) + 32))
  in
  let shadows = Array.init buckets (fun _ -> ref []) in
  (* Preload uniformly across buckets. *)
  let rng0 = Rng.create 31337 in
  let preload_keys = List.init preload (fun _ -> 1 + Rng.int rng0 key_range) in
  let by_bucket = Array.make buckets [] in
  List.iter (fun k -> by_bucket.(k mod buckets) <- k :: by_bucket.(k mod buckets)) preload_keys;
  Array.iteri
    (fun b keys ->
      preload_list m ~alloc:allocs.(b) ~head:heads.(b) ~shadow:shadows.(b) keys)
    by_bucket;
  let instances =
    Array.init buckets (fun b ->
        let search, insert, remove =
          list_ops m ~alloc:allocs.(b) ~head:heads.(b) ~shadow:shadows.(b)
        in
        let critical (c : Core.t) ~client:_ arg =
          let op, k = decode arg in
          match op with 0 -> search c k | 1 -> insert c k | _ -> remove c k
        in
        make_instance spec m ~critical)
  in
  let worker me (c : Core.t) =
    let rng = Rng.create ((me * 104729) + 5) in
    for step = 0 to spec.ops_per_worker - 1 do
      let op, k = list_op_of_step rng ~key_range step in
      let b = k mod buckets in
      ignore (exec_op instances.(b) c ~me (encode ~op ~v:k));
      Core.compute c spec.interval_nops
    done;
    Array.iter
      (function I_ffwd f -> Ffwd.client_done f ~client:me | _ -> ())
      instances
  in
  List.iteri (fun i core -> Machine.spawn m ~core (worker i)) worker_cores;
  if servers > 0 then begin
    (* Distribute bucket instances round-robin over the server cores. *)
    let per_server = Array.make servers [] in
    Array.iteri
      (fun b inst ->
        match inst with
        | I_ffwd f -> per_server.(b mod servers) <- f :: per_server.(b mod servers)
        | _ -> ())
      instances;
    List.iteri
      (fun s core -> Machine.spawn m ~core (Ffwd.server_body per_server.(s)))
      server_cores
  end;
  finish m ~ops:(spec.workers * spec.ops_per_worker)
