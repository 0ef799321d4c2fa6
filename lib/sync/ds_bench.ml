module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Memsys = Armb_mem.Memsys
module Ordering = Armb_core.Ordering
module Topology = Armb_mem.Topology
module Rng = Armb_sim.Rng

type lock_kind = Spin | Ticket | Mcs | Cohort | Dsynch | Dsynch_pilot | Ffwd_lock | Ffwd_pilot

let lock_name = function
  | Spin -> "Spinlock"
  | Ticket -> "Ticket"
  | Mcs -> "MCS"
  | Cohort -> "Cohort"
  | Dsynch -> "DSynch"
  | Dsynch_pilot -> "DSynch-P"
  | Ffwd_lock -> "FFWD"
  | Ffwd_pilot -> "FFWD-P"

let paper_locks = [ Ticket; Dsynch; Dsynch_pilot; Ffwd_lock; Ffwd_pilot ]

let in_place_locks = [ Spin; Ticket; Mcs; Cohort ]

type spec = {
  cfg : Armb_cpu.Config.t;
  lock : lock_kind;
  workers : int;
  ops_per_worker : int;
  interval_nops : int;
  cores : int list;
  release_barrier : Ordering.t;
  ffwd_barriers : Ffwd.barriers;
  cs_lines : int;
}

let default_spec cfg ~lock =
  {
    cfg;
    lock;
    workers = 16;
    ops_per_worker = 120;
    interval_nops = 200;
    cores = List.init (Topology.num_cores cfg.Armb_cpu.Config.topo) Fun.id;
    release_barrier = Ordering.Bar (Barrier.Dmb Full);
    (* LDAR / DMB st — the best-performing legal combination *)
    ffwd_barriers =
      { Ffwd.read_req = Ordering.Ldar_acquire; publish_resp = Ordering.Bar (Barrier.Dmb St) };
    cs_lines = 1;
  }

type result = { throughput : float; cycles : int; ops : int; cross_node_per_cs : float }

let removed = function Ordering.No_barrier -> true | _ -> false

(* Does every barrier the lock needs stay in place?  The unsound
   reference points of Figures 7(a) and 7(b) remove one, so the values
   their critical sections protect may be stale. *)
let sound spec =
  match spec.lock with
  | Spin | Ticket | Mcs | Cohort -> not (removed spec.release_barrier)
  | Ffwd_lock ->
    not (removed spec.ffwd_barriers.read_req || removed spec.ffwd_barriers.publish_resp)
  | Dsynch | Dsynch_pilot | Ffwd_pilot -> true

(* A lock instance: how worker [me] runs one critical section under it,
   and the FFWD instance a server core must serve, if any. *)
type instance = { exec : Core.t -> me:int -> int64 -> int64; served : Ffwd.t option }

let make_instance spec m ~critical =
  let barrier = spec.release_barrier in
  let in_place acquire release =
    let exec c ~me arg =
      acquire c ~me;
      let r = critical c ~client:me arg in
      release c ~me;
      r
    in
    { exec; served = None }
  in
  match spec.lock with
  | Spin ->
    let l = Spin_lock.create m in
    in_place (fun c ~me:_ -> Spin_lock.acquire l c) (fun c ~me:_ -> Spin_lock.release ~barrier l c)
  | Ticket ->
    let l = Ticket_lock.create m in
    in_place
      (fun c ~me:_ -> Ticket_lock.acquire l c)
      (fun c ~me:_ -> Ticket_lock.release ~barrier l c)
  | Mcs ->
    let l = Mcs_lock.create m ~slots:spec.workers in
    in_place
      (fun c ~me -> Mcs_lock.acquire l c ~slot:me)
      (fun c ~me -> Mcs_lock.release ~barrier l c ~slot:me)
  | Cohort ->
    let l = Cohort_lock.create m () in
    in_place
      (fun c ~me:_ -> Cohort_lock.acquire l c)
      (fun c ~me:_ -> Cohort_lock.release ~barrier l c)
  | Dsynch | Dsynch_pilot ->
    let d =
      Dsmsynch.create m ~parties:spec.workers ~pilot:(spec.lock = Dsynch_pilot) ~critical ()
    in
    { exec = Dsmsynch.exec d; served = None }
  | Ffwd_lock | Ffwd_pilot ->
    let f =
      Ffwd.create m ~num_clients:spec.workers ~barriers:spec.ffwd_barriers
        ~pilot:(spec.lock = Ffwd_pilot) ~critical
    in
    { exec = (fun c ~me arg -> Ffwd.request f c ~client:me arg); served = Some f }

(* FFWD servers take the first cores of the spec's order, workers the
   next ones. *)
let layout spec ~servers =
  if spec.workers < 1 then invalid_arg "Ds_bench: no workers";
  let needed = servers + spec.workers in
  let used = List.filteri (fun i _ -> i < needed) spec.cores in
  if List.length used < needed then
    invalid_arg
      (Printf.sprintf "Ds_bench: %d cores needed but the core order has %d" needed
         (List.length spec.cores));
  if List.length (List.sort_uniq Int.compare used) < needed then
    invalid_arg "Ds_bench: a core appears twice in the core order";
  (List.filteri (fun i _ -> i < servers) used, List.filteri (fun i _ -> i >= servers) used)

(* Runs the workers, each doing [ops_per_worker] operations of [step me]
   (built once per worker) with think time after each, while up to 8
   server cores serve the FFWD instances round-robin. *)
let drive spec m instances ~step =
  let served = List.filter_map (fun i -> i.served) (Array.to_list instances) in
  let servers = Int.min (List.length served) 8 in
  let server_cores, worker_cores = layout spec ~servers in
  let per_server = Array.make servers [] in
  List.iteri (fun b f -> per_server.(b mod servers) <- f :: per_server.(b mod servers)) served;
  let worker me (c : Core.t) =
    let op = step me in
    for i = 0 to spec.ops_per_worker - 1 do
      op c i;
      Core.compute c spec.interval_nops
    done;
    List.iter (fun f -> Ffwd.client_done f ~client:me) served
  in
  List.iteri (fun me core -> Machine.spawn m ~core (worker me)) worker_cores;
  List.iteri (fun s core -> Machine.spawn m ~core (Ffwd.server_body per_server.(s))) server_cores;
  let mem = Machine.mem m in
  Memsys.reset_counters mem;
  Machine.run_exn m;
  let ops = spec.workers * spec.ops_per_worker in
  {
    throughput = Machine.throughput m ~ops;
    cycles = Machine.elapsed m;
    ops;
    cross_node_per_cs =
      float_of_int (Memsys.counters mem).Memsys.cross_node_transfers /. float_of_int ops;
  }

(* ---------- Counter (Figures 7(a)-(c) and the in-place study) ---------- *)

let run_counter spec =
  let name = lock_name spec.lock in
  let check = sound spec in
  let m = Machine.create spec.cfg in
  let shared = Machine.alloc_lines m (Int.max 1 spec.cs_lines) in
  (* host-side oracles: who is inside, how many ran, what each returned *)
  let owner = ref None and count = ref 0 in
  let returns = Hashtbl.create 256 in
  let critical (c : Core.t) ~client:_ arg =
    (match !owner with
    | Some o ->
      failwith
        (Printf.sprintf "%s: mutual exclusion violated (%d and %d inside)" name o (Core.id c))
    | None -> owner := Some (Core.id c));
    let first = ref 0L in
    for k = 0 to spec.cs_lines - 1 do
      let a = shared + (k * 64) in
      let v = Core.await c (Core.load c a) in
      if k = 0 then first := v;
      Core.store c a (Int64.add v 1L)
    done;
    Core.compute c 2;
    owner := None;
    incr count;
    let r = Int64.add arg !first in
    Hashtbl.replace returns arg r;
    r
  in
  let inst = make_instance spec m ~critical in
  let step me (c : Core.t) round =
    let arg = Int64.of_int (((me + 1) * 1_000_000) + round) in
    let ret = inst.exec c ~me arg in
    if check then
      match Hashtbl.find_opt returns arg with
      | Some r when Int64.equal r ret -> ()
      | Some r ->
        failwith
          (Printf.sprintf "%s: worker %d round %d: returned %Ld, expected %Ld" name me round ret
             r)
      | None -> failwith (Printf.sprintf "%s: worker %d round %d never executed" name me round)
  in
  let r = drive spec m [| inst |] ~step in
  if !count <> r.ops then
    failwith (Printf.sprintf "%s: executed %d critical sections, expected %d" name !count r.ops);
  (* the first line absorbed one increment per critical section *)
  let total = Memsys.load_value (Machine.mem m) ~addr:shared in
  if check && spec.cs_lines > 0 && Int64.to_int total <> r.ops then
    failwith (Printf.sprintf "%s: counter %Ld, expected %d" name total r.ops);
  r

(* ---------- Queue and Stack (global lock, array-backed) ---------- *)

(* arg encoding: op * 2^32 + operand; rets stay below 2^61. *)
let encode ~op ~v = Int64.add (Int64.shift_left (Int64.of_int op) 32) (Int64.of_int v)

let decode arg =
  (Int64.to_int (Int64.shift_right_logical arg 32), Int64.to_int (Int64.logand arg 0xFFFFFFFFL))

let run_fifo_like ~is_queue spec =
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
  drive spec m [| inst |] ~step:(fun me c i ->
      ignore (inst.exec c ~me (encode ~op:(i land 1) ~v:(((me + 1) * 100000) + i))))

let run_queue spec = run_fifo_like ~is_queue:true spec

let run_stack spec = run_fifo_like ~is_queue:false spec

(* ---------- Sorted linked list ---------- *)

(* Node: key at +0, next-node address at +8; 0 = end of list.  The head
   pointer lives in its own line.  A host-side shadow (sorted list of
   keys) validates every operation. *)
let list_critical ~alloc ~head ~shadow =
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
  fun (c : Core.t) ~client:_ arg ->
    let op, k = decode arg in
    match op with 0 -> search c k | 1 -> insert c k | _ -> remove c k

let preload_list m ~alloc ~head ~shadow keys =
  (* Host-side preload: build the chain directly in memory. *)
  let mem = Machine.mem m in
  let sorted = List.sort_uniq Int.compare keys in
  let nodes = List.map (fun k -> (k, Sim_alloc.alloc alloc)) sorted in
  let rec link = function
    | (k, a) :: ((_, b) :: _ as rest) ->
      Memsys.commit_store mem ~addr:a (Int64.of_int k);
      Memsys.commit_store mem ~addr:(a + 8) (Int64.of_int b);
      link rest
    | [ (k, a) ] ->
      Memsys.commit_store mem ~addr:a (Int64.of_int k);
      Memsys.commit_store mem ~addr:(a + 8) 0L
    | [] -> ()
  in
  link nodes;
  (match nodes with
  | (_, first) :: _ -> Memsys.commit_store mem ~addr:head (Int64.of_int first)
  | [] -> ());
  shadow := sorted

(* 10 searches, then 1 insert and 1 remove (the paper's mix), as an
   encoded request and its key. *)
let list_request rng ~key_range step =
  let k = 1 + Rng.int rng key_range in
  let op = if step mod 12 = 10 then 1 else if step mod 12 = 11 then 2 else 0 in
  (encode ~op ~v:k, k)

let run_sorted_list ~preload spec =
  let m = Machine.create spec.cfg in
  let head = Machine.alloc_line m in
  let alloc = Sim_alloc.create m ~capacity:(preload + (2 * spec.workers) + 64) in
  let shadow = ref [] in
  let key_range = Int.max 2 (2 * preload) in
  let rng0 = Rng.create 2024 in
  preload_list m ~alloc ~head ~shadow
    (List.init preload (fun _ -> 1 + Rng.int rng0 key_range));
  let inst = make_instance spec m ~critical:(list_critical ~alloc ~head ~shadow) in
  drive spec m [| inst |] ~step:(fun me ->
      let rng = Rng.create ((me * 7919) + 17) in
      fun c step -> ignore (inst.exec c ~me (fst (list_request rng ~key_range step))))

(* ---------- Hash table: per-bucket sorted lists and locks ---------- *)

let run_hash_table ~buckets ~preload spec =
  if buckets <= 0 then invalid_arg "Ds_bench.run_hash_table: buckets";
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
        make_instance spec m
          ~critical:(list_critical ~alloc:allocs.(b) ~head:heads.(b) ~shadow:shadows.(b)))
  in
  drive spec m instances ~step:(fun me ->
      let rng = Rng.create ((me * 104729) + 5) in
      fun c step ->
        let arg, k = list_request rng ~key_range step in
        ignore (instances.(k mod buckets).exec c ~me arg))
