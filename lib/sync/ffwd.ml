module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Ordering = Armb_core.Ordering
module Pilot = Armb_core.Pilot

type barriers = { read_req : Ordering.t; publish_resp : Ordering.t }

(* LDAR / DMB st — the best-performing legal combination. *)
let default_barriers =
  { read_req = Ordering.Ldar_acquire; publish_resp = Ordering.Bar (Barrier.Dmb St) }

type critical = Core.t -> client:int -> int64 -> int64

(* Request line: flag word at +0, argument word at +8.
   Response line: flag word at +0, return word at +8.
   Pilot mode uses word +0 as the piggybacked channel and +8 as the
   collision-fallback flag, in both directions. *)
type t = {
  num_clients : int;
  barriers : barriers;
  pilot : bool;
  batch : bool;
  critical : critical;
  req : int array;
  resp : int array;
  req_send : Pilot.sender array;
  req_recv : Pilot.receiver array;
  resp_send : Pilot.sender array;
  resp_recv : Pilot.receiver array;
  mutable fallback_count : int;
  (* host-side bookkeeping *)
  client_seq : int array; (* requests submitted per client *)
  served_seq : int array; (* requests served per client *)
  done_flags : bool array;
  server_old_flag : int64 array;
}

let create m ~num_clients ?(barriers = default_barriers) ?(pilot = false) ?(batch = true)
    ~critical () =
  if num_clients <= 0 then invalid_arg "Ffwd.create: no clients";
  let pool = Pilot.make_pool ~seed:11 () in
  {
    num_clients;
    barriers;
    pilot;
    batch;
    critical;
    req = Array.init num_clients (fun _ -> Machine.alloc_line m);
    resp = Array.init num_clients (fun _ -> Machine.alloc_line m);
    req_send = Array.init num_clients (fun _ -> Pilot.sender pool);
    req_recv = Array.init num_clients (fun _ -> Pilot.receiver pool);
    resp_send = Array.init num_clients (fun _ -> Pilot.sender pool);
    resp_recv = Array.init num_clients (fun _ -> Pilot.receiver pool);
    fallback_count = 0;
    client_seq = Array.make num_clients 0;
    served_seq = Array.make num_clients 0;
    done_flags = Array.make num_clients false;
    server_old_flag = Array.make num_clients 0L;
  }

let fallbacks t = t.fallback_count

let pilot_send t (c : Core.t) sender ~data_addr v =
  match Pilot.encode sender v with
  | Pilot.Write_data w -> Core.store c data_addr w
  | Pilot.Toggle_flag ->
    t.fallback_count <- t.fallback_count + 1;
    let fa = data_addr + 8 in
    let cur = Core.await c (Core.load c fa) in
    Core.store c fa (Int64.logxor cur 1L)

let pilot_wait (c : Core.t) receiver ~data_addr =
  Core.spin_poll c data_addr (fun () ->
      let d = Core.await c (Core.load c data_addr) in
      let f = Core.await c (Core.load c (data_addr + 8)) in
      Pilot.try_decode receiver ~data:d ~flag:f)

let request t (c : Core.t) ~client arg =
  if client < 0 || client >= t.num_clients then invalid_arg "Ffwd.request: bad client";
  t.client_seq.(client) <- t.client_seq.(client) + 1;
  if t.pilot then begin
    pilot_send t c t.req_send.(client) ~data_addr:t.req.(client) arg;
    pilot_wait c t.resp_recv.(client) ~data_addr:t.resp.(client)
  end
  else begin
    (* argument, barrier, flag toggle *)
    Core.store c (t.req.(client) + 8) arg;
    Core.barrier c (Barrier.Dmb St);
    let new_flag = Int64.of_int t.client_seq.(client) in
    Core.store c t.req.(client) new_flag;
    ignore (Core.spin_until c t.resp.(client) (Int64.equal new_flag));
    Core.barrier c (Barrier.Dmb Ld);
    Core.await c (Core.load c (t.resp.(client) + 8))
  end

let client_done t ~client = t.done_flags.(client) <- true

let apply_read_req (c : Core.t) approach ~flag_addr ~flag =
  match approach with
  | Ordering.No_barrier -> ()
  | Ordering.Bar b -> Core.barrier c b
  | Ordering.Ldar_acquire -> ignore (Core.await c (Core.ldar c flag_addr))
  | Ordering.Ctrl_isb ->
    Core.compute c 1;
    if Int64.equal (Int64.logxor flag flag) 0L then Core.barrier c Barrier.Isb
  | Ordering.Addr_dep -> Core.compute c 1
  | other -> invalid_arg ("Ffwd: unsupported read_req approach " ^ Ordering.to_string other)

let apply_publish (c : Core.t) approach =
  match approach with
  | Ordering.No_barrier -> ()
  | Ordering.Bar b -> Core.barrier c b
  | other ->
    invalid_arg ("Ffwd: unsupported publish_resp approach " ^ Ordering.to_string other)

(* One scan of one instance; returns true if any client is still live. *)
let scan_instance t (c : Core.t) =
  let live = ref false in
  let batched = ref [] in
  for idx = 0 to t.num_clients - 1 do
    let pending = t.served_seq.(idx) < t.client_seq.(idx) in
    if (not t.done_flags.(idx)) || pending then live := true;
    if t.pilot then begin
      let d = Core.await c (Core.load c t.req.(idx)) in
      let f = Core.await c (Core.load c (t.req.(idx) + 8)) in
      match Pilot.try_decode t.req_recv.(idx) ~data:d ~flag:f with
      | None -> ()
      | Some arg ->
        (* Algorithm 6: run the CS, one cheap barrier (no RMR precedes
           it), then the piggybacked response store. *)
        let ret = t.critical c ~client:idx arg in
        t.served_seq.(idx) <- t.served_seq.(idx) + 1;
        Core.barrier c (Barrier.Dmb St);
        pilot_send t c t.resp_send.(idx) ~data_addr:t.resp.(idx) ret
    end
    else begin
      let flag = Core.await c (Core.load c t.req.(idx)) in
      if not (Int64.equal flag t.server_old_flag.(idx)) then begin
        t.server_old_flag.(idx) <- flag;
        apply_read_req c t.barriers.read_req ~flag_addr:t.req.(idx) ~flag;
        let arg_addr =
          match t.barriers.read_req with
          | Ordering.Addr_dep -> t.req.(idx) + 8 + Int64.to_int (Int64.logxor flag flag)
          | _ -> t.req.(idx) + 8
        in
        let arg = Core.await c (Core.load c arg_addr) in
        let ret = t.critical c ~client:idx arg in
        t.served_seq.(idx) <- t.served_seq.(idx) + 1;
        (* the return-value store: the RMR the publish barrier follows *)
        Core.store c (t.resp.(idx) + 8) ret;
        if t.batch then batched := (idx, flag) :: !batched
        else begin
          apply_publish c t.barriers.publish_resp;
          Core.store c t.resp.(idx) flag
        end
      end
    end
  done;
  (match !batched with
  | [] -> ()
  | l ->
    (* FFWD-style batching: one publish barrier for the whole scan. *)
    apply_publish c t.barriers.publish_resp;
    List.iter (fun (idx, flag) -> Core.store c t.resp.(idx) flag) (List.rev l));
  !live

let server_body instances (c : Core.t) =
  if instances = [] then invalid_arg "Ffwd.server_body: no instances";
  let live = ref true in
  while !live do
    live := false;
    List.iter (fun t -> if scan_instance t c then live := true) instances;
    Core.compute c 4
  done

(* ---------- Figure 7 microbenchmark ---------- *)

type spec = {
  cfg : Armb_cpu.Config.t;
  server_core : int;
  client_cores : int list;
  rounds : int;
  interval_nops : int;
  barriers : barriers;
  pilot : bool;
  batch : bool;
}

let default_spec cfg ~server_core ~client_cores =
  {
    cfg;
    server_core;
    client_cores;
    rounds = 200;
    interval_nops = 300;
    barriers = default_barriers;
    pilot = false;
    batch = true;
  }

type result = { throughput : float; cycles : int; fallbacks : int }

let run ?(check = true) spec =
  let n = List.length spec.client_cores in
  if n = 0 then invalid_arg "Ffwd.run: no clients";
  if List.mem spec.server_core spec.client_cores then
    invalid_arg "Ffwd.run: server core also a client";
  let m = Machine.create spec.cfg in
  let counter_line = Machine.alloc_line m in
  let count = ref 0 in
  let critical (c : Core.t) ~client:_ arg =
    let v = Core.await c (Core.load c counter_line) in
    Core.store c counter_line (Int64.add v 1L);
    Core.compute c 2;
    incr count;
    Int64.add arg v
  in
  let t =
    create m ~num_clients:n ~barriers:spec.barriers ~pilot:spec.pilot ~batch:spec.batch
      ~critical ()
  in
  let client idx (c : Core.t) =
    for round = 0 to spec.rounds - 1 do
      let arg = Int64.of_int (((idx + 1) * 1000000) + round) in
      let ret = request t c ~client:idx arg in
      if check && Int64.sub ret arg < 0L then
        failwith (Printf.sprintf "Ffwd: client %d round %d: bad return %Ld" idx round ret);
      Core.compute c spec.interval_nops
    done;
    client_done t ~client:idx
  in
  List.iteri (fun i core -> Machine.spawn m ~core (client i)) spec.client_cores;
  Machine.spawn m ~core:spec.server_core (server_body [ t ]);
  Machine.run_exn m;
  if check && !count <> n * spec.rounds then
    failwith
      (Printf.sprintf "Ffwd: executed %d critical sections, expected %d" !count
         (n * spec.rounds));
  {
    throughput = Machine.throughput m ~ops:(n * spec.rounds);
    cycles = Machine.elapsed m;
    fallbacks = fallbacks t;
  }
