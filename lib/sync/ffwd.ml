module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Ordering = Armb_core.Ordering
module Pilot = Armb_core.Pilot

type barriers = { read_req : Ordering.t; publish_resp : Ordering.t }

type critical = Core.t -> client:int -> int64 -> int64

(* Request line: flag word at +0, argument word at +8.
   Response line: flag word at +0, return word at +8.
   Pilot mode runs a Pilot.line over each (data word at +0, fallback
   flag at +8), in both directions. *)
type t = {
  num_clients : int;
  barriers : barriers;
  pilot : bool;
  critical : critical;
  req : int array;
  resp : int array;
  req_line : Pilot.line array;
  resp_line : Pilot.line array;
  (* host-side bookkeeping *)
  client_seq : int array; (* requests submitted per client *)
  served_seq : int array; (* requests served per client *)
  done_flags : bool array;
  server_old_flag : int64 array;
}

let create m ~num_clients ~barriers ~pilot ~critical =
  if num_clients <= 0 then invalid_arg "Ffwd.create: no clients";
  let pool = Pilot.make_pool ~seed:11 () in
  let resp = Array.init num_clients (fun _ -> Machine.alloc_line m) in
  let req = Array.init num_clients (fun _ -> Machine.alloc_line m) in
  let lines = Array.map (fun data -> Pilot.line pool ~data) in
  {
    num_clients;
    barriers;
    pilot;
    critical;
    req;
    resp;
    req_line = lines req;
    resp_line = lines resp;
    client_seq = Array.make num_clients 0;
    served_seq = Array.make num_clients 0;
    done_flags = Array.make num_clients false;
    server_old_flag = Array.make num_clients 0L;
  }

let request t (c : Core.t) ~client arg =
  if client < 0 || client >= t.num_clients then invalid_arg "Ffwd.request: bad client";
  t.client_seq.(client) <- t.client_seq.(client) + 1;
  if t.pilot then begin
    ignore (Pilot.send c t.req_line.(client) arg);
    Pilot.recv c t.resp_line.(client)
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
      match Pilot.poll c t.req_line.(idx) with
      | None -> ()
      | Some arg ->
        (* Algorithm 6: run the CS, one cheap barrier (no RMR precedes
           it), then the piggybacked response store. *)
        let ret = t.critical c ~client:idx arg in
        t.served_seq.(idx) <- t.served_seq.(idx) + 1;
        Core.barrier c (Barrier.Dmb St);
        ignore (Pilot.send c t.resp_line.(idx) ret)
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
        batched := (idx, flag) :: !batched
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
