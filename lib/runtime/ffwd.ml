type slot = {
  mutable fn : (unit -> int) option;
  req_flag : int Atomic.t;
  resp_plain : int Atomic.t; (* response sequence number (plain mode) *)
  resp_ret : int Atomic.t;
  resp : Pilot_codec.cell; (* pilot mode: the server sends, the client receives *)
  mutable client_seq : int; (* client-private *)
  mutable server_seen : int; (* server-private *)
}

type t = {
  pilot : bool;
  slots : slot array;
  stop : bool Atomic.t;
  served_count : int Atomic.t;
  mutable server : unit Domain.t option;
}

let server_loop t =
  let n = Array.length t.slots in
  let continue = ref true in
  while !continue do
    let progressed = ref false in
    for i = 0 to n - 1 do
      let s = t.slots.(i) in
      let flag = Atomic.get s.req_flag in
      if flag <> s.server_seen then begin
        s.server_seen <- flag;
        let fn = match s.fn with Some f -> f | None -> fun () -> 0 in
        let ret = fn () in
        Atomic.incr t.served_count;
        progressed := true;
        if t.pilot then
          (* one single-copy-atomic store carries "done" + the value *)
          ignore (Pilot_codec.send s.resp ret)
        else begin
          Atomic.set s.resp_ret ret;
          Atomic.set s.resp_plain flag
        end
      end
    done;
    if Atomic.get t.stop && not !progressed then begin
      (* double-check nothing arrived between the scan and the flag *)
      let pending = ref false in
      Array.iter (fun s -> if Atomic.get s.req_flag <> s.server_seen then pending := true) t.slots;
      if not !pending then continue := false
    end;
    if not !progressed then Domain.cpu_relax ()
  done

(* The Pilot shuffle pool is read-only, so every instance shares one. *)
let pool = Pilot_codec.make_pool ~seed:31 ()

let create ?(pilot = false) ~clients () =
  if clients <= 0 then invalid_arg "Ffwd.create: clients must be positive";
  let slots =
    Array.init clients (fun _ ->
        {
          fn = None;
          req_flag = Atomic.make 0;
          resp_plain = Atomic.make 0;
          resp_ret = Atomic.make 0;
          resp = Pilot_codec.cell pool;
          client_seq = 0;
          server_seen = 0;
        })
  in
  let t =
    { pilot; slots; stop = Atomic.make false; served_count = Atomic.make 0; server = None }
  in
  t.server <- Some (Domain.spawn (fun () -> server_loop t));
  t

let request t ~client fn =
  if client < 0 || client >= Array.length t.slots then invalid_arg "Ffwd.request: bad client";
  let s = t.slots.(client) in
  s.fn <- Some fn;
  s.client_seq <- s.client_seq + 1;
  Atomic.set s.req_flag s.client_seq;
  if t.pilot then Pilot_codec.recv s.resp
  else begin
    Backoff.wait (fun () -> Atomic.get s.resp_plain = s.client_seq);
    Atomic.get s.resp_ret
  end

let shutdown t =
  Atomic.set t.stop true;
  match t.server with
  | Some d ->
    t.server <- None;
    Domain.join d
  | None -> ()

let served t = Atomic.get t.served_count
