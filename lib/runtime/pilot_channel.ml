type t = {
  cells : Pilot_codec.cell array;
  cons : int Atomic.t;
  mask : int;
  mutable sent : int; (* producer-private *)
  mutable received : int; (* consumer-private *)
  mutable fallback_count : int;
}

let create ?(seed = 7) ?(pool_size = 64) ~slots () =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Pilot_channel.create: slots must be a positive power of two";
  let pool = Pilot_codec.make_pool ~size:pool_size ~seed () in
  {
    cells = Array.init slots (fun _ -> Pilot_codec.cell pool);
    cons = Atomic.make 0;
    mask = slots - 1;
    sent = 0;
    received = 0;
    fallback_count = 0;
  }

let try_send t v =
  if t.sent - Atomic.get t.cons > t.mask then false
  else begin
    if Pilot_codec.send t.cells.(t.sent land t.mask) v then
      t.fallback_count <- t.fallback_count + 1;
    t.sent <- t.sent + 1;
    true
  end

(* The first try is inline so that an uncontended send builds no closure. *)
let send t v = if not (try_send t v) then Backoff.wait (fun () -> try_send t v)

let try_recv t =
  match Pilot_codec.poll t.cells.(t.received land t.mask) with
  | Some _ as got ->
    t.received <- t.received + 1;
    Atomic.set t.cons t.received;
    got
  | None -> None

let recv t = Backoff.poll (fun () -> try_recv t)

let fallbacks t = t.fallback_count
