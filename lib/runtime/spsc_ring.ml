type t = {
  slots : int array;
  mask : int;
  prod : int Atomic.t;
  cons : int Atomic.t;
}

let create ~slots =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Spsc_ring.create: slots must be a positive power of two";
  {
    slots = Array.make slots 0;
    mask = slots - 1;
    prod = Atomic.make 0;
    cons = Atomic.make 0;
  }

let try_send t v =
  let p = Atomic.get t.prod in
  if p - Atomic.get t.cons > t.mask then false
  else begin
    t.slots.(p land t.mask) <- v;
    (* Publishing the counter with a seq_cst store orders the slot fill
       before it — the native stand-in for "DMB st". *)
    Atomic.set t.prod (p + 1);
    true
  end

(* The first try is inline so that an uncontended send builds no closure. *)
let send t v = if not (try_send t v) then Backoff.wait (fun () -> try_send t v)

let try_recv t =
  let c = Atomic.get t.cons in
  if Atomic.get t.prod = c then None
  else begin
    let v = t.slots.(c land t.mask) in
    Atomic.set t.cons (c + 1);
    Some v
  end

let recv t = Backoff.poll (fun () -> try_recv t)
