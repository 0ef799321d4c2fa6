(* The native instance of the canonical Pilot codec: payloads are
   immediate OCaml ints, so pool draws are truncated to 62 bits (the
   same truncation Rng.int applies) to stay non-negative. *)
include Armb_primitives.Pilot_word.Make (struct
  type t = int

  let equal = Int.equal
  let logxor = ( lxor )
  let zero = 0
  let of_pool v = Int64.to_int (Int64.shift_right_logical v 2)
end)

type cell = { data : int Atomic.t; flag : int Atomic.t; tx : sender; rx : receiver }

let cell pool = { data = Atomic.make 0; flag = Atomic.make 0; tx = sender pool; rx = receiver pool }

let send c v =
  match encode c.tx v with
  | Write_data d ->
    Atomic.set c.data d;
    false
  | Toggle_flag ->
    Atomic.set c.flag (Atomic.get c.flag lxor 1);
    true

let poll c =
  let d = Atomic.get c.data in
  let f = Atomic.get c.flag in
  try_decode c.rx ~data:d ~flag:f

let recv c = Backoff.poll (fun () -> poll c)
