(* The simulator-facing instance of the canonical Pilot codec: machine
   words are int64, the shuffle pool uses the raw SplitMix64 draws. *)
include Armb_primitives.Pilot_word.Make (struct
  type t = int64

  let equal = Int64.equal
  let logxor = Int64.logxor
  let zero = 0L
  let of_pool v = v
end)

module Core = Armb_cpu.Core

type line = { data : int; tx : sender; rx : receiver }

let line pool ~data = { data; tx = sender pool; rx = receiver pool }

let send c l v =
  match encode l.tx v with
  | Write_data w ->
    Core.store c l.data w;
    false
  | Toggle_flag ->
    let flag = l.data + 8 in
    let cur = Core.await c (Core.load c flag) in
    Core.store c flag (Int64.logxor cur 1L);
    true

let decode l ~data ~flag = try_decode l.rx ~data ~flag

let poll c l =
  let d = Core.await c (Core.load c l.data) in
  let f = Core.await c (Core.load c (l.data + 8)) in
  decode l ~data:d ~flag:f

let recv c l = Core.spin_poll c l.data (fun () -> poll c l)
