type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* Mixing function from SplitMix64: xor-shift multiply chain. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = s }

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the conversion to a 63-bit OCaml int stays
     non-negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform bits -> [0,1) *)
  let u = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (u /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
