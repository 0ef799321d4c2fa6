(* Dense bit sets over per-core operation indices, sized to their
   highest member.  The sanitizer's ordered-before sets are unions of
   arbitrary earlier ops (barrier-induced order leaves gaps), so a
   scalar watermark per core is not enough — each set is a small bitmap
   instead.  A set holds one word per [bits] indices and grows only as
   far as its members reach, so a short run's sets are a word each and
   copying or merging one touches only the words in use. *)

let bits = Sys.int_size

type t = { mutable words : int array }

let create () = { words = [||] }

let copy b = { words = Array.copy b.words }

(* Widen [b] to [n] words; the new words are empty. *)
let grow b n =
  let len = Array.length b.words in
  if n > len then begin
    let w = Array.make n 0 in
    Array.blit b.words 0 w 0 len;
    b.words <- w
  end

let add b i =
  let k = i / bits in
  grow b (k + 1);
  b.words.(k) <- b.words.(k) lor (1 lsl (i mod bits))

let mem b i =
  let k = i / bits in
  k < Array.length b.words && b.words.(k) land (1 lsl (i mod bits)) <> 0

let union dst src =
  let n = Array.length src.words in
  grow dst n;
  let d = dst.words and s = src.words in
  for k = 0 to n - 1 do
    d.(k) <- d.(k) lor s.(k)
  done

(* Set every bit in [0, n): the "everything earlier" prefix used by
   release stores and full barriers. *)
let add_below b n =
  let full = n / bits and rest = n mod bits in
  grow b (if rest > 0 then full + 1 else full);
  Array.fill b.words 0 full (-1);
  if rest > 0 then b.words.(full) <- b.words.(full) lor ((1 lsl rest) - 1)
