(* Multi-word core bitsets for the directory and topology.

   Sharer sets used to be one OCaml int, which capped the machine at 62
   cores and made every widening a silent wrap.  A set is now an array
   of 32-bit words (32 so that word/bit indexing stays shifts and masks
   — no division — while every word fits an OCaml int with room to
   spare), with the invariant that bits at or above [capacity] are
   always zero.  All hot-path queries iterate words, never cores, so a
   directory walk over 512 sharers costs 16 word operations.

   Every membership-changing operation bounds-checks its core index and
   fails loudly: the old [1 lsl core] sites wrapped silently past bit
   62, which is exactly the failure mode this module retires. *)

type t = { words : int array; cap : int }

let word_bits = 32
let shift = 5 (* log2 word_bits *)
let low_mask = word_bits - 1

let create ~cores =
  if cores <= 0 then invalid_arg "Coreset.create: non-positive capacity";
  { words = Array.make ((cores + word_bits - 1) lsr shift) 0; cap = cores }

let capacity t = t.cap
let words t = Array.length t.words

let[@inline] check t i op =
  if i < 0 || i >= t.cap then
    invalid_arg (Printf.sprintf "Coreset.%s: core %d outside 0..%d" op i (t.cap - 1))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let add t i =
  check t i "add";
  let w = i lsr shift in
  t.words.(w) <- t.words.(w) lor (1 lsl (i land low_mask))

let remove t i =
  check t i "remove";
  let w = i lsr shift in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i land low_mask))

let mem t i =
  check t i "mem";
  t.words.(i lsr shift) land (1 lsl (i land low_mask)) <> 0

(* Directory transitions replace the whole sharer set at once (DRAM
   fill, owner downgrade, write completion); doing clear+add in one
   entry point keeps those paths allocation-free and obvious. *)
let set_only t i =
  check t i "set_only";
  Array.fill t.words 0 (Array.length t.words) 0;
  t.words.(i lsr shift) <- 1 lsl (i land low_mask)

let set_pair t i j =
  check t i "set_pair";
  check t j "set_pair";
  Array.fill t.words 0 (Array.length t.words) 0;
  t.words.(i lsr shift) <- 1 lsl (i land low_mask);
  let wj = j lsr shift in
  t.words.(wj) <- t.words.(wj) lor (1 lsl (j land low_mask))

let is_empty t =
  let n = Array.length t.words in
  let rec go w = w >= n || (t.words.(w) = 0 && go (w + 1)) in
  go 0

(* Membership tests against another set (the topology's cluster/node
   sets): word loops with optional single-core exclusion, which is what
   the farthest-snoop and invalidation-fan-out walks ask. *)

let any_except t i =
  check t i "any_except";
  let wi = i lsr shift and bi = 1 lsl (i land low_mask) in
  let n = Array.length t.words in
  let rec go w =
    if w >= n then false
    else
      let v = if w = wi then t.words.(w) land lnot bi else t.words.(w) in
      v <> 0 || go (w + 1)
  in
  go 0

let intersects a b =
  let n = Int.min (Array.length a.words) (Array.length b.words) in
  let rec go w = w < n && (a.words.(w) land b.words.(w) <> 0 || go (w + 1)) in
  go 0

(* Is any member of [a] (other than [except]) outside [b]?  [b] must
   have at least [a]'s capacity (true for topology sets by construction:
   all sets of one machine share one capacity). *)
let outside_except a b ~except =
  check a except "outside_except";
  let we = except lsr shift and be = 1 lsl (except land low_mask) in
  let n = Array.length a.words in
  let rec go w =
    if w >= n then false
    else
      let v = a.words.(w) land lnot b.words.(w) in
      let v = if w = we then v land lnot be else v in
      v <> 0 || go (w + 1)
  in
  go 0

let popcount_word m =
  let m = ref m and n = ref 0 in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr n
  done;
  !n

let cardinal t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let cardinal_except t i =
  check t i "cardinal_except";
  cardinal t - if mem t i then 1 else 0

let iter t f =
  let n = Array.length t.words in
  for w = 0 to n - 1 do
    let m = ref t.words.(w) in
    while !m <> 0 do
      let low = !m land - !m in
      (* count trailing zeros of the isolated low bit *)
      let rec tz bit acc = if bit = 1 then acc else tz (bit lsr 1) (acc + 1) in
      f ((w lsl shift) + tz low 0);
      m := !m land lnot low
    done
  done

let equal a b = a.cap = b.cap && a.words = b.words

let copy t = { words = Array.copy t.words; cap = t.cap }

let to_list t =
  let acc = ref [] in
  iter t (fun i -> acc := i :: !acc);
  List.rev !acc
