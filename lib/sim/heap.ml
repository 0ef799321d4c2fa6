(* 4-ary min-heap.  A wider node halves the tree depth, which is where
   the cycles go when hundreds of cores post events at the same
   timestamp: sift_down does one 4-way minimum per level instead of two
   comparisons, and the key array stays in cache.  Callers pack a total
   order into the integer key (the event queue packs (time, seq), so
   keys are unique) — any correct min-heap therefore pops the same
   sequence, and swapping the arity cannot change simulation results. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable size : int;
  filler : 'a; (* fills every payload slot at or past [size] *)
}

let branch_log = 2
let branch = 1 lsl branch_log

let create ?(capacity = 64) filler =
  let cap = Int.max 1 capacity in
  { keys = Array.make cap 0; vals = Array.make cap filler; size = 0; filler }

let length h = h.size

let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.keys in
  let keys' = Array.make (2 * cap) 0 in
  Array.blit h.keys 0 keys' 0 h.size;
  h.keys <- keys';
  let vals' = Array.make (2 * cap) h.filler in
  Array.blit h.vals 0 vals' 0 h.size;
  h.vals <- vals'

(* Both sifts move a hole instead of swapping: the travelling element
   is written once, where it lands, so a level costs one key and one
   payload store, not two of each. *)
let rec sift_up h i key v =
  let p = (i - 1) lsr branch_log in
  if i > 0 && key < h.keys.(p) then begin
    h.keys.(i) <- h.keys.(p);
    h.vals.(i) <- h.vals.(p);
    sift_up h p key v
  end
  else begin
    h.keys.(i) <- key;
    h.vals.(i) <- v
  end

(* [key]/[v] enter at hole [i] and sink to their place. *)
let rec sift_down h i key v =
  let first = (i lsl branch_log) + 1 in
  let smallest =
    if first >= h.size then i
    else begin
      let last = Int.min (first + branch - 1) (h.size - 1) in
      let s = ref first in
      for c = first + 1 to last do
        if h.keys.(c) < h.keys.(!s) then s := c
      done;
      if h.keys.(!s) < key then !s else i
    end
  in
  if smallest <> i then begin
    h.keys.(i) <- h.keys.(smallest);
    h.vals.(i) <- h.vals.(smallest);
    sift_down h smallest key v
  end
  else begin
    h.keys.(i) <- key;
    h.vals.(i) <- v
  end

let add h ~key v =
  if h.size = Array.length h.keys then grow h;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) key v

(* Sink the last element from the root.  Its old slot gets the filler,
   so a popped payload (and whatever it captures) is not kept reachable
   by the heap. *)
let remove_min h =
  let last = h.size - 1 in
  let key = h.keys.(last) and v = h.vals.(last) in
  h.vals.(last) <- h.filler;
  h.size <- last;
  if last > 0 then sift_down h 0 key v

let pop h =
  if h.size = 0 then None
  else begin
    let k = h.keys.(0) and v = h.vals.(0) in
    remove_min h;
    Some (k, v)
  end

let peek_key h = if h.size = 0 then None else Some h.keys.(0)

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty";
  h.keys.(0)

let pop_min_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_min_exn: empty";
  let v = h.vals.(0) in
  remove_min h;
  v

let clear h =
  Array.fill h.vals 0 h.size h.filler;
  h.size <- 0
