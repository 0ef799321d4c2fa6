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
}

let branch_log = 2
let branch = 1 lsl branch_log

let create ?(capacity = 64) () =
  { keys = Array.make (Int.max 1 capacity) 0; vals = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

let grow h v =
  let cap = Array.length h.keys in
  let keys' = Array.make (2 * cap) 0 in
  Array.blit h.keys 0 keys' 0 h.size;
  h.keys <- keys';
  let vals' = Array.make (2 * cap) v in
  Array.blit h.vals 0 vals' 0 h.size;
  h.vals <- vals'

let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) lsr branch_log in
    if h.keys.(i) < h.keys.(p) then begin
      let k = h.keys.(i) and v = h.vals.(i) in
      h.keys.(i) <- h.keys.(p);
      h.vals.(i) <- h.vals.(p);
      h.keys.(p) <- k;
      h.vals.(p) <- v;
      sift_up h p
    end
  end

let rec sift_down h i =
  let first = (i lsl branch_log) + 1 in
  if first < h.size then begin
    let last = Int.min (first + branch - 1) (h.size - 1) in
    let smallest = ref i in
    for c = first to last do
      if h.keys.(c) < h.keys.(!smallest) then smallest := c
    done;
    if !smallest <> i then begin
      let s = !smallest in
      let k = h.keys.(i) and v = h.vals.(i) in
      h.keys.(i) <- h.keys.(s);
      h.vals.(i) <- h.vals.(s);
      h.keys.(s) <- k;
      h.vals.(s) <- v;
      sift_down h s
    end
  end

let add h ~key v =
  if h.size = 0 && Array.length h.vals = 0 then h.vals <- Array.make (Array.length h.keys) v;
  if h.size = Array.length h.keys then grow h v;
  h.keys.(h.size) <- key;
  h.vals.(h.size) <- v;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop h =
  if h.size = 0 then None
  else begin
    let k = h.keys.(0) and v = h.vals.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.keys.(0) <- h.keys.(h.size);
      h.vals.(0) <- h.vals.(h.size);
      sift_down h 0
    end;
    Some (k, v)
  end

let peek_key h = if h.size = 0 then None else Some h.keys.(0)

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty";
  h.keys.(0)

let pop_min_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_min_exn: empty";
  let v = h.vals.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.keys.(0) <- h.keys.(h.size);
    h.vals.(0) <- h.vals.(h.size);
    sift_down h 0
  end;
  v

let clear h = h.size <- 0
