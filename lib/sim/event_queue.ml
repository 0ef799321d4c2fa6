type time = int

(* Key packing: the heap key is [(time lsl seq_bits) lor seq], so a
   plain integer comparison orders events by time first and insertion
   order second.  Pops are therefore stable by construction — no batch
   staging or equal-time sort — and the payload is the bare closure.

   Budget: OCaml ints give 62 usable bits, so with 24 seq bits times up
   to [max_time] = 2^38 - 1 cycles pack losslessly.  A later time would
   wrap the key and fire out of order, so [schedule] rejects it.  When
   the per-queue sequence counter saturates we renumber the pending
   events (they keep their relative order and future events still sort
   after them), so the counter never limits queue lifetime.

   High fan-in fast path: events scheduled AT the current timestamp
   (thread launches, zero-delay wakeups, resumes that landed exactly on
   the clock) carry keys that are strictly larger than anything already
   pending at this instant and strictly smaller than any future-time
   key, and their keys arrive in increasing order — so they form a FIFO,
   not a heap problem.  They go into a ring buffer with O(1) push/pop
   instead of paying two O(log n) sifts each; with hundreds of cores
   posting at one timestamp this is the difference between linear and
   n-log-n behaviour at each barrier instant.  Dispatch always pops the
   smaller of (ring head, heap min), and since keys are unique and
   totally ordered the observable event sequence is identical to the
   pure-heap queue — the golden digests pin this. *)

let seq_bits = 24
let seq_mask = (1 lsl seq_bits) - 1
let max_time = max_int lsr seq_bits

type t = {
  heap : (unit -> unit) Heap.t;
  mutable clock : time;
  mutable next_seq : int;
  mutable processed : int;
  (* ring of events scheduled at the current timestamp, FIFO by key *)
  mutable ikeys : int array;
  mutable ifns : (unit -> unit) array;
  mutable ihead : int;
  mutable icount : int;
}

let create () =
  {
    heap = Heap.create ignore;
    clock = 0;
    next_seq = 0;
    processed = 0;
    ikeys = Array.make 64 0;
    ifns = Array.make 64 ignore;
    ihead = 0;
    icount = 0;
  }

let now t = t.clock

let reset t =
  Heap.clear t.heap;
  (* drop the ring's pending closures too, not only its count *)
  for i = 0 to t.icount - 1 do
    t.ifns.((t.ihead + i) land (Array.length t.ifns - 1)) <- ignore
  done;
  t.ihead <- 0;
  t.icount <- 0;
  t.clock <- 0;
  t.next_seq <- 0;
  t.processed <- 0

(* ---------- immediate ring ---------- *)

let ring_grow t =
  let cap = Array.length t.ikeys in
  let ikeys = Array.make (2 * cap) 0 and ifns = Array.make (2 * cap) ignore in
  for i = 0 to t.icount - 1 do
    let j = (t.ihead + i) land (cap - 1) in
    ikeys.(i) <- t.ikeys.(j);
    ifns.(i) <- t.ifns.(j)
  done;
  t.ikeys <- ikeys;
  t.ifns <- ifns;
  t.ihead <- 0

let ring_push t key fn =
  if t.icount = Array.length t.ikeys then ring_grow t;
  let j = (t.ihead + t.icount) land (Array.length t.ikeys - 1) in
  t.ikeys.(j) <- key;
  t.ifns.(j) <- fn;
  t.icount <- t.icount + 1

let[@inline] ring_head_key t = t.ikeys.(t.ihead)

let ring_pop t =
  let fn = t.ifns.(t.ihead) in
  t.ifns.(t.ihead) <- ignore;
  t.ihead <- (t.ihead + 1) land (Array.length t.ikeys - 1);
  t.icount <- t.icount - 1;
  fn

(* Smallest pending key across ring and heap; [min_int] means empty.
   The ring is FIFO by construction, so its head is its minimum. *)
let next_key t =
  if t.icount = 0 then if Heap.is_empty t.heap then min_int else Heap.min_key t.heap
  else if Heap.is_empty t.heap then ring_head_key t
  else Int.min (ring_head_key t) (Heap.min_key t.heap)

let pop_next t =
  if t.icount > 0 && (Heap.is_empty t.heap || ring_head_key t < Heap.min_key t.heap)
  then ring_pop t
  else Heap.pop_min_exn t.heap

(* Compact the sequence space: drain the ring into the heap, then pop
   every pending event in (time, seq) order and reinsert with seqs
   0..n-1.  Relative order is preserved and reinsertion happens in
   ascending key order, so each add is O(1). *)
let renumber t =
  while t.icount > 0 do
    let key = ring_head_key t in
    Heap.add t.heap ~key (ring_pop t)
  done;
  let n = Heap.length t.heap in
  if n > seq_mask then failwith "Event_queue: too many pending events";
  let keys = Array.make (Int.max n 1) 0 in
  let fns = Array.make (Int.max n 1) ignore in
  for i = 0 to n - 1 do
    let key = Heap.min_key t.heap in
    keys.(i) <- (key lsr seq_bits lsl seq_bits) lor i;
    fns.(i) <- Heap.pop_min_exn t.heap
  done;
  for i = 0 to n - 1 do
    Heap.add t.heap ~key:keys.(i) fns.(i)
  done;
  t.next_seq <- n

let schedule t ~at fn =
  let at = if at < t.clock then t.clock else at in
  if at > max_time then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: time %d is past the limit of %d cycles" at max_time);
  if t.next_seq > seq_mask then renumber t;
  let key = (at lsl seq_bits) lor t.next_seq in
  t.next_seq <- t.next_seq + 1;
  if at = t.clock then ring_push t key fn else Heap.add t.heap ~key fn

let schedule_in t ~delay fn = schedule t ~at:(t.clock + Int.max 0 delay) fn

let run_next t =
  let key = next_key t in
  if key = min_int then false
  else begin
    let time = key lsr seq_bits in
    let fn = pop_next t in
    if time > t.clock then t.clock <- time;
    t.processed <- t.processed + 1;
    fn ();
    true
  end

let run ?until ?max_events t =
  let budget_left () =
    match max_events with Some m -> t.processed < m | None -> true
  in
  (* Advance the clock to [until] when the run stops because the queue
     drained (or only holds later events) — time still passed even if
     nothing happened in it.  A [max_events] stop leaves the clock at
     the last processed event. *)
  let advance_to_until () =
    match until with Some u when u > t.clock -> t.clock <- u | _ -> ()
  in
  let rec loop () =
    if budget_left () then begin
      let key = next_key t in
      if key = min_int then advance_to_until ()
      else begin
        let time = key lsr seq_bits in
        match until with
        | Some u when time > u -> advance_to_until ()
        | _ ->
          let fn = pop_next t in
          if time > t.clock then t.clock <- time;
          t.processed <- t.processed + 1;
          fn ();
          loop ()
      end
    end
  in
  loop ()

let pending t = Heap.length t.heap + t.icount

let processed t = t.processed
