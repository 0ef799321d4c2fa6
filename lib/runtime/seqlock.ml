(* Seq_cst atomics order every access, so neither side needs a fence;
   a reader backs off while a writer is inside or after a torn copy. *)
type t = { seq : int Atomic.t; cells : int Atomic.t array }

let create ~words =
  if words <= 0 then invalid_arg "Seqlock.create";
  { seq = Atomic.make 0; cells = Array.init words (fun _ -> Atomic.make 0) }

let write t payload =
  if Array.length payload <> Array.length t.cells then
    invalid_arg "Seqlock.write: wrong payload arity";
  let s = Atomic.get t.seq in
  Atomic.set t.seq (s + 1);
  Array.iteri (fun i v -> Atomic.set t.cells.(i) v) payload;
  Atomic.set t.seq (s + 2)

let try_read t =
  let s = Atomic.get t.seq in
  if s land 1 = 1 then None
  else
    let snapshot = Array.map Atomic.get t.cells in
    if Atomic.get t.seq = s then Some snapshot else None

let read t = Backoff.poll (fun () -> try_read t)

let writes t = Atomic.get t.seq / 2
