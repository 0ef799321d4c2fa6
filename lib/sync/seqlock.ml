module Barrier = Armb_cpu.Barrier
module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine

type t = {
  seq : int;
  cells : int array; (* one line per payload field *)
  words : int;
  mutable retry_count : int; (* host-side accounting *)
}

let create m ~words =
  if words < 2 || words > 8 then invalid_arg "Seqlock.create: words must be in 2..8";
  (* one line per field: a realistic multi-line payload, whose partial
     visibility is exactly what the protocol must guard against *)
  let seq = Machine.alloc_line m in
  let data = Machine.alloc_lines m words in
  { seq; cells = Array.init words (fun i -> data + (i * 64)); words; retry_count = 0 }

(* Payloads carry their own checksum in the last word so tearing is
   detectable by tests. *)
let checksum fields =
  let n = Array.length fields in
  let acc = ref 0L in
  for i = 0 to n - 2 do
    acc := Int64.add (Int64.mul !acc 31L) fields.(i)
  done;
  !acc

let make_payload t ~version =
  let p = Array.init t.words (fun i -> Int64.of_int ((version * 1000) + i)) in
  p.(t.words - 1) <- checksum p;
  p

let torn t snapshot =
  Array.length snapshot <> t.words
  || not (Int64.equal snapshot.(t.words - 1) (checksum snapshot))

(* The four orderings: DMB st on each side of the writer's payload
   stores, DMB ld on each side of the reader's payload loads. *)
let fence protected (c : Core.t) b = if protected then Core.barrier c b

let write ?(protected = true) t (c : Core.t) payload =
  if Array.length payload <> t.words then
    invalid_arg "Seqlock.write: wrong payload arity";
  let s = Core.await c (Core.load c t.seq) in
  (* enter: odd sequence *)
  Core.store c t.seq (Int64.add s 1L);
  fence protected c (Barrier.Dmb St);
  Array.iteri (fun i v -> Core.store c t.cells.(i) v) payload;
  fence protected c (Barrier.Dmb St);
  (* leave: even sequence *)
  Core.store c t.seq (Int64.add s 2L)

let rec read ?(protected = true) t (c : Core.t) =
  let s1 = Core.await c (Core.load c t.seq) in
  if Int64.rem s1 2L = 1L then begin
    (* writer inside: park on the sequence line until it moves *)
    t.retry_count <- t.retry_count + 1;
    ignore (Core.spin_until c t.seq (fun v -> not (Int64.equal v s1)));
    read ~protected t c
  end
  else begin
    fence protected c (Barrier.Dmb Ld);
    (* issue all payload loads, then await: they may overlap *)
    let toks = Array.map (fun a -> Core.load c a) t.cells in
    let snapshot = Array.map (fun tok -> Core.await c tok) toks in
    fence protected c (Barrier.Dmb Ld);
    if Int64.equal s1 (Core.await c (Core.load c t.seq)) then snapshot
    else begin
      t.retry_count <- t.retry_count + 1;
      read ~protected t c
    end
  end

let retries t = t.retry_count

let data_addr t i =
  if i < 0 || i >= t.words then invalid_arg "Seqlock.data_addr";
  t.cells.(i)
