type t = { next : int Atomic.t; serving : int Atomic.t }

let create () = { next = Atomic.make 0; serving = Atomic.make 0 }

(* Seq_cst atomics carry the fences.  The first read of [serving] is
   inline so that a free lock is taken without building a closure. *)
let acquire t =
  let my = Atomic.fetch_and_add t.next 1 in
  if Atomic.get t.serving <> my then Backoff.wait (fun () -> Atomic.get t.serving = my)

let release t = Atomic.set t.serving (Atomic.get t.serving + 1)

let with_lock t f =
  acquire t;
  match f () with
  | v ->
    release t;
    v
  | exception e ->
    release t;
    raise e

let holders_served t = Atomic.get t.serving
