(* The benchmark's clock and its in-memory span recorder.

   Spans are recorded from the benchmark's own files, around calls into
   each layer's public functions; nothing inside lib/ is instrumented.
   Per-name totals are kept online, so the per-layer numbers do not
   depend on how many spans are kept for export. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = { id : int; name : string; start_ns : int; end_ns : int; parent : int; req : int }

(* Enough for a full traced run of every workload on a 2-CPU host; past
   it spans are counted but not kept. *)
let max_kept = 1 lsl 18

type total = { mutable ns : int; mutable calls : int }

type t = {
  origin_ns : int;
  mutable next_id : int;
  mutable kept : span list;  (* newest first *)
  mutable n_kept : int;
  mutable dropped : int;
  totals : (string, total) Hashtbl.t;
}

let create () =
  {
    origin_ns = now_ns ();
    next_id = 0;
    kept = [];
    n_kept = 0;
    dropped = 0;
    totals = Hashtbl.create 64;
  }

(* A span's id is taken when it opens, so children recorded before
   their parent closes can name it. *)
let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ~id ~name ~parent ~req ~start_ns ~end_ns =
  let tot =
    match Hashtbl.find_opt t.totals name with
    | Some tot -> tot
    | None ->
      let tot = { ns = 0; calls = 0 } in
      Hashtbl.add t.totals name tot;
      tot
  in
  tot.ns <- tot.ns + (end_ns - start_ns);
  tot.calls <- tot.calls + 1;
  if t.n_kept < max_kept then begin
    t.kept <- { id; name; start_ns; end_ns; parent; req } :: t.kept;
    t.n_kept <- t.n_kept + 1
  end
  else t.dropped <- t.dropped + 1

(* [span tr ~name ~parent ~req f] runs [f] inside a span when tracing
   is on, and just runs it otherwise. *)
let span tr ~name ~parent ~req f =
  match tr with
  | None -> f ()
  | Some t ->
    let id = fresh_id t in
    let start_ns = now_ns () in
    let r = f () in
    record t ~id ~name ~parent ~req ~start_ns ~end_ns:(now_ns ());
    r

let total_ns t name = match Hashtbl.find_opt t.totals name with Some x -> x.ns | None -> 0
let calls t name = match Hashtbl.find_opt t.totals name with Some x -> x.calls | None -> 0

(* Mean microseconds per call of [name]; 0 when never called. *)
let mean_us t name =
  let c = calls t name in
  if c = 0 then 0.0 else float_of_int (total_ns t name) /. float_of_int c /. 1e3

(* One JSON object per span, oldest first; times relative to the
   tracer's creation. *)
let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n" s.id
        s.name (s.start_ns - t.origin_ns) (s.end_ns - t.origin_ns) s.parent s.req)
    (List.rev t.kept);
  if t.dropped > 0 then Printf.fprintf oc "{\"dropped\":%d}\n" t.dropped;
  close_out oc

(* ---------- statistics over samples ---------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* A growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }
  let clear t = t.n <- 0

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1
end
