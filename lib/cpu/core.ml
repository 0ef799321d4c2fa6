module Memsys = Armb_mem.Memsys
module Event_queue = Armb_sim.Event_queue
module Int_table = Armb_sim.Int_table
module Injector = Armb_fault.Injector

type token = {
  mutable completed : bool;
  mutable v : int64;
  mutable complete_at : int;
  mutable waiter : (unit -> unit) option;
  mutable obs : int; (* observer seq of the producing load/rmw, -1 if untracked *)
}

type counters = {
  loads : int;
  stores : int;
  barriers : int;
  rmws : int;
  spins : int;
}

(* Store-buffer forwarding entry for one word address: the youngest
   buffered value and the number of undrained stores to that word.  The
   cell stays in the table at [n = 0] (dead) so the hot path never
   deletes — it just flips counts.  Only stores add cells; a load of a
   word with none reads [dead_fwd], which nothing ever writes. *)
type fwd_cell = { mutable fv : int64; mutable fn : int }

let dead_fwd = { fv = 0L; fn = 0 }

type t = {
  id : int;
  cfg : Config.t;
  q : Event_queue.t;
  memory : Memsys.t;
  mutable cursor : int;
  (* In-flight window (ROB): (op count, retire-ready time) entries in
     program order kept in a fixed ring (at most [rob_size] entries,
     since every entry covers >= 1 op); retire-ready is the running max
     of completion times, which encodes in-order retirement. *)
  if_counts : int array;
  if_retires : int array;
  mutable if_head : int;
  mutable if_len : int;
  mutable inflight_count : int;
  mutable retire_wm : int;
  (* Store buffer: completion times of undrained stores (unordered,
     at most [sb_size] live), plus the forwarding map. *)
  sb : int array;
  mutable sb_count : int;
  fwd : fwd_cell Int_table.t;
  (* Ordering state. *)
  mutable load_gate : int; (* earliest issue of subsequent loads *)
  mutable sb_gate : int; (* earliest drain start of subsequent stores *)
  line_load_until : int Int_table.t;
      (* per line: latest completion among this core's issued loads —
         a later same-line store may not commit before them (po-loc) *)
  mutable last_load_complete : int;
  mutable last_store_complete : int;
  mutable cross_load_until : int; (* a cross-node load outstanding until t *)
  mutable cross_store_until : int;
  mutable observer : Observe.t option;
  mutable fault : Injector.t option;
  mutable op_seq : int; (* next observer event index *)
  (* Counters. *)
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_barriers : int;
  mutable n_rmws : int;
  mutable n_spins : int;
}

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let make ?observer ?fault ~id ~cfg ~queue ~mem () =
  Config.validate cfg;
  {
    observer;
    fault;
    op_seq = 0;
    id;
    cfg;
    q = queue;
    memory = mem;
    cursor = 0;
    if_counts = Array.make (cfg.rob_size + 1) 0;
    if_retires = Array.make (cfg.rob_size + 1) 0;
    if_head = 0;
    if_len = 0;
    inflight_count = 0;
    retire_wm = 0;
    sb = Array.make (Int.max 1 cfg.sb_size) 0;
    sb_count = 0;
    fwd = Int_table.create ~capacity:16 dead_fwd;
    load_gate = 0;
    sb_gate = 0;
    line_load_until = Int_table.create ~capacity:16 0;
    last_load_complete = 0;
    last_store_complete = 0;
    cross_load_until = 0;
    cross_store_until = 0;
    n_loads = 0;
    n_stores = 0;
    n_barriers = 0;
    n_rmws = 0;
    n_spins = 0;
  }

(* Field by field back to [make]'s state; the ring and store-buffer
   arrays keep their contents, which nothing reads past [if_len] and
   [sb_count]. *)
let reset ?observer ?fault t =
  t.observer <- observer;
  t.fault <- fault;
  t.op_seq <- 0;
  t.cursor <- 0;
  t.if_head <- 0;
  t.if_len <- 0;
  t.inflight_count <- 0;
  t.retire_wm <- 0;
  t.sb_count <- 0;
  Int_table.clear t.fwd;
  t.load_gate <- 0;
  t.sb_gate <- 0;
  Int_table.clear t.line_load_until;
  t.last_load_complete <- 0;
  t.last_store_complete <- 0;
  t.cross_load_until <- 0;
  t.cross_store_until <- 0;
  t.n_loads <- 0;
  t.n_stores <- 0;
  t.n_barriers <- 0;
  t.n_rmws <- 0;
  t.n_spins <- 0

let id t = t.id
let cursor t = t.cursor

(* Yield to the event queue when the thread has run too far ahead of
   global simulated time, so concurrently-running threads interleave at
   [quantum] granularity and contend for cache lines realistically. *)
let maybe_yield t =
  if t.cursor - Event_queue.now t.q > t.cfg.quantum then begin
    let q = t.q and at = t.cursor in
    Effect.perform (Suspend (fun resume -> Event_queue.schedule q ~at resume))
  end

let counters t =
  { loads = t.n_loads; stores = t.n_stores; barriers = t.n_barriers; rmws = t.n_rmws; spins = t.n_spins }

(* Fault injection: lose issue slots before a memory operation (a
   frontend/dispatch hiccup).  Pure delay, zero-cost when unwired. *)
let[@inline] fault_stall t =
  match t.fault with
  | None -> ()
  | Some f ->
    let s = Injector.stall f in
    if s > 0 then t.cursor <- t.cursor + s

(* Extra response delay of a barrier's ACE transaction when the fault
   plan NACKs it: each retry round pays the plan's exponential backoff
   before the fabric accepts the transaction. *)
let[@inline] fault_barrier_delay t =
  match t.fault with None -> 0 | Some f -> Injector.barrier_delay f

(* Advance the cursor to at least [time]: a resumed core cannot issue
   before the scheduler's clock. *)
let sync_to t time = if time > t.cursor then t.cursor <- time

(* ---------- Observation ---------- *)

(* Emit one access or fence event; returns its per-core seq (-1 when no
   observer is installed, so tokens of unobserved runs carry no id). *)
let emit t ~kind ~addr ~deps ~issued ~completes =
  match t.observer with
  | None -> -1
  | Some f ->
    let seq = t.op_seq in
    t.op_seq <- seq + 1;
    let deps = List.filter_map (fun tok -> if tok.obs >= 0 then Some tok.obs else None) deps in
    f { Observe.core = t.id; seq; kind; addr; deps; issued_at = issued; completes_at = completes };
    seq

(* ---------- In-flight window ---------- *)

let[@inline] if_wrap t i = if i >= Array.length t.if_counts then i - Array.length t.if_counts else i

let retire_ready t =
  (* Free entries whose retire time has passed. *)
  while t.if_len > 0 && t.if_retires.(t.if_head) <= t.cursor do
    t.inflight_count <- t.inflight_count - t.if_counts.(t.if_head);
    t.if_head <- if_wrap t (t.if_head + 1);
    t.if_len <- t.if_len - 1
  done

let retire_oldest t =
  if t.if_len > 0 then begin
    let r = t.if_retires.(t.if_head) in
    t.inflight_count <- t.inflight_count - t.if_counts.(t.if_head);
    t.if_head <- if_wrap t (t.if_head + 1);
    t.if_len <- t.if_len - 1;
    if r > t.cursor then t.cursor <- r
  end

let if_push t count retire =
  let tail = if_wrap t (t.if_head + t.if_len) in
  t.if_counts.(tail) <- count;
  t.if_retires.(tail) <- retire;
  t.if_len <- t.if_len + 1;
  t.inflight_count <- t.inflight_count + count

let push_op t count completion =
  retire_ready t;
  while t.inflight_count + count > t.cfg.rob_size && t.if_len > 0 do
    retire_oldest t
  done;
  t.retire_wm <- Int.max t.retire_wm completion;
  if_push t count t.retire_wm

(* ---------- ALU work ---------- *)

let compute t n =
  if n < 0 then invalid_arg "Core.compute: negative count";
  let start = t.cursor in
  let rob = t.cfg.rob_size and ipc = t.cfg.alu_ipc in
  let remaining = ref n in
  while !remaining > 0 do
    retire_ready t;
    if t.if_len = 0 && t.retire_wm <= t.cursor then begin
      (* Steady state: the window is empty and nothing retires in the
         future, so every further batch is a full-width push that
         retires by the time the next one issues.  The remaining ops
         collapse to arithmetic — same cycles, same final window state
         (one entry: the last batch) as stepping the loop. *)
      let m = !remaining in
      let full = m / rob and rem = m mod rob in
      let per_full = (rob + ipc - 1) / ipc in
      let last = if rem = 0 then rob else rem in
      let cycles =
        ((if rem = 0 then full - 1 else full) * per_full) + ((last + ipc - 1) / ipc)
      in
      t.cursor <- t.cursor + cycles;
      t.retire_wm <- t.cursor;
      if_push t last t.cursor;
      remaining := 0
    end
    else begin
      let free = rob - t.inflight_count in
      if free <= 0 then retire_oldest t
      else begin
        let k = Int.min free !remaining in
        let cycles = (k + ipc - 1) / ipc in
        t.cursor <- t.cursor + cycles;
        t.retire_wm <- Int.max t.retire_wm t.cursor;
        if_push t k t.retire_wm;
        remaining := !remaining - k
      end
    end
  done;
  (* ALU work takes no program-order slot: seq -1, [op_seq] untouched. *)
  match t.observer with
  | Some f when n > 0 ->
    f
      {
        Observe.core = t.id;
        seq = -1;
        kind = Observe.Compute n;
        addr = -1;
        deps = [];
        issued_at = start;
        completes_at = t.cursor;
      }
  | _ -> ()
(* Note: compute does not yield — a thread doing pure ALU work cannot
   affect other cores, and long think times would otherwise flood the
   event queue.  Yields happen at memory operations. *)

(* ---------- Store buffer helpers ---------- *)

(* Drop drained entries (completion <= cursor) by in-place compaction;
   order among live entries is irrelevant. *)
let sb_trim t =
  let kept = ref 0 in
  for i = 0 to t.sb_count - 1 do
    let c = Array.unsafe_get t.sb i in
    if c > t.cursor then begin
      Array.unsafe_set t.sb !kept c;
      incr kept
    end
  done;
  t.sb_count <- !kept

let sb_add t completion =
  Array.unsafe_set t.sb t.sb_count completion;
  t.sb_count <- t.sb_count + 1

let sb_reserve t =
  sb_trim t;
  if t.sb_count >= t.cfg.sb_size then begin
    let earliest = ref max_int in
    for i = 0 to t.sb_count - 1 do
      if t.sb.(i) < !earliest then earliest := t.sb.(i)
    done;
    if !earliest > t.cursor then t.cursor <- !earliest;
    sb_trim t
  end

let word addr = addr lsr 3

let new_fwd_cell _w = { fv = 0L; fn = 0 }

let fwd_add t addr v =
  let cell = Int_table.find_or_add t.fwd (word addr) new_fwd_cell in
  cell.fv <- v;
  cell.fn <- cell.fn + 1

let fwd_remove t addr =
  let cell = Int_table.find_or_add t.fwd (word addr) new_fwd_cell in
  if cell.fn > 0 then cell.fn <- cell.fn - 1

let fwd_cell t addr = Int_table.get t.fwd (word addr) ~default:dead_fwd

(* ---------- Loads ---------- *)

let finished_token v at = { completed = true; v; complete_at = at; waiter = None; obs = -1 }

let note_line_load t addr completion =
  let ln = addr lsr 6 in
  if completion > Int_table.get t.line_load_until ln ~default:0 then
    Int_table.set t.line_load_until ln completion

let line_load_gate t addr = Int_table.get t.line_load_until (addr lsr 6) ~default:0

let load_aux t ~acquire ~deps addr =
  t.n_loads <- t.n_loads + 1;
  maybe_yield t;
  fault_stall t;
  let t_issue = Int.max t.cursor t.load_gate in
  let cell = fwd_cell t addr in
  if cell.fn > 0 then begin
    (* Store-to-load forwarding out of the store buffer. *)
    let v = cell.fv in
    let completion = t_issue + t.cfg.lat.l1_hit in
    push_op t 1 completion;
    t.last_load_complete <- Int.max t.last_load_complete completion;
    note_line_load t addr completion;
    let tok = finished_token v completion in
    (* Only materialize the observer event (and its record/variant) when
       an observer is actually installed — unobserved runs pay nothing. *)
    (match t.observer with
    | None -> ()
    | Some _ ->
      tok.obs <-
        emit t ~kind:(Observe.Load { acquire }) ~addr ~deps ~issued:t_issue
          ~completes:completion);
    tok
  end
  else begin
    let a = Memsys.read t.memory ~now:t_issue ~core:t.id ~addr in
    let completion = t_issue + a.latency in
    if a.cross_node then t.cross_load_until <- Int.max t.cross_load_until completion;
    t.last_load_complete <- Int.max t.last_load_complete completion;
    note_line_load t addr completion;
    push_op t 1 completion;
    let obs =
      match t.observer with
      | None -> -1
      | Some _ ->
        emit t ~kind:(Observe.Load { acquire }) ~addr ~deps ~issued:t_issue
          ~completes:completion
    in
    if a.hit && a.latency <= t.cfg.lat.l1_hit && completion <= Event_queue.now t.q + t.cfg.lat.l1_hit
    then begin
      (* L1 hits whose completion is (essentially) now sample
         synchronously — no commit can intervene — which keeps polling
         loops cheap to simulate.  Hits scheduled in this core's future
         (e.g. behind a load gate while the thread runs ahead of global
         time) must go through the event queue so they observe stores
         committed in between. *)
      let tok = finished_token (Memsys.load_value t.memory ~addr) completion in
      tok.obs <- obs;
      tok
    end
    else begin
      let tok = { completed = false; v = 0L; complete_at = completion; waiter = None; obs } in
      Event_queue.schedule t.q ~at:completion (fun () ->
          tok.v <- Memsys.load_value t.memory ~addr;
          tok.completed <- true;
          match tok.waiter with
          | Some w ->
            tok.waiter <- None;
            w ()
          | None -> ());
      tok
    end
  end

let load t ?(deps = []) addr = load_aux t ~acquire:false ~deps addr

let await t tok =
  if not tok.completed then
    Effect.perform (Suspend (fun resume -> tok.waiter <- Some resume));
  if tok.complete_at > t.cursor then t.cursor <- tok.complete_at;
  tok.v

let value tok =
  if not tok.completed then invalid_arg "Core.value: token still in flight";
  tok.v

(* ---------- Stores ---------- *)

let store_common t addr v ~drain_start ~extra ~release ~deps =
  let a = Memsys.write_begin t.memory ~now:drain_start ~core:t.id ~addr in
  let completion = drain_start + a.latency + extra in
  if extra > 0 then Memsys.extend_pending t.memory ~core:t.id ~addr ~until:completion;
  if a.cross_node then t.cross_store_until <- Int.max t.cross_store_until completion;
  t.last_store_complete <- Int.max t.last_store_complete completion;
  sb_add t completion;
  fwd_add t addr v;
  (* The store instruction itself retires once buffered. *)
  push_op t 1 (t.cursor + 1);
  if t.observer <> None then
    ignore
      (emit t ~kind:(Observe.Store { release }) ~addr ~deps ~issued:drain_start
         ~completes:completion);
  let core_id = t.id in
  Event_queue.schedule t.q ~at:completion (fun () ->
      fwd_remove t addr;
      Memsys.write_finish t.memory ~now:completion ~core:core_id ~addr;
      Memsys.commit_store t.memory ~addr v)

let store t ?(deps = []) addr v =
  t.n_stores <- t.n_stores + 1;
  maybe_yield t;
  fault_stall t;
  sb_reserve t;
  (* po-loc: may not commit before earlier same-line loads complete *)
  let drain_start = Int.max (Int.max t.cursor t.sb_gate) (line_load_gate t addr) in
  store_common t addr v ~drain_start ~extra:0 ~release:false ~deps

let stlr t ?(deps = []) addr v =
  t.n_stores <- t.n_stores + 1;
  maybe_yield t;
  fault_stall t;
  sb_reserve t;
  (* Release: all prior loads and stores must be observable before the
     released store commits. *)
  let drain_start =
    Int.max
      (Int.max (Int.max t.cursor t.sb_gate) (line_load_gate t addr))
      (Int.max t.last_load_complete t.last_store_complete)
  in
  store_common t addr v ~drain_start ~extra:t.cfg.stlr_extra ~release:true ~deps

(* ---------- Load-acquire ---------- *)

let ldar t ?(deps = []) addr =
  let tok = load_aux t ~acquire:true ~deps addr in
  (* Subsequent memory accesses held until the acquire completes. *)
  t.load_gate <- Int.max t.load_gate tok.complete_at;
  t.sb_gate <- Int.max t.sb_gate tok.complete_at;
  tok

(* ---------- Barriers ---------- *)

(* Response time of a DMB's ACE memory barrier transaction: it reaches
   the inner bi-section boundary only after the outstanding snoop
   transactions (pending drains / in-flight loads) have finished — so
   cross-node snoops inflate it (Observation 5) — but when nothing
   relevant is outstanding the transaction terminates internally. *)
let dmb_response t resp_base =
  if resp_base <= t.cursor then t.cursor + t.cfg.dmb_min
  else
    (* A transaction that does travel to the boundary is exposed to the
       fabric: a fault plan may NACK it, charging backoff per retry. *)
    resp_base + t.cfg.lat.bisection_rt + fault_barrier_delay t

let barrier t (b : Barrier.t) =
  t.n_barriers <- t.n_barriers + 1;
  maybe_yield t;
  let start = t.cursor in
  (match b with
  | Dmb opt ->
    let waits_loads = opt <> Barrier.St and waits_stores = opt <> Barrier.Ld in
    let resp_base =
      Int.max
        (if waits_loads then t.last_load_complete else 0)
        (if waits_stores then t.last_store_complete else 0)
    in
    let resp =
      match opt with
      | Barrier.Ld ->
        (* Resolved core-locally: the core knows when loads finish. *)
        if resp_base <= t.cursor then t.cursor + t.cfg.dmb_min else resp_base
      | Barrier.Full | Barrier.St -> dmb_response t resp_base
    in
    (match opt with
    | Barrier.Full ->
      t.load_gate <- Int.max t.load_gate resp;
      t.sb_gate <- Int.max t.sb_gate resp;
      (* DMB full occupies the in-flight window until its response:
         long waits saturate the ROB and stall independent work. *)
      push_op t 1 resp
    | Barrier.St ->
      t.sb_gate <- Int.max t.sb_gate resp;
      (* A more radical implementation: retires immediately, leaving
         only an ordering token in the store buffer. *)
      push_op t 1 (t.cursor + 1)
    | Barrier.Ld ->
      t.load_gate <- Int.max t.load_gate resp;
      t.sb_gate <- Int.max t.sb_gate resp;
      push_op t 1 resp)
  | Dsb opt ->
    let resp_base =
      Int.max
        (if opt <> Barrier.St then t.last_load_complete else 0)
        (if opt <> Barrier.Ld then t.last_store_complete else 0)
    in
    (* The synchronization barrier transaction always travels to the
       inner domain boundary and blocks every subsequent instruction. *)
    let resp = Int.max t.cursor resp_base + t.cfg.lat.domain_rt + fault_barrier_delay t in
    t.cursor <- resp;
    t.load_gate <- Int.max t.load_gate resp;
    t.sb_gate <- Int.max t.sb_gate resp;
    push_op t 1 resp
  | Isb ->
    (* Pipeline flush: refetch after every prior instruction retires. *)
    let resp = Int.max t.cursor t.retire_wm + t.cfg.isb_cost in
    t.cursor <- resp;
    push_op t 1 resp);
  if t.observer <> None then
    ignore
      (emit t ~kind:(Observe.Fence b) ~addr:(-1) ~deps:[] ~issued:start
         ~completes:(Int.max start (Int.max t.load_gate t.sb_gate)))

(* ---------- Atomics ---------- *)

let rmw t ?(acq = false) ?(rel = false) ?(deps = []) addr f =
  t.n_rmws <- t.n_rmws + 1;
  maybe_yield t;
  fault_stall t;
  let start = Int.max (Int.max t.cursor t.load_gate) (line_load_gate t addr) in
  let start =
    if rel then Int.max start (Int.max t.last_load_complete t.last_store_complete) else start
  in
  let a = Memsys.rmw t.memory ~now:start ~core:t.id ~addr in
  let completion = start + a.latency in
  if a.cross_node then begin
    t.cross_load_until <- Int.max t.cross_load_until completion;
    t.cross_store_until <- Int.max t.cross_store_until completion
  end;
  t.last_load_complete <- Int.max t.last_load_complete completion;
  t.last_store_complete <- Int.max t.last_store_complete completion;
  if acq then begin
    t.load_gate <- Int.max t.load_gate completion;
    t.sb_gate <- Int.max t.sb_gate completion
  end;
  push_op t 1 completion;
  let obs =
    match t.observer with
    | None -> -1
    | Some _ ->
      emit t ~kind:(Observe.Rmw { acq; rel }) ~addr ~deps ~issued:start ~completes:completion
  in
  let tok = { completed = false; v = 0L; complete_at = completion; waiter = None; obs } in
  Event_queue.schedule t.q ~at:completion (fun () ->
      let old = Memsys.load_value t.memory ~addr in
      Memsys.commit_store t.memory ~addr (f old);
      tok.v <- old;
      tok.completed <- true;
      match tok.waiter with
      | Some w ->
        tok.waiter <- None;
        w ()
      | None -> ());
  tok

let cas t ?acq ?rel ?deps addr ~expected ~desired =
  rmw t ?acq ?rel ?deps addr (fun old -> if Int64.equal old expected then desired else old)

let fetch_add t ?acq ?rel ?deps addr delta =
  rmw t ?acq ?rel ?deps addr (fun old -> Int64.add old delta)

(* ---------- Spinning ---------- *)

let rec spin_until t addr pred =
  t.n_spins <- t.n_spins + 1;
  let tok = load t addr in
  let v = await t tok in
  if pred v then v
  else begin
    (* Sleep until any store commits to the line, then poll again. *)
    Effect.perform (Suspend (fun resume -> Memsys.watch t.memory ~addr resume));
    sync_to t (Event_queue.now t.q);
    spin_until t addr pred
  end

(* Prepare-to-wait: [check] may suspend internally (it awaits loads), so
   a store could commit between its sampling and a later watch
   registration — registering the watch first closes that lost-wakeup
   window.  A watch left over from a successful poll only touches this
   round's refs, which is harmless. *)
let rec spin_poll t addr check =
  t.n_spins <- t.n_spins + 1;
  let fired_early = ref false in
  let parked = ref None in
  Memsys.watch t.memory ~addr (fun () ->
      match !parked with
      | Some resume ->
        parked := None;
        resume ()
      | None -> fired_early := true);
  match check () with
  | Some v -> v
  | None ->
    if not !fired_early then
      Effect.perform (Suspend (fun resume -> parked := Some resume));
    sync_to t (Event_queue.now t.q);
    spin_poll t addr check

let pause t n =
  if n < 0 then invalid_arg "Core.pause: negative duration";
  t.cursor <- t.cursor + n
