(* Dynamic happens-before sanitizer.

   Consumes the Observe event stream of a simulated run and reports
   ordering bugs as racy pairs: two same-core accesses (a po-before b)
   that are NOT ordered by any preserved-program-order device (barrier,
   acquire/release, dependency, same-address po-loc) yet sit on a
   communication cycle through other cores — the Shasha/Snir condition
   under which the pair's reordering is observable by a peer.

   The engine keeps, per core, one ordered-before set per operation
   (a set-valued clock over that core's op indices): the transitive
   closure of every ordering edge the architecture preserves.  Barriers
   fold class closures into the running gates exactly as DMB/DSB/LD/ST
   variants do in hardware; coherence order per location enters through
   the po-loc rule and through the conflict edges of the cycle search,
   and the timing model's commit/sample timestamps let a finding be
   tagged as actually witnessed (completion order inverted in this run)
   versus merely possible. *)

module Observe = Armb_cpu.Observe
module Barrier = Armb_cpu.Barrier

type access = Read | Write | Update

type op = {
  op_core : int;
  op_seq : int;
  op_access : access;
  op_addr : int;
  op_issued : int;
  op_completes : int;
}

type finding = {
  core : int;
  first : op;
  second : op;
  chain : op list;
  witnessed : bool;
  fix : string;
  context : (int * string list) list Lazy.t;
}

(* Per-core recording bound and context depth, documented in the .mli. *)
let max_ops_per_core = 4096
let context_depth = 5

type cls = C_read | C_write | C_update | C_fence

type ev = {
  seq : int;
  cls : cls;
  word : int; (* 8-byte word index; -1 for fences *)
  kind : Observe.kind; (* with [addr], what a context line shows *)
  addr : int;
  issued : int;
  completes : int;
  ord : Bitset.t; (* same-core seqs architecturally ordered before this op *)
}

type cstate = {
  core_id : int;
  mutable evs : ev array;
  mutable n : int;
  acq_set : Bitset.t; (* ordered before every subsequent op *)
  st_set : Bitset.t; (* ordered before every subsequent store *)
  loads_cl : Bitset.t; (* closure of the loads recorded so far *)
  stores_cl : Bitset.t; (* closure of the stores recorded so far *)
  last_word : (int, int) Hashtbl.t; (* word -> seq of last access (po-loc) *)
}

type t = { cores : (int, cstate) Hashtbl.t }

let create () = { cores = Hashtbl.create 8 }

let state t core =
  match Hashtbl.find_opt t.cores core with
  | Some c -> c
  | None ->
    let c =
      {
        core_id = core;
        evs = Array.make 16 (Obj.magic 0 : ev);
        n = 0;
        acq_set = Bitset.create ();
        st_set = Bitset.create ();
        loads_cl = Bitset.create ();
        stores_cl = Bitset.create ();
        last_word = Hashtbl.create 16;
      }
    in
    Hashtbl.add t.cores core c;
    c

let push c ev =
  if c.n = Array.length c.evs then begin
    let bigger = Array.make (2 * c.n) ev in
    Array.blit c.evs 0 bigger 0 c.n;
    c.evs <- bigger
  end;
  c.evs.(c.n) <- ev;
  c.n <- c.n + 1

let word_of addr = addr lsr 3

(* Op [seq], ordered after [ord], joins the closure [set]: the set gains
   the op and everything ordered before it. *)
let join set ord seq =
  Bitset.union set ord;
  Bitset.add set seq

(* The core's state and the seq the next op takes there: the sanitizer
   numbers ops itself, one slot per access or fence, up to the limit. *)
let slot t (e : Observe.event) =
  let c = state t e.core in
  let seq = c.n in
  if seq >= max_ops_per_core then
    invalid_arg
      (Printf.sprintf "Sanitizer: core %d ran past the limit of %d observed ops" e.core
         max_ops_per_core);
  (c, seq)

let record_access t (e : Observe.event) cls ~acquire ~release =
  let c, seq = slot t e in
  let word = word_of e.addr in
  let ord = Bitset.copy c.acq_set in
  (match cls with
  | C_write | C_update -> Bitset.union ord c.st_set
  | C_read | C_fence -> ());
  if release then Bitset.add_below ord seq
  else begin
    (* po-loc: program order to the same address is preserved. *)
    (match Hashtbl.find_opt c.last_word word with
    | Some k ->
      Bitset.add ord k;
      Bitset.union ord c.evs.(k).ord
    | None -> ());
    List.iter
      (fun d ->
        if d >= 0 && d < c.n then begin
          Bitset.add ord d;
          Bitset.union ord c.evs.(d).ord
        end)
      e.deps
  end;
  if acquire then join c.acq_set ord seq;
  (match cls with
  | C_read -> join c.loads_cl ord seq
  | C_write -> join c.stores_cl ord seq
  | C_update ->
    join c.loads_cl ord seq;
    join c.stores_cl ord seq
  | C_fence -> ());
  Hashtbl.replace c.last_word word seq;
  push c
    {
      seq;
      cls;
      word;
      kind = e.kind;
      addr = e.addr;
      issued = e.issued_at;
      completes = e.completes_at;
      ord;
    }

let record t (e : Observe.event) =
  match e.kind with
  (* ALU work takes no slot, so it is ignored before the limit check. *)
  | Observe.Compute _ -> ()
  | Observe.Load { acquire } -> record_access t e C_read ~acquire ~release:false
  | Observe.Store { release } -> record_access t e C_write ~acquire:false ~release
  | Observe.Rmw { acq; rel } -> record_access t e C_update ~acquire:acq ~release:rel
  | Observe.Fence b ->
    let c, seq = slot t e in
    (match b with
    | Barrier.Dmb Barrier.Full | Barrier.Dsb Barrier.Full -> Bitset.add_below c.acq_set seq
    | Barrier.Dmb Barrier.Ld | Barrier.Dsb Barrier.Ld -> Bitset.union c.acq_set c.loads_cl
    | Barrier.Dmb Barrier.St | Barrier.Dsb Barrier.St -> Bitset.union c.st_set c.stores_cl
    (* ISB only appears in litmus programs as the ctrl+ISB idiom (a
       branch on a loaded value then ISB), and the timing model's
       pipeline refetch waits for prior loads to retire: credit it
       with DMB ld's force — prior loads ordered before everything. *)
    | Barrier.Isb -> Bitset.union c.acq_set c.loads_cl);
    push c
      {
        seq;
        cls = C_fence;
        word = -1;
        kind = e.kind;
        addr = e.addr;
        issued = e.issued_at;
        completes = e.completes_at;
        ord = Bitset.create ();
      }

let observer t : Observe.t = record t

(* ---------- Analysis ---------- *)

let is_access ev = ev.cls <> C_fence

let conflicts a b =
  a.word >= 0 && a.word = b.word && not (a.cls = C_read && b.cls = C_read)

let access_of_cls = function
  | C_read -> Read
  | C_write -> Write
  | C_update -> Update
  | C_fence -> assert false

let op_of (c : cstate) ev =
  {
    op_core = c.core_id;
    op_seq = ev.seq;
    op_access = access_of_cls ev.cls;
    op_addr = ev.word lsl 3;
    op_issued = ev.issued;
    op_completes = ev.completes;
  }

let fix_for a b =
  match (a.cls, b.cls) with
  | C_write, C_write ->
    "insert `dmb st` between the two stores (or make the second a store-release `stlr`; \
     if payload and flag fit one aligned 64-bit word, merge them into a single store and \
     piggyback on Pilot single-copy atomicity)"
  | C_read, C_read ->
    "insert `dmb ld` between the two loads (or make the first a load-acquire `ldar`, or \
     carry an address dependency into the second load)"
  | C_read, C_write ->
    "insert `dmb ld` after the load (or make the store's address/data depend on the \
     loaded value)"
  | C_write, C_read ->
    "insert a full `dmb` — only a full barrier orders an earlier store before a later load"
  | (C_update, _ | _, C_update) ->
    "give the atomic update acquire/release ordering (`rmw ~acq ~rel`) or insert a full \
     `dmb`"
  | _ -> assert false

(* Conflict index: word -> accesses of that word across all cores. *)
let build_word_index t =
  let idx : (int, (cstate * ev) list ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ c ->
      for i = 0 to c.n - 1 do
        let ev = c.evs.(i) in
        if is_access ev then begin
          match Hashtbl.find_opt idx ev.word with
          | Some l -> l := (c, ev) :: !l
          | None -> Hashtbl.add idx ev.word (ref [ (c, ev) ])
        end
      done)
    t.cores;
  idx

(* Is some event conflicting with [a] reachable from [b] through other
   cores, alternating conflict edges with (full) program order?  If so,
   a peer can observe [b] before [a] — the unfenced pair (a, b) is on a
   communication cycle.  Reachability per remote core is summarised by
   the minimum reached index: program order makes every later op of
   that core reachable too. *)
let cycle_back word_index ~anchor_core ~(a : ev) ~(b : ev) =
  let minreach : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let first_hop = ref None in
  let work = Queue.create () in
  let reach ?via (c2 : cstate) (ev2 : ev) =
    let cur = Option.value ~default:max_int (Hashtbl.find_opt minreach c2.core_id) in
    if ev2.seq < cur then begin
      Hashtbl.replace minreach c2.core_id ev2.seq;
      Queue.push (c2, ev2.seq, cur) work;
      match via with Some _ when !first_hop = None -> first_hop := via | _ -> ()
    end
  in
  (match Hashtbl.find_opt word_index b.word with
  | Some l ->
    List.iter
      (fun (c2, ev2) ->
        if c2.core_id <> anchor_core && conflicts b ev2 then reach ~via:(c2, ev2) c2 ev2)
      !l
  | None -> ());
  let found = ref None in
  while !found = None && not (Queue.is_empty work) do
    let c2, lo, hi = Queue.pop work in
    let stop = Int.min hi c2.n in
    (* Newly reachable segment [lo, stop) on core c2: follow its
       conflict edges outward and test for one closing back to [a]. *)
    let i = ref lo in
    while !found = None && !i < stop do
      let ev2 = c2.evs.(!i) in
      if is_access ev2 then begin
        if conflicts ev2 a then found := Some (c2, ev2)
        else
          match Hashtbl.find_opt word_index ev2.word with
          | Some l ->
            List.iter
              (fun (c3, ev3) ->
                if c3.core_id <> anchor_core && c3.core_id <> c2.core_id
                   && conflicts ev2 ev3 then
                  reach c3 ev3)
              !l
          | None -> ()
      end;
      incr i
    done
  done;
  match !found with
  | None -> None
  | Some (cz, z) ->
    let chain =
      match !first_hop with
      | Some (cf, f) when not (cf.core_id = cz.core_id && f.seq = z.seq) ->
        [ op_of cf f; op_of cz z ]
      | _ -> [ op_of cz z ]
    in
    Some chain

let context_line ev =
  let what =
    if Observe.is_access ev.kind then
      Printf.sprintf "%s 0x%x" (Observe.kind_to_string ev.kind) ev.addr
    else Observe.kind_to_string ev.kind
  in
  Printf.sprintf "[%d] %s @%d..%d" ev.seq what ev.issued ev.completes

(* Every core's events and op count as of one analysis.  Recorded
   events never change, and a grown [evs] array leaves the old one
   intact, so a context rendered from this later shows what its finding
   saw. *)
let snapshot t = Hashtbl.fold (fun k c acc -> (k, (c.evs, c.n)) :: acc) t.cores []

(* The recent ops of every core a finding involves: its own core's ops
   up to [upto] (the pair's second op), each chain core's last ops. *)
let context_for snap ~core ~upto chain =
  lazy
    (List.map
       (fun k ->
         let evs, n = List.assoc k snap in
         let upto = if k = core then upto else n - 1 in
         let lo = Int.max 0 (upto - context_depth + 1) in
         (k, List.init (upto - lo + 1) (fun i -> context_line evs.(lo + i))))
       (List.sort_uniq Int.compare (core :: List.map (fun o -> o.op_core) chain)))

let signature (f : finding) =
  let acc = function Read -> "R" | Write -> "W" | Update -> "U" in
  Printf.sprintf "%d:%s@0x%x->%s@0x%x" f.core
    (acc f.first.op_access) f.first.op_addr
    (acc f.second.op_access) f.second.op_addr

let findings t =
  let word_index = build_word_index t in
  let snap = snapshot t in
  let out = ref [] in
  let seen = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (c : cstate) ->
      for j = 0 to c.n - 1 do
        let b = c.evs.(j) in
        if is_access b then
          for i = 0 to j - 1 do
            let a = c.evs.(i) in
            if is_access a && not (Bitset.mem b.ord i) then begin
              (* quick dedup before the (costlier) cycle search *)
              let key = (c.core_id, a.cls, a.word, b.cls, b.word) in
              if not (Hashtbl.mem seen key) then begin
                match cycle_back word_index ~anchor_core:c.core_id ~a ~b with
                | None -> ()
                | Some chain ->
                  Hashtbl.add seen key ();
                  out :=
                    {
                      core = c.core_id;
                      first = op_of c a;
                      second = op_of c b;
                      chain;
                      witnessed = b.completes < a.completes;
                      fix = fix_for a b;
                      context = context_for snap ~core:c.core_id ~upto:b.seq chain;
                    }
                    :: !out
              end
            end
          done
      done)
    t.cores;
  List.sort
    (fun f g ->
      let c = Int.compare f.core g.core in
      if c <> 0 then c
      else
        let c = Int.compare f.first.op_seq g.first.op_seq in
        if c <> 0 then c else Int.compare f.second.op_seq g.second.op_seq)
    !out

let pp_access ppf = function
  | Read -> Format.pp_print_string ppf "ld"
  | Write -> Format.pp_print_string ppf "st"
  | Update -> Format.pp_print_string ppf "rmw"

let pp_op ppf o =
  Format.fprintf ppf "core %d: %a 0x%x [op %d, completes @%d]" o.op_core pp_access
    o.op_access o.op_addr o.op_seq o.op_completes

let pp_finding ppf f =
  Format.fprintf ppf "@[<v>racy pair on core %d%s:@,  %a@,  %a@," f.core
    (if f.witnessed then " (reordering witnessed in this run)" else "")
    pp_op f.first pp_op f.second;
  List.iter (fun o -> Format.fprintf ppf "  observable via %a@," pp_op o) f.chain;
  Format.fprintf ppf "  fix: %s@," f.fix;
  List.iter
    (fun (core, lines) ->
      Format.fprintf ppf "  recent ops, core %d:@," core;
      List.iter (fun l -> Format.fprintf ppf "    %s@," l) lines)
    (Lazy.force f.context);
  Format.fprintf ppf "@]"
