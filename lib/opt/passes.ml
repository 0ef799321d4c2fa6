(* The barrier-merging pass: one RPO sweep per thread carrying a
   pending-barrier set forward (SNIPPETS-style OptimizeMemoryBarriers).

   A fence is modelled as the set of ordering pairs (from-kind,
   to-kind) it enforces.  When the sweep meets a fence it restricts the
   pairs to the ones that are *alive* at that point — the from-kind may
   actually have executed earlier on some path, the to-kind may still
   execute later (the escape analysis answers both) — and turns the
   fence into a pending barrier instead of emitting it.  A pending
   barrier sinks forward past accesses its pairs do not mention and
   materializes immediately before the first access they do mention,
   as the cheapest fence covering them; pending barriers materializing
   at the same point merge (one fence subsumes every pend whose pairs
   it covers).  With no pair alive the fence vanishes.

   Soundness is structural, independent of the verifier: a pend
   materializes before any access that could join its pairs' from-side
   or to-side, so the set of (earlier access, later access) pairs each
   emitted fence orders is exactly the set its original fence ordered —
   cover excess only ever names kinds that are dead on that side and
   orders nothing.  DSB is pinned: it is never weakened, sunk, or
   dropped (it may drain more than program-visible memory order), but
   it absorbs every barrier pending at its position. *)

module Lang = Armb_litmus.Lang
module Cfg = Armb_litmus.Cfg

type kind = Ld | St

(* The ordering-pair lattice: [dmb.st] = St->St; [dmb.ld] and ctrl+ISB =
   Ld->Ld, Ld->St; [dmb]/[dsb] = everything. *)
let pairs_of = function
  | Lang.F_dmb_st -> [ (St, St) ]
  | Lang.F_dmb_ld | Lang.F_isb -> [ (Ld, Ld); (Ld, St) ]
  | Lang.F_dmb_full | Lang.F_dsb -> [ (Ld, Ld); (Ld, St); (St, Ld); (St, St) ]

let kind_in k (s : Analysis.kinds) = match k with Ld -> s.Analysis.loads | St -> s.Analysis.stores

let restrict pairs ~from_ ~to_ =
  List.filter (fun (a, b) -> kind_in a from_ && kind_in b to_) pairs

let subset a b = List.for_all (fun p -> List.mem p b) a
let same_pairs a b = subset a b && subset b a

(* Cheapest fence covering the needed pairs, in the architectural cost
   order the synthesizer uses (DMB st ~ DMB ld < ISB < DMB full; ISB is
   never picked because DMB ld covers the same pairs for less). *)
let cover needed =
  List.find
    (fun f -> subset needed (pairs_of f))
    [ Lang.F_dmb_st; Lang.F_dmb_ld; Lang.F_dmb_full ]

type pend = { orig : Lang.fence; pairs : (kind * kind) list }

type stats = {
  mutable dead : int;  (** fences dropped: no ordering pair alive *)
  mutable weakened : int;  (** fences re-emitted as a cheaper kind *)
  mutable merged : int;  (** fences absorbed into another emission *)
}

let fresh_stats () = { dead = 0; weakened = 0; merged = 0 }

(* Emit the pending barriers that must materialize here, strongest
   first so one fence subsumes the rest where possible.  Returns the
   emitted instructions in order. *)
let emit_pends stats pends =
  let sorted =
    List.sort (fun a b -> compare (List.length b.pairs) (List.length a.pairs)) pends
  in
  let rec go acc = function
    | [] -> List.rev acc
    | p :: rest ->
      let f = if same_pairs p.pairs (pairs_of p.orig) then p.orig else cover p.pairs in
      if f <> p.orig then stats.weakened <- stats.weakened + 1;
      let covered, remain = List.partition (fun q -> subset q.pairs (pairs_of f)) rest in
      stats.merged <- stats.merged + List.length covered;
      go (Lang.Fence f :: acc) remain
  in
  go [] sorted

let kind_of_access = function
  | Lang.Load _ -> Some Ld
  | Lang.Store _ -> Some St
  | Lang.Fence _ -> None

let mentions k pairs = List.exists (fun (a, b) -> a = k || b = k) pairs

let add_kind k (s : Analysis.kinds) =
  match k with
  | Ld -> { s with Analysis.loads = true }
  | St -> { s with Analysis.stores = true }

let run_thread ~cross_block stats g =
  let esc = Analysis.escape g in
  let order = Analysis.rpo g in
  let rpo_index = Hashtbl.create 8 in
  List.iteri (fun i l -> Hashtbl.replace rpo_index l i) order;
  let preds = Analysis.predecessors g in
  let carry : (Cfg.label, pend list) Hashtbl.t = Hashtbl.create 8 in
  let new_bodies = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let b = Cfg.block_exn g l in
      let body = Array.of_list b.Cfg.body in
      let n = Array.length body in
      (* suffix.(i) = kinds that may execute at or after body index i
         (falling through to every later path) *)
      let suffix = Array.make (n + 1) (esc.Analysis.after_out l) in
      for i = n - 1 downto 0 do
        suffix.(i) <- Analysis.union suffix.(i + 1) (Analysis.kind_of body.(i))
      done;
      let pending = ref (match Hashtbl.find_opt carry l with Some ps -> ps | None -> []) in
      let from_ = ref (esc.Analysis.before_in l) in
      let out = ref [] in
      let emit instrs = List.iter (fun i -> out := i :: !out) instrs in
      Array.iteri
        (fun i instr ->
          match instr with
          | Lang.Fence Lang.F_dsb ->
            (* pinned, and it absorbs everything pending here *)
            stats.merged <- stats.merged + List.length !pending;
            pending := [];
            out := instr :: !out
          | Lang.Fence f ->
            let alive = restrict (pairs_of f) ~from_:!from_ ~to_:suffix.(i + 1) in
            if alive = [] then stats.dead <- stats.dead + 1
            else pending := !pending @ [ { orig = f; pairs = alive } ]
          | access -> (
            match kind_of_access access with
            | None -> assert false
            | Some k ->
              let mat, keep = List.partition (fun p -> mentions k p.pairs) !pending in
              emit (emit_pends stats mat);
              out := access :: !out;
              from_ := add_kind k !from_;
              pending := keep))
        body;
      (* block end: re-restrict to what can still follow, then either
         carry along a straight chain edge or materialize here *)
      let live =
        List.filter_map
          (fun p ->
            match List.filter (fun (_, b') -> kind_in b' (esc.Analysis.after_out l)) p.pairs with
            | [] ->
              stats.dead <- stats.dead + 1;
              None
            | pairs -> Some { p with pairs })
          !pending
      in
      let carried =
        cross_block && live <> []
        &&
        match b.Cfg.term with
        | Cfg.Goto s
          when preds s = [ l ]
               && (match (Hashtbl.find_opt rpo_index s, Hashtbl.find_opt rpo_index l) with
                  | Some is, Some il -> is > il
                  | _ -> false) ->
          Hashtbl.replace carry s
            ((match Hashtbl.find_opt carry s with Some ps -> ps | None -> []) @ live);
          true
        | _ -> false
      in
      if not carried then emit (emit_pends stats live);
      Hashtbl.replace new_bodies l (List.rev !out))
    order;
  {
    g with
    Cfg.blocks =
      List.map
        (fun (b : Cfg.block) ->
          match Hashtbl.find_opt new_bodies b.Cfg.label with
          | Some body -> { b with Cfg.body = body }
          | None -> b (* unreachable: untouched *))
        g.Cfg.blocks;
  }

let merge ?(cross_block = true) (p : Cfg.program) =
  let stats = fresh_stats () in
  let threads = List.map (run_thread ~cross_block stats) p.Cfg.threads in
  ({ p with Cfg.threads }, stats)

(* ---------- the stress input ---------- *)

(* DMB full at every instruction boundary of every block: the
   over-fenced worst case the optimizer is asked to clean up. *)
let over_fence (p : Cfg.program) =
  let full = Lang.Fence Lang.F_dmb_full in
  let fence_body body = full :: List.concat_map (fun i -> [ i; full ]) body in
  {
    p with
    Cfg.name = p.Cfg.name ^ "+overfenced";
    description = p.Cfg.description ^ " (DMB full at every boundary)";
    threads =
      List.map
        (fun (g : Cfg.thread_cfg) ->
          {
            g with
            Cfg.blocks =
              List.map (fun (b : Cfg.block) -> { b with Cfg.body = fence_body b.Cfg.body }) g.Cfg.blocks;
          })
        p.Cfg.threads;
  }
