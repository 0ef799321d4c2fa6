(* Structure toolkit over one thread's CFG: predecessors, reverse
   postorder, and the escape analysis the barrier passes consume — for
   each program point, which access kinds may already have executed
   before it (on some path from the entry, including around loops) and
   which may still execute after it.  A fence ordering pair whose
   from-kind never precedes it or whose to-kind never follows it is
   vacuous: nothing it orders can ever be observed escaping to another
   thread on that side. *)

module Lang = Armb_litmus.Lang
module Cfg = Armb_litmus.Cfg

let successors_of g l = Cfg.successors (Cfg.block_exn g l).Cfg.term

let predecessors g =
  let preds = Hashtbl.create 8 in
  let ls = List.map (fun (b : Cfg.block) -> b.Cfg.label) (Cfg.reachable_blocks g) in
  List.iter (fun l -> Hashtbl.replace preds l []) ls;
  List.iter
    (fun l ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt preds s with
          | Some ps when not (List.mem l ps) -> Hashtbl.replace preds s (l :: ps)
          | _ -> ())
        (successors_of g l))
    ls;
  fun l -> match Hashtbl.find_opt preds l with Some ps -> List.rev ps | None -> []

(* Reverse postorder of the reachable blocks: every forward edge goes
   left to right, so one RPO sweep propagates acyclic dataflow in a
   single pass and loops need only the extra fixpoint rounds. *)
let rpo g =
  let seen = Hashtbl.create 8 in
  let post = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.add seen l ();
      List.iter dfs (successors_of g l);
      post := l :: !post
    end
  in
  dfs g.Cfg.entry;
  !post

(* ---------- escape analysis ---------- *)

type kinds = { loads : bool; stores : bool }

let no_kinds = { loads = false; stores = false }
let union a b = { loads = a.loads || b.loads; stores = a.stores || b.stores }
let kind_of = function
  | Lang.Load _ -> { loads = true; stores = false }
  | Lang.Store _ -> { loads = false; stores = true }
  | Lang.Fence _ -> no_kinds

let body_kinds body = List.fold_left (fun acc i -> union acc (kind_of i)) no_kinds body

type escape = {
  before_in : Cfg.label -> kinds;
      (** kinds that may execute before entering the block, on some
          path from the entry (around loops too) *)
  after_out : Cfg.label -> kinds;
      (** kinds that may still execute after leaving the block *)
}

let escape g =
  let order = rpo g in
  let preds = predecessors g in
  let bk = Hashtbl.create 8 in
  List.iter (fun l -> Hashtbl.replace bk l (body_kinds (Cfg.block_exn g l).Cfg.body)) order;
  let fixpoint seed step neighbors sweep =
    let tbl = Hashtbl.create 8 in
    List.iter (fun l -> Hashtbl.replace tbl l no_kinds) order;
    Hashtbl.replace tbl (fst seed) (snd seed);
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun l ->
          let v =
            List.fold_left
              (fun acc n -> union acc (step n (Hashtbl.find tbl n)))
              (Hashtbl.find tbl l) (neighbors l)
          in
          if v <> Hashtbl.find tbl l then begin
            Hashtbl.replace tbl l v;
            changed := true
          end)
        sweep
    done;
    tbl
  in
  (* before_in[l] = U over preds p of before_in[p] + kinds(p) *)
  let before =
    fixpoint (g.Cfg.entry, no_kinds) (fun p v -> union v (Hashtbl.find bk p)) preds order
  in
  (* after_out[l] = U over succs s of kinds(s) + after_out[s] *)
  let after =
    fixpoint (g.Cfg.entry, no_kinds)
      (fun s v -> union v (Hashtbl.find bk s))
      (successors_of g) (List.rev order)
  in
  {
    before_in = (fun l -> match Hashtbl.find_opt before l with Some k -> k | None -> no_kinds);
    after_out = (fun l -> match Hashtbl.find_opt after l with Some k -> k | None -> no_kinds);
  }
